package experiments

// The Fig. 16 family closes the loop the paper opens with: topology
// reconstruction exists "to promote or prevent future diffusions". Instead
// of scoring the inferred edge set directly, each cell runs the full
// downstream pipeline — probest edge-probability fit on the reconstruction,
// RIS sketch seed selection — and asks the application-level question: how
// much spread do seeds chosen on the *reconstructed* network achieve,
// compared to seeds chosen with full knowledge of the *true* network? Both
// seed sets are evaluated by forward Monte-Carlo on the true weighted
// network, so reconstruction errors show up exactly as lost spread.

import (
	"context"
	"fmt"

	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/influence"
	"tends/internal/metrics"
	"tends/internal/probest"
)

// InfluenceEval configures the influence evaluation of a point. The PRF it
// yields reinterprets the columns: F is the spread ratio
// (reconstructed-seeds spread ÷ true-network-seeds spread, the headline
// quality number, ≈1 for a perfect reconstruction), Precision the
// reconstructed-seeds spread as a fraction of n, and Recall the
// true-network-seeds spread as a fraction of n.
type InfluenceEval struct {
	// K is the seed budget.
	K int
	// Samples sets the Monte-Carlo samples of the final spread evaluation;
	// 0 means 1000.
	Samples int
	// Eps, MinSketches and MaxSketches tune the RIS sketch pool
	// (influence.RISOptions); zero values take that package's defaults.
	Eps         float64
	MinSketches int
	MaxSketches int
}

// Seed-stream tags separating the influence evaluation's derived streams
// from every other per-cell stream.
const (
	influenceSelectTag   = 0x16f1_5e1e_c75e_ed01
	influenceEvalSeedTag = 0x16f1_e7a1_5b9e_ad02
)

// influenceScore runs the downstream pipeline for one cell: probest on the
// inferred topology, RIS seed selection on both the reconstructed and the
// true weighted network, and Monte-Carlo spread evaluation of both seed
// sets on the true network. Everything runs single-worker: the harness
// already parallelizes across cells, and the result must not depend on the
// cell's scheduling.
func influenceScore(ctx context.Context, pt *Point, truth *graph.Directed, sim *diffusion.Result, inferred *graph.Directed, seed int64) (metrics.PRF, error) {
	ie := pt.Influence
	if ie.K <= 0 {
		return metrics.PRF{}, fmt.Errorf("influence eval: seed budget K must be positive, got %d", ie.K)
	}
	samples := ie.Samples
	if samples == 0 {
		samples = 1000
	}
	if sim.Statuses == nil {
		return metrics.PRF{}, fmt.Errorf("influence eval: workload carries no status matrix")
	}

	// The true weighted network, rebuilt from the cell seed with the same
	// draws the simulation consumed.
	trueEP, _ := workloadEdgeProbs(truth, pt.Workload, seed)

	// Reconstructed weighted network: noisy-OR fit on the inferred topology.
	est, err := probest.RunContext(ctx, sim.Statuses, inferred, probest.Options{Workers: 1})
	if err != nil {
		return metrics.PRF{}, fmt.Errorf("influence eval: probest: %w", err)
	}
	reconEP, err := est.EdgeProbs(inferred, 0)
	if err != nil {
		return metrics.PRF{}, fmt.Errorf("influence eval: edge probs: %w", err)
	}

	risOpt := influence.RISOptions{
		K: ie.K, Workers: 1, Eps: ie.Eps,
		MinSketches: ie.MinSketches, MaxSketches: ie.MaxSketches,
		Seed: int64(splitmix64(uint64(seed) ^ influenceSelectTag)),
	}
	reconSel, err := influence.RISSeeds(ctx, reconEP, risOpt)
	if err != nil {
		return metrics.PRF{}, fmt.Errorf("influence eval: seeds on reconstruction: %w", err)
	}
	trueSel, err := influence.RISSeeds(ctx, trueEP, risOpt)
	if err != nil {
		return metrics.PRF{}, fmt.Errorf("influence eval: seeds on truth: %w", err)
	}

	// Both seed sets face the same Monte-Carlo sample streams on the true
	// network, so their comparison is noise-aligned.
	evalOpt := influence.SpreadOptions{
		Samples: samples, Workers: 1,
		Seed: int64(splitmix64(uint64(seed) ^ influenceEvalSeedTag)),
	}
	reconSpread, err := influence.SpreadEst(ctx, trueEP, reconSel.Seeds, evalOpt)
	if err != nil {
		return metrics.PRF{}, fmt.Errorf("influence eval: spread of reconstructed seeds: %w", err)
	}
	trueSpread, err := influence.SpreadEst(ctx, trueEP, trueSel.Seeds, evalOpt)
	if err != nil {
		return metrics.PRF{}, fmt.Errorf("influence eval: spread of true seeds: %w", err)
	}

	n := float64(truth.NumNodes())
	ratio := 0.0
	if trueSpread > 0 {
		ratio = reconSpread / trueSpread
	}
	return metrics.PRF{F: ratio, Precision: reconSpread / n, Recall: trueSpread / n}, nil
}

// Fig16Influence — spread achieved by seeds chosen on the reconstructed
// network vs. the true network (NetSci), swept over the seed budget k. The
// algorithms are the edge-set-producing reconstructors; NetRate emits
// weighted edges without a committed topology, so it has no cell here.
func Fig16Influence() Figure {
	fig := Figure{
		ID:         "Fig16",
		Title:      "Influence Pipeline: Spread of Seeds from Reconstructed vs True Network (NetSci)",
		Algorithms: []Algorithm{AlgoTENDS, AlgoLIFT},
	}
	for _, k := range []int{1, 2, 5, 10, 20} {
		fig.Points = append(fig.Points, Point{
			Label: fmt.Sprintf("k=%d", k),
			Workload: Workload{
				Network: netSciNetwork,
				Mu:      DefaultMu, Alpha: DefaultAlpha, Beta: DefaultBeta,
			},
			Influence: &InfluenceEval{K: k},
		})
	}
	return fig
}
