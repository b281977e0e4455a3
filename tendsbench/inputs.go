package main

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"tends/internal/core"
	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/influence"
	"tends/internal/lfr"
	"tends/internal/metrics"
	"tends/internal/probest"
	"tends/internal/serve"
)

// The LFR recipe every workload shares: average degree 10, degree exponent
// 2, edge probabilities around 0.08, ten seed nodes per diffusion process.
const (
	avgDegree   = 10
	degreeExp   = 2
	edgeProbMu  = 0.08
	edgeProbSD  = 0.05
	seedsPerRun = 10

	// A run sets up at least minSetups times and until setupBudget has
	// passed, at most maxSetups times, and reports the median.
	minSetups   = 3
	maxSetups   = 101
	setupBudget = 500 * time.Millisecond

	// The influence stage: seed budget, Monte-Carlo samples, and the fixed
	// seeds of the sketch and spread estimators.
	influenceK   = 10
	spreadSample = 1000
	risSeed      = 1
	spreadSeed   = 2

	// Scoring a reconstruction by influence averages over scoreRIS sketch
	// seeds, because a sparse reconstruction leaves many nodes nearly tied
	// and one sketch pool picks among them at random; each spread is
	// estimated on the truth from scoreSamples cascades.
	scoreRIS     = 8
	scoreSamples = 10000
)

// instance is one workload input. The ground truth is generated from the
// instance seed with lfr.Generate and diffusion.NewEdgeProbs, and the run
// seed draws a relabeling of its nodes: the program sees observations in
// presented labels, and the benchmark maps its answers back to score them.
//
// A fresh graph per run seed would move the quality metrics more than any
// bound could absorb: F at scale-100k flips between about 0.008 and 0.016
// with the graph, and the spread ratio at paper-1k moves by a tenth. The
// held-out instance seed gives a second graph for confirming a claim.
type instance struct {
	truth     *graph.Directed      // base labels
	ep        *diffusion.EdgeProbs // base labels
	simSeed   int64
	perm, inv []int // base → presented labels, and back
}

func newInstance(n int, instanceSeed, seed int64) (*instance, error) {
	rng := rand.New(rand.NewSource(instanceSeed))
	net, err := lfr.Generate(lfr.Params{N: n, AvgDegree: avgDegree, DegreeExp: degreeExp}, rng)
	if err != nil {
		return nil, fmt.Errorf("generate network: %w", err)
	}
	in := &instance{
		truth:   net.Graph,
		ep:      diffusion.NewEdgeProbs(net.Graph, edgeProbMu, edgeProbSD, rng),
		simSeed: instanceSeed ^ 0x5eed5eed,
		perm:    rand.New(rand.NewSource(seed)).Perm(n),
		inv:     make([]int, n),
	}
	for v, p := range in.perm {
		in.inv[p] = v
	}
	return in, nil
}

// setupDone reports whether reps set-ups taking spent in total suffice.
func setupDone(reps int, spent time.Duration) bool {
	return reps >= minSetups && spent >= setupBudget || reps >= maxSetups
}

// setupInstance builds the instance repeatedly and returns the last build
// with the median build time.
func setupInstance(n int, cfg config) (*instance, float64, error) {
	var in *instance
	var times []float64
	for start := time.Now(); !setupDone(len(times), time.Since(start)); {
		t0 := time.Now()
		var err error
		if in, err = newInstance(n, cfg.instance, cfg.seed); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return in, median(times), nil
}

// present relabels an observation matrix from base to presented labels.
func (in *instance) present(sm *diffusion.StatusMatrix) *diffusion.StatusMatrix {
	out := diffusion.NewStatusMatrix(sm.Beta(), sm.N())
	for v := 0; v < sm.N(); v++ {
		for k, w := range sm.Column(v) {
			for ; w != 0; w &= w - 1 {
				out.Set(k*64+bits.TrailingZeros64(w), in.perm[v], true)
			}
		}
	}
	return out
}

// base maps a topology from presented back to base labels.
func (in *instance) base(g *graph.Directed) *graph.Directed {
	out := graph.New(g.NumNodes())
	for _, e := range g.Edges() {
		out.AddEdge(in.inv[e.From], in.inv[e.To])
	}
	return out
}

// f1 scores a topology in presented labels against the truth.
func (in *instance) f1(g *graph.Directed) float64 {
	return metrics.Score(in.truth, in.base(g)).F
}

// spreadRatio scores the weighted reconstruction ep (base labels) by
// influence: the mean truth-evaluated spread of the seeds chosen on it with
// scoreRIS sketch seeds, divided by the spread of RIS seeds chosen on the
// true weighted network, all evaluated with one fixed Monte-Carlo seed. The
// caller builds ep in base labels so that the ratio depends on the
// reconstruction alone, not on the relabeling.
func (in *instance) spreadRatio(ctx context.Context, ep *diffusion.EdgeProbs) (float64, error) {
	opt := influence.SpreadOptions{Samples: scoreSamples, Seed: spreadSeed}
	spreadOf := func(ep *diffusion.EdgeProbs, seed int64) (float64, error) {
		ris, err := influence.RISSeeds(ctx, ep, influence.RISOptions{K: influenceK, Seed: seed})
		if err != nil {
			return 0, fmt.Errorf("RIS seeds: %w", err)
		}
		return influence.SpreadEst(ctx, in.ep, ris.Seeds, opt)
	}
	ref, err := spreadOf(in.ep, risSeed)
	if err != nil {
		return 0, err
	}
	var got float64
	for seed := int64(1); seed <= scoreRIS; seed++ {
		s, err := spreadOf(ep, seed)
		if err != nil {
			return 0, err
		}
		got += s / scoreRIS
	}
	return got / ref, nil
}

// simulate draws beta diffusion processes on the base network; every run
// of an instance gets the same observations.
func (in *instance) simulate(ctx context.Context, beta int) (*diffusion.Result, error) {
	n := in.truth.NumNodes()
	cfg := diffusion.Config{Alpha: float64(seedsPerRun) / float64(n), Beta: beta}
	return diffusion.SimulateContext(ctx, in.ep, cfg, rand.New(rand.NewSource(in.simSeed)))
}

// influenceTimes are the stage times of one influence leg.
type influenceTimes struct {
	probest, ris, mc time.Duration
}

// influenceLeg is the tail of `reconstruct -k 10`: estimate edge
// probabilities on the inferred topology, choose seeds with RIS sketches,
// and validate their spread with Monte-Carlo on the reconstruction. It
// returns the seeds and the weighted reconstruction.
func influenceLeg(ctx context.Context, sm *diffusion.StatusMatrix, g *graph.Directed, workers int) ([]int, *diffusion.EdgeProbs, influenceTimes, error) {
	var t influenceTimes
	t0 := time.Now()
	est, err := probest.RunContext(ctx, sm, g, probest.Options{Workers: workers})
	if err != nil {
		return nil, nil, t, fmt.Errorf("probest: %w", err)
	}
	ep, err := est.EdgeProbs(g, 0)
	if err != nil {
		return nil, nil, t, fmt.Errorf("probest edge probabilities: %w", err)
	}
	t1 := time.Now()
	t.probest = t1.Sub(t0)
	ris, err := influence.RISSeeds(ctx, ep, influence.RISOptions{K: influenceK, Workers: workers, Seed: risSeed})
	if err != nil {
		return nil, nil, t, fmt.Errorf("RIS seeds: %w", err)
	}
	t2 := time.Now()
	t.ris = t2.Sub(t1)
	if _, err := influence.SpreadEst(ctx, ep, ris.Seeds, influence.SpreadOptions{Samples: spreadSample, Workers: workers, Seed: spreadSeed}); err != nil {
		return nil, nil, t, fmt.Errorf("spread estimate: %w", err)
	}
	t.mc = time.Since(t2)
	return ris.Seeds, ep, t, nil
}

// statusRows lists the infected nodes of every observation row.
func statusRows(sm *diffusion.StatusMatrix) [][]int32 {
	rows := make([][]int32, sm.Beta())
	for p := range rows {
		rows[p] = []int32{}
		for v, inf := range sm.Row(p) {
			if inf {
				rows[p] = append(rows[p], int32(v))
			}
		}
	}
	return rows
}

// replayFold times the streaming service's incremental path over rows:
// every row folded with IncrementalCounts.AppendRow, then Source at the
// final row count.
func replayFold(n int, rows [][]int32) (fold, source time.Duration, err error) {
	ints := make([][]int, len(rows))
	for i, r := range rows {
		ints[i] = make([]int, len(r))
		for j, v := range r {
			ints[i][j] = int(v)
		}
	}
	c := core.NewIncrementalCounts(n, false)
	t0 := time.Now()
	for _, r := range ints {
		if err := c.AppendRow(r); err != nil {
			return 0, 0, fmt.Errorf("fold row: %w", err)
		}
	}
	t1 := time.Now()
	c.Source()
	return t1.Sub(t0), time.Since(t1), nil
}

// replayWAL appends rows to a fresh write-ahead log in batches of batchRows
// and returns the latency of each batch's fsync.
func replayWAL(ctx context.Context, dir string, n int, rows [][]int32, batchRows int) ([]time.Duration, error) {
	path := filepath.Join(dir, fmt.Sprintf("replay-wal-%d.log", os.Getpid()))
	defer os.Remove(path)
	w, err := serve.CreateWAL(path, n, 0)
	if err != nil {
		return nil, err
	}
	var syncs []time.Duration
	for b := 0; b*batchRows < len(rows); b++ {
		lo := b * batchRows
		if err := w.Append(ctx, uint64(b+1), rows[lo:min(lo+batchRows, len(rows))]); err != nil {
			w.Close()
			return nil, err
		}
		t0 := time.Now()
		if err := w.Sync(ctx); err != nil {
			w.Close()
			return nil, err
		}
		syncs = append(syncs, time.Since(t0))
	}
	return syncs, w.Close()
}
