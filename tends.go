// Package tends reconstructs diffusion network topologies from only the
// final infection statuses of nodes, implementing TENDS from "Statistical
// Estimation of Diffusion Network Topologies" (ICDE 2020).
//
// A diffusion network is a directed graph whose edges carry influence: an
// infected node may infect its children. Given β historical diffusion
// processes observed only as final 0/1 infection statuses — no timestamps,
// no sources, no prior knowledge of the edge count — TENDS recovers the
// most probable edge set by finding, for every node, the parent set that
// maximizes a penalized-likelihood local score, over candidates pre-pruned
// by infection mutual information.
//
// # Quick start
//
//	// Observations: one row of 0/1 statuses per diffusion process.
//	obs := tends.NewObservations(beta, n)
//	for p, row := range data {
//	    for v, infected := range row {
//	        obs.Set(p, v, infected)
//	    }
//	}
//	result, err := tends.Infer(obs, tends.Options{})
//	if err != nil { ... }
//	for _, e := range result.Graph.Edges() {
//	    fmt.Printf("%d influences %d\n", e.From, e.To)
//	}
//
// Observations can also come from the bundled independent-cascade simulator
// (see Simulate) or from a status file (see ReadObservations), and the
// cmd/tends, cmd/diffsim, cmd/lfrgen and cmd/benchfig executables wrap the
// same functionality for the command line.
//
// The internal packages additionally provide the baselines the paper
// compares against (NetRate, MulTree, LIFT, and NetInf) and the full
// benchmark harness regenerating the paper's Figures 1–11; see DESIGN.md
// and EXPERIMENTS.md.
package tends

import (
	"io"
	"math/rand"

	"tends/internal/core"
	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/metrics"
	"tends/internal/probest"
)

// Graph is a directed graph over nodes 0..n-1; an edge (u, v) means u has
// an influence relationship to v.
type Graph = graph.Directed

// Edge is a directed edge of a Graph.
type Edge = graph.Edge

// NewGraph returns an empty directed graph with n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// ReadGraph parses a graph from its text serialization ("nodes <n>" header
// followed by "<from> <to>" lines).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph serializes a graph in the text format understood by ReadGraph.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// Observations is a β×n matrix of final infection statuses: row ℓ holds the
// statuses of all n nodes at the end of the ℓ-th diffusion process.
type Observations = diffusion.StatusMatrix

// NewObservations returns a zeroed β×n observation matrix.
func NewObservations(beta, n int) *Observations { return diffusion.NewStatusMatrix(beta, n) }

// ReadObservations parses observations from their text serialization
// ("statuses <beta> <n>" header followed by one 0/1 row per process).
func ReadObservations(r io.Reader) (*Observations, error) { return diffusion.ReadStatus(r) }

// Options tunes the TENDS algorithm; the zero value is the recommended
// configuration. See the field documentation in internal/core for the
// trade-offs behind each knob.
type Options = core.Options

// Threshold-selection strategies for Options.ThresholdMethod.
const (
	// ThresholdAuto (default): the larger of the paper's K-means threshold
	// and an FDR-calibrated significance threshold.
	ThresholdAuto = core.ThresholdAuto
	// ThresholdKMeans: the paper's Section IV-B modified K-means, exactly.
	ThresholdKMeans = core.ThresholdKMeans
	// ThresholdKMeansPerNode: the paper's K-means run per node.
	ThresholdKMeansPerNode = core.ThresholdKMeansPerNode
	// ThresholdFDR: pure Benjamini–Hochberg FDR control.
	ThresholdFDR = core.ThresholdFDR
)

// Result is the outcome of an inference run: the reconstructed topology,
// the per-node parent sets, the pruning threshold used, and the value of
// the scoring criterion g(T).
type Result = core.Result

// Infer reconstructs the diffusion network topology behind the
// observations.
func Infer(obs *Observations, opt Options) (*Result, error) {
	return core.Infer(obs, opt)
}

// SimulationConfig controls Simulate.
type SimulationConfig struct {
	// Alpha is the initial infection ratio: each process seeds
	// max(1, round(Alpha·n)) uniformly random nodes.
	Alpha float64
	// Beta is the number of independent diffusion processes.
	Beta int
	// Mu is the mean per-edge propagation probability; probabilities are
	// drawn once per network from a Gaussian with standard deviation 0.05,
	// truncated into (0, 1) — the paper's infection-data protocol.
	Mu float64
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed int64
}

// SimulationResult bundles the observations a simulation produced with the
// full cascade traces (used by timestamp-based baselines in the internal
// packages).
type SimulationResult = diffusion.Result

// Simulate runs independent-cascade diffusion processes on a known network
// and returns the resulting observations, for studying reconstruction
// quality against a ground truth. Equal configurations give equal results:
// the edge probabilities and then the processes draw from one math/rand
// generator seeded with cfg.Seed, which the simulation consumes in blocks
// (see diffusion.Simulate).
func Simulate(g *Graph, cfg SimulationConfig) (*SimulationResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ep := diffusion.NewEdgeProbs(g, cfg.Mu, 0.05, rng)
	return diffusion.Simulate(ep, diffusion.Config{Alpha: cfg.Alpha, Beta: cfg.Beta}, rng)
}

// ProbabilityEstimate carries estimated per-edge propagation probabilities
// and per-node leak (exogenous infection) probabilities.
type ProbabilityEstimate = probest.Estimate

// EstimateProbabilities fits a per-edge propagation probability and a
// per-node leak probability to the observations under a noisy-OR model,
// given a topology (typically Result.Graph from Infer). It completes the
// reconstruction into a fully weighted diffusion network; see
// internal/probest for the model and its caveats.
func EstimateProbabilities(obs *Observations, g *Graph) (*ProbabilityEstimate, error) {
	return probest.Run(obs, g, probest.Options{})
}

// PRF bundles precision, recall and F-score of an inferred topology against
// a ground truth.
type PRF = metrics.PRF

// Score compares an inferred topology against the ground truth, counting a
// true positive only for direction-exact edge matches (the paper's
// evaluation criterion).
func Score(truth, inferred *Graph) PRF {
	return metrics.Score(truth, inferred)
}
