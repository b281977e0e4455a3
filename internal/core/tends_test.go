package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/lfr"
	"tends/internal/metrics"
)

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// simulateOn produces observations from a known network.
func simulateOn(t testing.TB, g *graph.Directed, mu, alpha float64, beta int, seed int64) *diffusion.StatusMatrix {
	t.Helper()
	rng := newTestRand(seed)
	ep := diffusion.NewEdgeProbs(g, mu, 0.05, rng)
	res, err := diffusion.Simulate(ep, diffusion.Config{Alpha: alpha, Beta: beta}, rng)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return res.Statuses
}

func TestInferRecoversSymmetricChain(t *testing.T) {
	g := graph.Chain(12)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.1, 2000, 1)
	res, err := Infer(sm, Options{})
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	prf := metrics.Score(g, res.Graph)
	if prf.F < 0.8 {
		t.Fatalf("chain recovery F = %.3f (P=%.3f R=%.3f), want >= 0.8", prf.F, prf.Precision, prf.Recall)
	}
}

func TestInferRecoversSymmetricStar(t *testing.T) {
	g := graph.Star(8)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.125, 2000, 2)
	res, err := Infer(sm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prf := metrics.Score(g, res.Graph)
	if prf.F < 0.8 {
		t.Fatalf("star recovery F = %.3f (P=%.3f R=%.3f), want >= 0.8", prf.F, prf.Precision, prf.Recall)
	}
}

func TestInferOnIndependentNoiseIsSparse(t *testing.T) {
	// No true edges: pure coin-flip columns. The inferred network should
	// be (nearly) empty thanks to the penalty and the pruning threshold.
	m := randomStatus(300, 15, 5)
	res, err := Infer(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumEdges() > 6 {
		t.Fatalf("inferred %d edges from pure noise, want near 0", res.Graph.NumEdges())
	}
}

func TestInferErrors(t *testing.T) {
	if _, err := Infer(diffusion.NewStatusMatrix(0, 5), Options{}); err == nil {
		t.Fatal("beta=0 should fail")
	}
	if _, err := Infer(diffusion.NewStatusMatrix(5, 0), Options{}); err == nil {
		t.Fatal("n=0 should fail")
	}
	if _, err := Infer(randomStatus(10, 3, 1), Options{MaxComboSize: -1}); err == nil {
		t.Fatal("negative MaxComboSize should fail")
	}
	if _, err := Infer(randomStatus(10, 3, 1), Options{ThresholdScale: -2}); err == nil {
		t.Fatal("negative ThresholdScale should fail")
	}
}

// TestInferRejectsBadThresholds pins the threshold-option validation shared
// by every inference entry point: an FDRAlpha outside (0,1) used to panic
// inside the FDR selector, a NaN FDRAlpha or a NaN/+Inf ThresholdScale
// silently pruned every edge, and a NaN FixedThreshold pruned every edge on
// the dense engine and none on the sparse one.
func TestInferRejectsBadThresholds(t *testing.T) {
	sm := randomStatus(20, 6, 1)
	inc := NewIncrementalCounts(sm.N(), false)
	for p := 0; p < sm.Beta(); p++ {
		var row []int
		for v := 0; v < sm.N(); v++ {
			if sm.Get(p, v) {
				row = append(row, v)
			}
		}
		if err := inc.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"FDRAlpha 1", Options{FDRAlpha: 1}},
		{"FDRAlpha 1.5", Options{FDRAlpha: 1.5}},
		{"FDRAlpha negative", Options{FDRAlpha: -0.1}},
		{"FDRAlpha NaN", Options{FDRAlpha: math.NaN()}},
		{"FDR method FDRAlpha NaN", Options{ThresholdMethod: ThresholdFDR, FDRAlpha: math.NaN()}},
		{"ThresholdScale NaN", Options{ThresholdScale: math.NaN()}},
		{"ThresholdScale +Inf", Options{ThresholdScale: math.Inf(1)}},
		{"FixedThreshold NaN", Options{FixedThreshold: &nan}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, sparse := range []bool{false, true} {
				opt := tc.opt
				opt.Sparse = sparse
				if _, err := Infer(sm, opt); err == nil {
					t.Fatalf("Infer (sparse=%v) accepted %+v", sparse, tc.opt)
				}
			}
			if _, err := InferFromSource(context.Background(), sm, inc.Source(), tc.opt); err == nil {
				t.Fatalf("InferFromSource accepted %+v", tc.opt)
			}
		})
	}
}

// TestFixedThresholdInfEnginesAgree: ±Inf stay legal fixed thresholds, and
// the dense and sparse engines infer the same parents under them (+Inf
// keeps no candidate, -Inf every one, up to MaxCandidates).
func TestFixedThresholdInfEnginesAgree(t *testing.T) {
	net, err := lfr.GenerateBenchmark(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	sm := simulateOn(t, net.Graph, 0.3, 0.15, 200, 13)
	for _, tau := range []float64{math.Inf(1), math.Inf(-1)} {
		dense, err := Infer(sm, Options{FixedThreshold: &tau})
		if err != nil {
			t.Fatalf("dense, threshold %v: %v", tau, err)
		}
		sparse, err := Infer(sm, Options{FixedThreshold: &tau, Sparse: true})
		if err != nil {
			t.Fatalf("sparse, threshold %v: %v", tau, err)
		}
		if !reflect.DeepEqual(dense.Parents, sparse.Parents) || dense.Score != sparse.Score {
			t.Fatalf("threshold %v: dense infers %d edges (score %v), sparse %d (score %v)",
				tau, dense.Graph.NumEdges(), dense.Score, sparse.Graph.NumEdges(), sparse.Score)
		}
		if edges := dense.Graph.NumEdges(); (tau > 0) != (edges == 0) {
			t.Fatalf("threshold %v: %d edges inferred", tau, edges)
		}
	}
}

func TestInferDegenerateColumns(t *testing.T) {
	// Columns that are all-ones or all-zeros must not crash and must not
	// produce edges (their IMI with anything is 0).
	m := diffusion.NewStatusMatrix(50, 4)
	for p := 0; p < 50; p++ {
		m.Set(p, 0, true) // always infected
		// node 1 always uninfected
		m.Set(p, 2, p%2 == 0)
		m.Set(p, 3, p%2 == 0)
	}
	res, err := Infer(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Graph.Edges() {
		if e.From == 0 || e.To == 0 || e.From == 1 || e.To == 1 {
			t.Fatalf("degenerate column got an edge: %v", e)
		}
	}
}

func TestInferSingleNode(t *testing.T) {
	m := diffusion.NewStatusMatrix(10, 1)
	res, err := Infer(m, Options{})
	if err != nil {
		t.Fatalf("single-node inference failed: %v", err)
	}
	if res.Graph.NumEdges() != 0 {
		t.Fatal("single node cannot have edges")
	}
}

func TestInferThresholdOverrides(t *testing.T) {
	g := graph.Chain(10)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.35, 0.1, 800, 3)

	auto, err := Infer(sm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.AutoTau <= 0 {
		t.Fatalf("auto threshold = %v, want positive on structured data", auto.AutoTau)
	}
	scaled, err := Infer(sm, Options{ThresholdScale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Threshold <= auto.Threshold {
		t.Fatalf("scaled threshold %v not above auto %v", scaled.Threshold, auto.Threshold)
	}
	fixed := 0.99
	fres, err := Infer(sm, Options{FixedThreshold: &fixed})
	if err != nil {
		t.Fatal(err)
	}
	if fres.Threshold != 0.99 {
		t.Fatalf("fixed threshold not honored: %v", fres.Threshold)
	}
	if fres.Graph.NumEdges() != 0 {
		t.Fatalf("threshold 0.99 should prune everything, got %d edges", fres.Graph.NumEdges())
	}
}

func TestInferTraditionalMIStillWorks(t *testing.T) {
	g := graph.Chain(10)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.1, 1500, 4)
	res, err := Infer(sm, Options{TraditionalMI: true})
	if err != nil {
		t.Fatal(err)
	}
	prf := metrics.Score(g, res.Graph)
	if prf.F < 0.5 {
		t.Fatalf("traditional-MI mode F = %.3f, want something reasonable", prf.F)
	}
}

func TestInferMaxCandidatesCap(t *testing.T) {
	g := graph.Star(10)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.1, 1000, 5)
	res, err := Infer(sm, Options{MaxCandidates: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, parents := range res.Parents {
		if len(parents) > 2 {
			t.Fatalf("node %d has %d parents despite cap 2", i, len(parents))
		}
	}
}

func TestInferStaticVsAdaptiveGreedy(t *testing.T) {
	g := graph.Chain(10)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.1, 1500, 6)
	adaptive, err := Infer(sm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	static, err := Infer(sm, Options{StaticGreedy: true})
	if err != nil {
		t.Fatal(err)
	}
	fa := metrics.Score(g, adaptive.Graph).F
	fs := metrics.Score(g, static.Graph).F
	if fa < 0.6 {
		t.Fatalf("adaptive greedy F = %.3f", fa)
	}
	// The static variant trades precision for speed; it must still find a
	// substantial part of the structure.
	if fs < 0.3 {
		t.Fatalf("static greedy F = %.3f", fs)
	}
}

func TestInferScoreImprovesOverEmpty(t *testing.T) {
	g := graph.Chain(10)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.1, 1000, 7)
	res, err := Infer(sm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScorer(sm)
	empty := make([][]int, sm.N())
	if res.Score < s.TotalScore(empty) {
		t.Fatalf("inferred topology scores %v below empty topology %v", res.Score, s.TotalScore(empty))
	}
}

func TestInferDeterministic(t *testing.T) {
	g := graph.Chain(10)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.1, 500, 8)
	a, err := Infer(sm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Infer(sm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Graph.Equal(b.Graph) {
		t.Fatal("Infer not deterministic on identical input")
	}
}

func TestBackwardPrune(t *testing.T) {
	// Node 0 drives node 1 perfectly; node 2 is a noisy copy of node 0.
	// With parents {0, 2}, dropping 2 must not hurt the score, so the
	// backward pass removes it.
	m := diffusion.NewStatusMatrix(400, 3)
	rng := newTestRand(31)
	for p := 0; p < 400; p++ {
		x := rng.Intn(2) == 0
		m.Set(p, 0, x)
		m.Set(p, 1, x)
		y := x
		if rng.Float64() < 0.3 {
			y = !y
		}
		m.Set(p, 2, y)
	}
	s := NewScorer(m)
	pruned := backwardPrune(s, 1, []int{0, 2})
	if len(pruned) != 1 || pruned[0] != 0 {
		t.Fatalf("backwardPrune = %v, want [0]", pruned)
	}
	// Pruning an already-minimal set is a no-op.
	if got := backwardPrune(s, 1, []int{0}); len(got) != 1 || got[0] != 0 {
		t.Fatalf("minimal set changed: %v", got)
	}
	if got := backwardPrune(s, 1, nil); len(got) != 0 {
		t.Fatalf("empty set changed: %v", got)
	}
}

func TestInferBackwardPruneOption(t *testing.T) {
	g := graph.Chain(12)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.1, 1000, 33)
	plain, err := Infer(sm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Infer(sm, Options{BackwardPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Graph.NumEdges() > plain.Graph.NumEdges() {
		t.Fatalf("backward prune added edges: %d -> %d", plain.Graph.NumEdges(), pruned.Graph.NumEdges())
	}
	if pruned.Score < plain.Score-1e-9 {
		t.Fatalf("backward prune lowered the total score: %v -> %v", plain.Score, pruned.Score)
	}
}

func TestInferDirectedChainFindsSkeleton(t *testing.T) {
	// On a truly directed chain, status-only data cannot orient edges; the
	// expected behaviour is recovering the skeleton (possibly both
	// directions). Recall of the true edges should stay high.
	g := graph.Chain(10)
	sm := simulateOn(t, g, 0.5, 0.1, 2000, 9)
	res, err := Infer(sm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prf := metrics.Score(g, res.Graph)
	if prf.Recall < 0.6 {
		t.Fatalf("directed-chain recall = %.3f, want >= 0.6", prf.Recall)
	}
}
