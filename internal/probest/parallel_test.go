package probest

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"tends/internal/graph"
	"tends/internal/obs"
)

// randomDAG builds a DAG-ordered random graph (edges only low→high id) so
// synthNoisyOR can sample it parents-first.
func randomDAG(t *testing.T, n int, p float64, seed int64) (*graph.Directed, map[graph.Edge]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	probs := make(map[graph.Edge]float64)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
				probs[graph.Edge{From: u, To: v}] = 0.1 + 0.8*rng.Float64()
			}
		}
	}
	return g, probs
}

func TestRunContextWorkersDeterminism(t *testing.T) {
	g, probs := randomDAG(t, 30, 0.15, 7)
	sm := synthNoisyOR(t, 1500, 0.2, probs, g, 8)
	var results []*Estimate
	for _, w := range []int{1, 4} {
		est, err := RunContext(context.Background(), sm, g, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, est)
	}
	if !reflect.DeepEqual(results[0].Probs, results[1].Probs) {
		t.Fatal("workers=1 and workers=4 produced different edge probabilities")
	}
	if !reflect.DeepEqual(results[0].Leaks, results[1].Leaks) {
		t.Fatal("workers=1 and workers=4 produced different leaks")
	}
	// And the parallel path must match the historical serial API.
	serial, err := Run(sm, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Probs, results[0].Probs) {
		t.Fatal("Run and RunContext disagree")
	}
}

func TestRunContextObsCounters(t *testing.T) {
	g, probs := randomDAG(t, 12, 0.2, 9)
	sm := synthNoisyOR(t, 400, 0.2, probs, g, 10)
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	est, err := RunContext(ctx, sm, g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if nodes := rec.Counter("probest/nodes").Value(); nodes != 12 {
		t.Fatalf("probest/nodes = %d, want 12", nodes)
	}
	iters := rec.Counter("probest/em_iters").Value()
	// Every node runs at least one EM sweep; the cap bounds the total.
	if iters < 12 || iters > int64(12*2000) {
		t.Fatalf("probest/em_iters = %d out of [12, 24000]", iters)
	}
	// Every node's positive cases are its infected processes.
	var infected int64
	for v := 0; v < 12; v++ {
		infected += int64(sm.CountInfected(v))
	}
	if cases := rec.Counter("probest/cases").Value(); cases != infected {
		t.Fatalf("probest/cases = %d, want %d", cases, infected)
	}
	if fit := rec.Snapshot().Timings["probest/fit"]; fit.Count != 1 {
		t.Fatalf("probest/fit span recorded %d times, want 1", fit.Count)
	}
	// The recorder is a side channel: the estimate is the same without it.
	plain, err := RunContext(context.Background(), sm, g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(est, plain) {
		t.Fatal("estimate differs with and without a recorder")
	}
}

func TestRunContextCancellation(t *testing.T) {
	g, probs := randomDAG(t, 10, 0.2, 11)
	sm := synthNoisyOR(t, 200, 0.2, probs, g, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, sm, g, Options{}); err == nil {
		t.Fatal("cancelled context should fail")
	}
}

func TestEstimateEdgeProbsClampsZeros(t *testing.T) {
	// Node 0 is never infected in a hand-built status matrix, so its out-
	// edge gets probability exactly 0 — EdgeProbs must clamp it into (0,1)
	// instead of tripping the CSR constructor's validation.
	g := graph.New(3)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	probs := map[graph.Edge]float64{
		{From: 0, To: 2}: 0.0, // as probest emits for evidence-free edges
		{From: 1, To: 2}: 0.6,
	}
	est := &Estimate{Probs: probs, Leaks: make([]float64, 3)}
	ep, err := est.EdgeProbs(g, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if p := ep.Prob(0, 2); p != 1e-4 {
		t.Fatalf("zero-evidence edge clamped to %v, want 1e-4", p)
	}
	if p := ep.Prob(1, 2); p != 0.6 {
		t.Fatalf("informative edge changed: %v, want 0.6", p)
	}
}
