package probest

import (
	"math"
	"math/rand"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/graph"
)

// synthNoisyOR samples statuses exactly from the noisy-OR model the
// estimator assumes, so recovery should be accurate.
func synthNoisyOR(t *testing.T, beta int, leak float64, edgeProbs map[graph.Edge]float64, g *graph.Directed, seed int64) *diffusion.StatusMatrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	m := diffusion.NewStatusMatrix(beta, n)
	// Nodes must be sampled parents-first; builders used in tests are
	// DAG-ordered with parents having smaller ids.
	for p := 0; p < beta; p++ {
		for v := 0; v < n; v++ {
			q := 1 - leak
			for _, u := range g.Parents(v) {
				if u >= v {
					t.Fatalf("test graph not DAG-ordered: parent %d of %d", u, v)
				}
				if m.Get(p, u) {
					q *= 1 - edgeProbs[graph.Edge{From: u, To: v}]
				}
			}
			if rng.Float64() < 1-q {
				m.Set(p, v, true)
			}
		}
	}
	return m
}

func TestRunRecoversKnownProbabilities(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	want := map[graph.Edge]float64{
		{From: 0, To: 2}: 0.7,
		{From: 1, To: 2}: 0.3,
		{From: 2, To: 3}: 0.5,
	}
	sm := synthNoisyOR(t, 6000, 0.2, want, g, 1)
	est, err := Run(sm, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for e, p := range want {
		got := est.Probs[e]
		if math.Abs(got-p) > 0.08 {
			t.Fatalf("edge %v: estimated %.3f, want %.3f", e, got, p)
		}
	}
	for v := 0; v < 4; v++ {
		if math.Abs(est.Leaks[v]-0.2) > 0.08 {
			t.Fatalf("node %d leak = %.3f, want 0.2", v, est.Leaks[v])
		}
	}
}

func TestRunOrdersEdgeStrengths(t *testing.T) {
	// Even with fewer samples, a strong edge must estimate above a weak one.
	g := graph.New(3)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	want := map[graph.Edge]float64{
		{From: 0, To: 2}: 0.8,
		{From: 1, To: 2}: 0.2,
	}
	sm := synthNoisyOR(t, 800, 0.3, want, g, 2)
	est, err := Run(sm, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	strong := est.Probs[graph.Edge{From: 0, To: 2}]
	weak := est.Probs[graph.Edge{From: 1, To: 2}]
	if strong <= weak {
		t.Fatalf("strength ordering lost: strong=%.3f weak=%.3f", strong, weak)
	}
}

func TestRunOnSimulatedDiffusion(t *testing.T) {
	// End to end against the IC simulator: estimates won't match per-contact
	// probabilities exactly (the noisy-OR reads final statuses), but edges
	// must get substantially higher probabilities than the leak floor.
	g := graph.Chain(8)
	rng := rand.New(rand.NewSource(3))
	ep := diffusion.UniformEdgeProbs(g, 0.6)
	res, err := diffusion.Simulate(ep, diffusion.Config{Alpha: 0.13, Beta: 2000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Run(res.Statuses, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if est.Probs[e] < 0.3 {
			t.Fatalf("edge %v estimated %.3f, expected clearly positive", e, est.Probs[e])
		}
	}
}

func TestRunNoParents(t *testing.T) {
	g := graph.New(2) // no edges: only leaks to estimate
	m := diffusion.NewStatusMatrix(100, 2)
	for p := 0; p < 100; p++ {
		m.Set(p, 0, p%4 == 0) // 25% base rate
	}
	est, err := Run(m, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Probs) != 0 {
		t.Fatalf("no edges but %d probabilities", len(est.Probs))
	}
	if math.Abs(est.Leaks[0]-0.25) > 0.05 {
		t.Fatalf("leak = %.3f, want ~0.25", est.Leaks[0])
	}
	if est.Leaks[1] > 0.05 {
		t.Fatalf("never-infected node leak = %.3f, want ~0", est.Leaks[1])
	}
}

func TestRunErrors(t *testing.T) {
	g := graph.Chain(3)
	if _, err := Run(diffusion.NewStatusMatrix(5, 4), g, Options{}); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
	if _, err := Run(diffusion.NewStatusMatrix(0, 3), g, Options{}); err == nil {
		t.Fatal("empty observations should fail")
	}
}
