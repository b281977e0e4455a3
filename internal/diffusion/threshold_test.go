package diffusion

import (
	"math/rand"
	"testing"

	"tends/internal/graph"
)

// simulateLTScenario runs the Linear Threshold model through the scenario
// engine and returns its observations.
func simulateLTScenario(ep *EdgeProbs, cfg Config, rng *rand.Rand) (*Result, error) {
	sr, err := SimulateScenario(ep, cfg, Scenario{Model: ModelLT}, rng)
	if err != nil {
		return nil, err
	}
	return sr.Result, nil
}

func TestSimulateLTBasics(t *testing.T) {
	g := graph.Chain(10)
	g.Symmetrize()
	ep := UniformEdgeProbs(g, 0.5)
	res, err := simulateLTScenario(ep, Config{Alpha: 0.1, Beta: 40}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Statuses.Beta() != 40 || res.Statuses.N() != 10 {
		t.Fatalf("dims %dx%d", res.Statuses.Beta(), res.Statuses.N())
	}
	for p, c := range res.Cascades {
		if len(c.Seeds) != 1 {
			t.Fatalf("seeds = %d", len(c.Seeds))
		}
		for _, inf := range c.Infections {
			if !res.Statuses.Get(p, inf.Node) {
				t.Fatal("infection missing from status matrix")
			}
			if inf.Parent != -1 && !g.HasEdge(inf.Parent, inf.Node) {
				t.Fatalf("LT infection across non-edge %d->%d", inf.Parent, inf.Node)
			}
		}
	}
}

func TestSimulateLTFullWeight(t *testing.T) {
	// A single parent with weight >= 1 always fires its child: a directed
	// chain with probability ~1 infects everything downstream of the seed.
	g := graph.Chain(6)
	ep := UniformEdgeProbs(g, 0.999999)
	res, err := simulateLTScenario(ep, Config{Alpha: 0.17, Beta: 30}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for p, c := range res.Cascades {
		seed := c.Seeds[0]
		for v := seed; v < 6; v++ {
			if !res.Statuses.Get(p, v) {
				t.Fatalf("process %d: downstream node %d not infected", p, v)
			}
		}
	}
}

func TestSimulateLTMonotoneInWeight(t *testing.T) {
	g := graph.BalancedTree(63, 2)
	count := func(p float64) int {
		ep := UniformEdgeProbs(g, p)
		res, err := simulateLTScenario(ep, Config{Alpha: 0.02, Beta: 150}, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for proc := 0; proc < 150; proc++ {
			for v := 0; v < 63; v++ {
				if res.Statuses.Get(proc, v) {
					total++
				}
			}
		}
		return total
	}
	if lo, hi := count(0.2), count(0.9); hi <= lo {
		t.Fatalf("LT infections not monotone in weight: %d vs %d", lo, hi)
	}
}

func TestSimulateLTDeterministic(t *testing.T) {
	g := graph.GNM(40, 160, rand.New(rand.NewSource(4)))
	run := func() *Result {
		ep := NewEdgeProbs(g, 0.4, 0.05, rand.New(rand.NewSource(5)))
		res, err := simulateLTScenario(ep, Config{Alpha: 0.1, Beta: 30}, rand.New(rand.NewSource(6)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for p := 0; p < 30; p++ {
		for v := 0; v < 40; v++ {
			if a.Statuses.Get(p, v) != b.Statuses.Get(p, v) {
				t.Fatalf("LT simulation not deterministic at (%d,%d)", p, v)
			}
		}
	}
}

func TestSimulateLTErrors(t *testing.T) {
	g := graph.Chain(4)
	ep := UniformEdgeProbs(g, 0.5)
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []Config{
		{Alpha: 0, Beta: 5},
		{Alpha: 1.2, Beta: 5},
		{Alpha: 0.5, Beta: 0},
	} {
		if _, err := simulateLTScenario(ep, cfg, rng); err != nil {
			continue
		}
		t.Fatalf("LT scenario %+v should fail", cfg)
	}
	empty := newEdgeProbs(graph.New(0))
	if _, err := simulateLTScenario(empty, Config{Alpha: 0.5, Beta: 1}, rng); err == nil {
		t.Fatal("empty network should fail")
	}
}
