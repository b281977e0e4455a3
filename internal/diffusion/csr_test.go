package diffusion

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tends/internal/graph"
	"tends/internal/stats"
)

// mapRunProcess is the pre-CSR simulator kept as a test oracle: per-edge
// probabilities in a map keyed by edge, adjacency walked through
// graph.Children, seeds drawn with the allocating rng.Perm. The CSR
// simulator must reproduce its RNG draw sequence — and therefore its
// output — byte for byte on a fixed seed.
func mapRunProcess(g *graph.Directed, probs map[graph.Edge]float64, numSeeds int, rng *rand.Rand) Cascade {
	n := g.NumNodes()
	seeds := rng.Perm(n)[:numSeeds]
	infected := make([]bool, n)
	var cascade Cascade
	cascade.Seeds = append([]int(nil), seeds...)

	frontier := make([]int, 0, numSeeds)
	times := make([]float64, n)
	for _, s := range seeds {
		infected[s] = true
		cascade.Infections = append(cascade.Infections, Infection{Node: s, Round: 0, Time: 0, Parent: -1})
		frontier = append(frontier, s)
	}
	round := 0
	for len(frontier) > 0 {
		round++
		var next []int
		for _, u := range frontier {
			for _, v := range g.Children(u) {
				if infected[v] {
					continue
				}
				if rng.Float64() < probs[graph.Edge{From: u, To: v}] {
					infected[v] = true
					t := times[u] + rng.ExpFloat64()
					times[v] = t
					cascade.Infections = append(cascade.Infections, Infection{Node: v, Round: round, Time: t, Parent: u})
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return cascade
}

// mapSimulate mirrors Simulate on top of mapRunProcess, including the
// probability draw order (g.Edges() order, as NewEdgeProbs used to draw).
func mapSimulate(t *testing.T, g *graph.Directed, mu float64, cfg Config, seed int64) *Result {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	probs := make(map[graph.Edge]float64, g.NumEdges())
	for _, e := range g.Edges() {
		probs[e] = stats.TruncatedGaussian(rng, mu, 0.05, 0, 1)
	}
	n := g.NumNodes()
	numSeeds := int(cfg.Alpha*float64(n) + 0.5)
	if numSeeds < 1 {
		numSeeds = 1
	}
	if numSeeds > n {
		numSeeds = n
	}
	res := &Result{N: n, Statuses: NewStatusMatrix(cfg.Beta, n), Cascades: make([]Cascade, cfg.Beta)}
	for proc := 0; proc < cfg.Beta; proc++ {
		cascade := mapRunProcess(g, probs, numSeeds, rng)
		res.Cascades[proc] = cascade
		for _, inf := range cascade.Infections {
			res.Statuses.Set(proc, inf.Node, true)
		}
	}
	return res
}

// TestSimulateMatchesMapReference locks the CSR simulator to the historical
// map-based results: statuses, full cascade traces, and continuous
// timestamps must be identical on fixed seeds, proving the refactor changed
// neither the RNG draw order nor any output byte.
func TestSimulateMatchesMapReference(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Directed
		mu   float64
		cfg  Config
		seed int64
	}{
		{"sparse", graph.GNM(60, 240, rand.New(rand.NewSource(1))), 0.3, Config{Alpha: 0.15, Beta: 40}, 101},
		{"dense", graph.GNM(50, 1200, rand.New(rand.NewSource(2))), 0.1, Config{Alpha: 0.1, Beta: 30}, 202},
		{"chain", chainSym(40), 0.4, Config{Alpha: 0.1, Beta: 50}, 303},
		// n ≫ seeds: almost every seed draw lands in permPrefix's tail.
		{"tail", graph.GNM(3000, 9000, rand.New(rand.NewSource(4))), 0.2, Config{Alpha: 0.001, Beta: 20}, 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			ep := NewEdgeProbs(tc.g, tc.mu, 0.05, rng)
			got, err := Simulate(ep, tc.cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			want := mapSimulate(t, tc.g, tc.mu, tc.cfg, tc.seed)
			if got.N != want.N || len(got.Cascades) != len(want.Cascades) {
				t.Fatalf("shape mismatch: N=%d/%d cascades=%d/%d", got.N, want.N, len(got.Cascades), len(want.Cascades))
			}
			for p := 0; p < tc.cfg.Beta; p++ {
				for v := 0; v < got.N; v++ {
					if got.Statuses.Get(p, v) != want.Statuses.Get(p, v) {
						t.Fatalf("status (%d,%d) differs", p, v)
					}
				}
				gc, wc := got.Cascades[p], want.Cascades[p]
				if len(gc.Seeds) != len(wc.Seeds) || len(gc.Infections) != len(wc.Infections) {
					t.Fatalf("process %d: trace shape differs", p)
				}
				for k := range gc.Seeds {
					if gc.Seeds[k] != wc.Seeds[k] {
						t.Fatalf("process %d: seed %d differs: %d vs %d", p, k, gc.Seeds[k], wc.Seeds[k])
					}
				}
				for k := range gc.Infections {
					gi, wi := gc.Infections[k], wc.Infections[k]
					if gi.Node != wi.Node || gi.Round != wi.Round || gi.Parent != wi.Parent {
						t.Fatalf("process %d infection %d differs: %+v vs %+v", p, k, gi, wi)
					}
					// Timestamps must be bit-identical, not approximately equal.
					if math.Float64bits(gi.Time) != math.Float64bits(wi.Time) {
						t.Fatalf("process %d infection %d: time %v vs %v", p, k, gi.Time, wi.Time)
					}
				}
			}
		})
	}
}

// TestEdgeProbsCSRMatchesEdges checks the CSR layout itself: every edge of
// the graph resolves through Prob to the probability drawn for it in
// g.Edges() order, and non-edges (including out-of-range nodes) resolve
// to 0.
func TestEdgeProbsCSRMatchesEdges(t *testing.T) {
	g := graph.GNM(40, 300, rand.New(rand.NewSource(3)))
	rng := rand.New(rand.NewSource(4))
	ep := NewEdgeProbs(g, 0.3, 0.05, rng)
	ref := rand.New(rand.NewSource(4))
	for _, e := range g.Edges() {
		want := stats.TruncatedGaussian(ref, 0.3, 0.05, 0, 1)
		if got := ep.Prob(e.From, e.To); got != want {
			t.Fatalf("edge %v: Prob=%v, want draw %v", e, got, want)
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			if !g.HasEdge(u, v) && ep.Prob(u, v) != 0 {
				t.Fatalf("non-edge (%d,%d) has probability %v", u, v, ep.Prob(u, v))
			}
		}
	}
	if ep.Prob(-1, 0) != 0 || ep.Prob(g.NumNodes(), 0) != 0 {
		t.Fatal("out-of-range source should have probability 0")
	}
}

// TestEdgeProbsFromMapChecks pins the map constructors' checks and
// messages: a missing edge, a probability outside (0,1), and a key that is
// no edge are errors, and ClampedEdgeProbs equals clamping every value into
// [floor, 1−floor] and then calling EdgeProbsFromMap, value for value.
func TestEdgeProbsFromMapChecks(t *testing.T) {
	g := graph.GNM(30, 120, rand.New(rand.NewSource(8)))
	rng := rand.New(rand.NewSource(9))
	probs := make(map[graph.Edge]float64)
	for _, e := range g.Edges() {
		probs[e] = []float64{0, 1, 1e-6, 1 - 1e-6, rng.Float64()}[rng.Intn(5)]
	}
	first := g.Edges()[0]
	for _, tc := range []struct {
		name string
		edit func(map[graph.Edge]float64)
		want string
	}{
		{"missing", func(m map[graph.Edge]float64) { delete(m, first) }, "diffusion: missing probability for edge " + fmt.Sprint(first)},
		{"zero", func(m map[graph.Edge]float64) { m[first] = 0 }, fmt.Sprintf("diffusion: probability 0 for edge %v outside (0,1)", first)},
		{"one", func(m map[graph.Edge]float64) { m[first] = 1 }, fmt.Sprintf("diffusion: probability 1 for edge %v outside (0,1)", first)},
		{"non-edge", func(m map[graph.Edge]float64) { m[nonEdge(g)] = 0.5 }, "diffusion: probability given for non-edge " + fmt.Sprint(nonEdge(g))},
	} {
		m := make(map[graph.Edge]float64, len(probs))
		for e := range probs {
			m[e] = 0.5
		}
		tc.edit(m)
		if _, err := EdgeProbsFromMap(g, m); err == nil || err.Error() != tc.want {
			t.Fatalf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
	for _, floor := range []float64{1e-4, 0.01, 0.3, 0.5, 0.7} {
		clamped := make(map[graph.Edge]float64, len(probs))
		for e, p := range probs {
			if p < floor {
				p = floor
			}
			if p > 1-floor {
				p = 1 - floor
			}
			clamped[e] = p
		}
		want, err := EdgeProbsFromMap(g, clamped)
		if err != nil {
			t.Fatalf("floor %v: reference: %v", floor, err)
		}
		got, err := ClampedEdgeProbs(g, probs, floor)
		if err != nil {
			t.Fatalf("floor %v: %v", floor, err)
		}
		for _, e := range g.Edges() {
			if got.Prob(e.From, e.To) != want.Prob(e.From, e.To) {
				t.Fatalf("floor %v edge %v: clamped %v, reference %v", floor, e, got.Prob(e.From, e.To), want.Prob(e.From, e.To))
			}
		}
		probs[nonEdge(g)] = 0.5
		if _, err := ClampedEdgeProbs(g, probs, floor); err == nil {
			t.Fatalf("floor %v: a non-edge key was accepted", floor)
		}
		delete(probs, nonEdge(g))
	}
}

// nonEdge returns the first pair (u, v), u ≠ v, that is no edge of g.
func nonEdge(g *graph.Directed) graph.Edge {
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			if u != v && !g.HasEdge(u, v) {
				return graph.Edge{From: u, To: v}
			}
		}
	}
	panic("complete graph")
}

func chainSym(n int) *graph.Directed {
	g := graph.Chain(n)
	g.Symmetrize()
	return g
}
