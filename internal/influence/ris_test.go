package influence

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/obs"
)

func twoStarGraph() *graph.Directed {
	g := graph.New(16)
	for i := 1; i <= 9; i++ {
		g.AddEdge(0, i) // big star around 0
	}
	for i := 11; i <= 15; i++ {
		g.AddEdge(10, i) // small star around 10
	}
	return g
}

func TestRISSeedsPicksTheHubs(t *testing.T) {
	ep := diffusion.UniformEdgeProbs(twoStarGraph(), 0.9)
	res, err := RISSeeds(context.Background(), ep, RISOptions{K: 2, Seed: 1, MinSketches: 4096, MaxSketches: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 2 || res.Seeds[0] != 0 || res.Seeds[1] != 10 {
		t.Fatalf("seeds = %v, want [0 10]", res.Seeds)
	}
	if len(res.Spreads) != 2 || res.Spreads[1] <= res.Spreads[0] {
		t.Fatalf("cumulative spreads not increasing: %v", res.Spreads)
	}
	if res.Sketches != 4096 {
		t.Fatalf("sketches = %d, want 4096", res.Sketches)
	}
}

func TestRISChainOracle(t *testing.T) {
	// Chain 0→1→…→4 with p=0.5: from a uniformly random single seed the
	// sketch estimate of spread({0}) must match 1+p+p²+p³+p⁴.
	g := graph.Chain(5)
	ep := diffusion.UniformEdgeProbs(g, 0.5)
	res, err := RISSeeds(context.Background(), ep, RISOptions{K: 1, Seed: 2, MinSketches: 1 << 16, MaxSketches: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds[0] != 0 {
		t.Fatalf("best chain seed = %d, want head 0", res.Seeds[0])
	}
	want := 1 + 0.5 + 0.25 + 0.125 + 0.0625
	if math.Abs(res.Spreads[0]-want) > 0.05 {
		t.Fatalf("sketch spread estimate %v, want %v ± 0.05", res.Spreads[0], want)
	}
}

func TestRISAgreesWithMonteCarlo(t *testing.T) {
	// On a nontrivial network, the sketch engine's spread estimate for its
	// chosen seed set must statistically agree with forward Monte-Carlo.
	rng := rand.New(rand.NewSource(11))
	g := graph.PreferentialAttachment(120, 3, rng)
	ep := diffusion.UniformEdgeProbs(g, 0.15)
	res, err := RISSeeds(context.Background(), ep, RISOptions{K: 5, Seed: 3, MinSketches: 1 << 15, MaxSketches: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := SpreadEst(context.Background(), ep, res.Seeds, SpreadOptions{Samples: 40000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	est := res.Spreads[len(res.Spreads)-1]
	if rel := math.Abs(est-mc) / mc; rel > 0.05 {
		t.Fatalf("RIS estimate %v vs Monte-Carlo %v: relative gap %v > 5%%", est, mc, rel)
	}
	// And the chosen set should be near the CELF choice in quality.
	celfSeeds, _, err := CELFSeeds(context.Background(), ep, CELFOptions{K: 5, Samples: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	celfMC, err := SpreadEst(context.Background(), ep, celfSeeds, SpreadOptions{Samples: 40000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if mc < 0.95*celfMC {
		t.Fatalf("RIS seed quality %v below 95%% of CELF quality %v", mc, celfMC)
	}
}

func TestRISWorkersByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := graph.PreferentialAttachment(150, 2, rng)
	ep := diffusion.UniformEdgeProbs(g, 0.2)
	opt := RISOptions{K: 6, Seed: 9, MinSketches: 2048, MaxSketches: 1 << 14}
	var results []*RISResult
	for _, w := range []int{1, 4} {
		opt.Workers = w
		res, err := RISSeeds(context.Background(), ep, opt)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("workers=1 vs workers=4 differ:\n%+v\n%+v", results[0], results[1])
	}
}

func TestRISAdaptiveGrowth(t *testing.T) {
	// A loose pool floor with a tight stability tolerance must trigger at
	// least one doubling; the final pool stays within MaxSketches.
	rng := rand.New(rand.NewSource(13))
	g := graph.PreferentialAttachment(80, 2, rng)
	ep := diffusion.UniformEdgeProbs(g, 0.3)
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	res, err := RISSeeds(ctx, ep, RISOptions{K: 3, Seed: 14, MinSketches: 64, MaxSketches: 1 << 14, Eps: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sketches <= 64 {
		t.Fatalf("expected adaptive growth beyond 64 sketches, got %d", res.Sketches)
	}
	if rounds := rec.Counter("influence/ris_rounds").Value(); rounds < 2 {
		t.Fatalf("expected ≥2 sampling rounds, got %d", rounds)
	}
	if got := rec.Counter("influence/sketches").Value(); got != int64(res.Sketches) {
		t.Fatalf("sketches counter %d != pool size %d", got, res.Sketches)
	}
}

func TestRISObsAccounting(t *testing.T) {
	// With a fixed pool (one greedy pass), laziness must account exactly:
	// in every round r ≥ 1 each of the n−r surviving heap entries is either
	// re-evaluated or skipped, so evals + skipped == Σ_{r=1..k-1} (n−r).
	rng := rand.New(rand.NewSource(15))
	g := graph.PreferentialAttachment(60, 2, rng)
	ep := diffusion.UniformEdgeProbs(g, 0.25)
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	const n, k = 60, 5
	res, err := RISSeeds(ctx, ep, RISOptions{K: k, Seed: 16, MinSketches: 4096, MaxSketches: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("influence/sketches").Value(); got != int64(res.Sketches) {
		t.Fatalf("sketches counter %d != pool size %d", got, res.Sketches)
	}
	evals := rec.Counter("influence/coverage_evals").Value()
	skipped := rec.Counter("influence/lazy_skipped").Value()
	want := int64(0)
	for r := 1; r < k; r++ {
		want += int64(n - r)
	}
	if evals+skipped != want {
		t.Fatalf("evals %d + skipped %d = %d, want %d", evals, skipped, evals+skipped, want)
	}
	if skipped == 0 {
		t.Fatal("laziness never skipped a recomputation — lazy greedy is not lazy")
	}
}

func TestSpreadEstMatchesClosedForm(t *testing.T) {
	g := graph.Star(9)
	ep := diffusion.UniformEdgeProbs(g, 0.3)
	s, err := SpreadEst(context.Background(), ep, []int{0}, SpreadOptions{Samples: 30000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 8*0.3
	if math.Abs(s-want) > 0.1 {
		t.Fatalf("hub spread = %v, want %v", s, want)
	}
}

func TestSpreadEstWorkersByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := graph.PreferentialAttachment(100, 3, rng)
	ep := diffusion.UniformEdgeProbs(g, 0.2)
	opt := SpreadOptions{Samples: 5000, Seed: 23}
	opt.Workers = 1
	s1, err := SpreadEst(context.Background(), ep, []int{0, 1, 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	s4, err := SpreadEst(context.Background(), ep, []int{0, 1, 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s4 {
		t.Fatalf("workers=1 estimate %v != workers=4 estimate %v", s1, s4)
	}
}

func TestCELFSeedsDeterministicAndSane(t *testing.T) {
	ep := diffusion.UniformEdgeProbs(twoStarGraph(), 0.9)
	opt := CELFOptions{K: 2, Samples: 500, Seed: 31}
	opt.Workers = 1
	s1, sp1, err := CELFSeeds(context.Background(), ep, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	s4, sp4, err := CELFSeeds(context.Background(), ep, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s4) || !reflect.DeepEqual(sp1, sp4) {
		t.Fatalf("workers=1 (%v %v) != workers=4 (%v %v)", s1, sp1, s4, sp4)
	}
	if s1[0] != 0 || s1[1] != 10 {
		t.Fatalf("CELF seeds = %v, want [0 10]", s1)
	}
}

func TestGreedyImmunizeOptDeterministicAndSane(t *testing.T) {
	// Star with a strong hub: immunizing the hub is the clear optimum.
	g := graph.Star(8)
	ep := diffusion.UniformEdgeProbs(g, 0.8)
	opt := ImmunizeOptions{K: 1, NumSeeds: 2, Samples: 800, Seed: 41}
	opt.Workers = 1
	b1, sp1, err := GreedyImmunizeOpt(context.Background(), ep, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	b4, sp4, err := GreedyImmunizeOpt(context.Background(), ep, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b4) || !reflect.DeepEqual(sp1, sp4) {
		t.Fatalf("workers=1 (%v %v) != workers=4 (%v %v)", b1, sp1, b4, sp4)
	}
	if b1[0] != 0 {
		t.Fatalf("immunized %v, want hub 0", b1)
	}
}

func TestSpreadAllocRegression(t *testing.T) {
	// SpreadEst must allocate a bounded amount independent of samples: the
	// scratch is created once per worker and the BFS frontiers are reused.
	rng := rand.New(rand.NewSource(51))
	g := graph.PreferentialAttachment(200, 3, rng)
	ep := diffusion.UniformEdgeProbs(g, 0.3)
	measure := func(samples int) float64 {
		return testing.AllocsPerRun(10, func() {
			opt := SpreadOptions{Samples: samples, Workers: 1, Seed: 51}
			if _, err := SpreadEst(context.Background(), ep, []int{0, 1}, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := measure(2), measure(200)
	if many > few+2 {
		t.Fatalf("allocations grow with samples: %v at 2 samples vs %v at 200", few, many)
	}
	if many > 16 {
		t.Fatalf("SpreadEst allocates %v objects per call, want ≤16", many)
	}
}

func TestSpreadWithBlockedAllocBounded(t *testing.T) {
	// The immunization greedy's per-round buffers do not grow with samples.
	rng := rand.New(rand.NewSource(52))
	g := graph.PreferentialAttachment(120, 2, rng)
	ep := diffusion.UniformEdgeProbs(g, 0.3)
	measure := func(samples int) float64 {
		return testing.AllocsPerRun(10, func() {
			opt := ImmunizeOptions{K: 1, NumSeeds: 3, Samples: samples, Workers: 1, Seed: 52}
			if _, _, err := GreedyImmunizeOpt(context.Background(), ep, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := measure(2), measure(200)
	if many > few+2 {
		t.Fatalf("allocations grow with samples: %v at 2 samples vs %v at 200", few, many)
	}
}

// TestRISOptionValidation: a negative MinSketches used to panic in
// makeslice, and a negative or NaN Eps silently ran to the sketch cap.
func TestRISOptionValidation(t *testing.T) {
	g := graph.Chain(50)
	ep := diffusion.UniformEdgeProbs(g, 0.5)
	for _, tc := range []struct {
		name string
		opt  RISOptions
	}{
		{"negative Eps", RISOptions{K: 2, Eps: -1}},
		{"NaN Eps", RISOptions{K: 2, Eps: math.NaN()}},
		{"negative MinSketches", RISOptions{K: 2, MinSketches: -1}},
		{"negative MaxSketches", RISOptions{K: 2, MaxSketches: -8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if res, err := RISSeeds(context.Background(), ep, tc.opt); err == nil {
				t.Fatalf("RISSeeds accepted %+v (%d sketches)", tc.opt, res.Sketches)
			}
		})
	}
}

func TestRISEdgeCases(t *testing.T) {
	g := graph.Chain(4)
	ep := diffusion.UniformEdgeProbs(g, 0.5)
	ctx := context.Background()
	if _, err := RISSeeds(ctx, ep, RISOptions{K: -1}); err == nil {
		t.Fatal("negative budget should fail")
	}
	res, err := RISSeeds(ctx, ep, RISOptions{K: 0})
	if err != nil || len(res.Seeds) != 0 {
		t.Fatalf("zero budget: %+v %v", res, err)
	}
	res, err = RISSeeds(ctx, ep, RISOptions{K: 100, MinSketches: 512, MaxSketches: 512, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 4 {
		t.Fatalf("budget beyond n should cap at n: %v", res.Seeds)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := RISSeeds(cancelled, ep, RISOptions{K: 2, MinSketches: 256, MaxSketches: 256}); err == nil {
		t.Fatal("cancelled context should fail")
	}
}

// TestRISSketchesPinned gates RIS on its work rather than a clock: on a
// seeded graph whose pool doubles from 64 sketches until the greedy spread
// settles, a quarter of the way to its cap, the sketch count at 1 and 4
// workers is pinned exactly.
func TestRISSketchesPinned(t *testing.T) {
	const wantSketches = 16384
	rng := rand.New(rand.NewSource(13))
	g := graph.PreferentialAttachment(80, 2, rng)
	ep := diffusion.UniformEdgeProbs(g, 0.3)
	for _, workers := range []int{1, 4} {
		rec := obs.New()
		opt := RISOptions{K: 3, Seed: 14, MinSketches: 64, MaxSketches: 1 << 16, Eps: 0.02, Workers: workers}
		if _, err := RISSeeds(obs.With(context.Background(), rec), ep, opt); err != nil {
			t.Fatal(err)
		}
		if got := rec.Counter("influence/sketches").Value(); got != wantSketches {
			t.Fatalf("workers=%d: influence/sketches=%d, want %d", workers, got, wantSketches)
		}
	}
}
