package influence

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/graph"
)

func TestSpreadDeterministicStructure(t *testing.T) {
	// Chain with p≈1: seeding node 0 infects everything.
	g := graph.Chain(10)
	ep := diffusion.UniformEdgeProbs(g, 0.999999)
	ctx := context.Background()
	s, err := SpreadEst(ctx, ep, []int{0}, SpreadOptions{Samples: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-10) > 0.01 {
		t.Fatalf("spread from chain head = %v, want 10", s)
	}
	s, err = SpreadEst(ctx, ep, []int{9}, SpreadOptions{Samples: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 0.01 {
		t.Fatalf("spread from chain tail = %v, want 1", s)
	}
}

func TestSpreadMatchesClosedForm(t *testing.T) {
	// Chain 0→1→…→4 with probability p: expected spread from the head is
	// 1 + p + p² + p³ + p⁴ (the star's closed form is
	// TestSpreadEstMatchesClosedForm).
	g := graph.Chain(5)
	ep := diffusion.UniformEdgeProbs(g, 0.5)
	s, err := SpreadEst(context.Background(), ep, []int{0}, SpreadOptions{Samples: 40000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 0.5 + 0.25 + 0.125 + 0.0625
	if math.Abs(s-want) > 0.03 {
		t.Fatalf("chain-head spread = %v, want %v", s, want)
	}
}

func TestSpreadDuplicateSeeds(t *testing.T) {
	// A repeated seed is one seed: sample i draws the same coins from the
	// same stream either way, so the estimates are equal, not just close.
	g := graph.Chain(5)
	ep := diffusion.UniformEdgeProbs(g, 0.5)
	opt := SpreadOptions{Samples: 100, Seed: 3}
	dup, err := SpreadEst(context.Background(), ep, []int{2, 2, 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	single, err := SpreadEst(context.Background(), ep, []int{2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if dup != single {
		t.Fatalf("duplicate seeds mishandled: spread %v, single seed %v", dup, single)
	}
	if dup < 1 || dup > 3 {
		t.Fatalf("spread %v outside [1,3] for a seed two hops from the tail", dup)
	}
}

func TestSpreadErrors(t *testing.T) {
	g := graph.Chain(4)
	ep := diffusion.UniformEdgeProbs(g, 0.5)
	ctx := context.Background()
	if _, err := SpreadEst(ctx, ep, []int{0}, SpreadOptions{Samples: -1}); err == nil {
		t.Fatal("negative samples should fail")
	}
	if _, err := SpreadEst(ctx, ep, []int{7}, SpreadOptions{Samples: 10}); err == nil {
		t.Fatal("out-of-range seed should fail")
	}
	if _, err := SpreadEst(ctx, ep, []int{-1}, SpreadOptions{Samples: 10}); err == nil {
		t.Fatal("negative seed should fail")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := SpreadEst(cancelled, ep, []int{0}, SpreadOptions{Samples: 10}); err == nil {
		t.Fatal("cancelled context should fail")
	}
}

func TestGreedySeedsPicksTheHub(t *testing.T) {
	// Two stars: the bigger one must yield the first seed, the smaller one
	// the second, and the cumulative spread must grow with each pick.
	ep := diffusion.UniformEdgeProbs(twoStarGraph(), 0.9)
	seeds, spreads, err := CELFSeeds(context.Background(), ep, CELFOptions{K: 2, Samples: 400, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 2 || len(spreads) != 2 {
		t.Fatalf("seeds=%v spreads=%v", seeds, spreads)
	}
	if seeds[0] != 0 || seeds[1] != 10 {
		t.Fatalf("seeds = %v, want the big hub 0 then the small hub 10", seeds)
	}
	if spreads[1] <= spreads[0] {
		t.Fatalf("cumulative spread not increasing: %v", spreads)
	}
}

func TestGreedySeedsBudgetAndErrors(t *testing.T) {
	g := graph.Chain(5)
	ep := diffusion.UniformEdgeProbs(g, 0.5)
	ctx := context.Background()
	seeds, spreads, err := CELFSeeds(ctx, ep, CELFOptions{K: 100, Samples: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 5 || len(spreads) != 5 {
		t.Fatalf("budget beyond n should cap at n: seeds %v spreads %v", seeds, spreads)
	}
	if _, _, err := CELFSeeds(ctx, ep, CELFOptions{K: -1, Samples: 50}); err == nil {
		t.Fatal("negative budget should fail")
	}
	if _, _, err := CELFSeeds(ctx, ep, CELFOptions{K: 2, Samples: -1}); err == nil {
		t.Fatal("negative samples should fail")
	}
	zero, spreads, err := CELFSeeds(ctx, ep, CELFOptions{K: 0, Samples: 50})
	if err != nil || len(zero) != 0 || len(spreads) != 0 {
		t.Fatalf("zero budget: %v %v %v", zero, spreads, err)
	}
}

func TestGreedyBeatsRandomSeeds(t *testing.T) {
	// Both selectors must beat the average of five random seed sets, all
	// scored on the same Monte-Carlo streams.
	rng := rand.New(rand.NewSource(6))
	g := graph.PreferentialAttachment(60, 2, rng)
	ep := diffusion.UniformEdgeProbs(g, 0.3)
	ctx := context.Background()
	eval := SpreadOptions{Samples: 2000, Seed: 8}
	celf, _, err := CELFSeeds(ctx, ep, CELFOptions{K: 3, Samples: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ris, err := RISSeeds(ctx, ep, RISOptions{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	randSpread := 0.0
	for trial := 0; trial < 5; trial++ {
		random := rand.New(rand.NewSource(int64(9 + trial))).Perm(60)[:3]
		s, err := SpreadEst(ctx, ep, random, eval)
		if err != nil {
			t.Fatal(err)
		}
		randSpread += s
	}
	randSpread /= 5
	for name, seeds := range map[string][]int{"CELF": celf, "RIS": ris.Seeds} {
		s, err := SpreadEst(ctx, ep, seeds, eval)
		if err != nil {
			t.Fatal(err)
		}
		if s < randSpread {
			t.Fatalf("%s spread %v below random %v", name, s, randSpread)
		}
	}
}
