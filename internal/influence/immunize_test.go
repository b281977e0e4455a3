package influence

import (
	"context"
	"math/rand"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/graph"
)

func TestSpreadWithBlocked(t *testing.T) {
	// Chain with p≈1 seeded at its head: blocking the middle node stops the
	// cascade there, and a blocked node never transmits even when it would
	// be reached.
	g := graph.Chain(9)
	ep := diffusion.UniformEdgeProbs(g, 0.999999)
	sc := newMCScratch(9)
	coin := func() float64 { return 0 }
	if open := oneCascade(ep, []int{0}, nil, coin, sc); open != 9 {
		t.Fatalf("open chain infected %d, want 9", open)
	}
	blocked := make([]bool, 9)
	blocked[4] = true
	if cut := oneCascade(ep, []int{0}, blocked, coin, sc); cut != 4 {
		t.Fatalf("chain blocked at 4 infected %d, want 4", cut)
	}
	// The scratch is clean again: the same cascade reproduces.
	if again := oneCascade(ep, []int{0}, blocked, coin, sc); again != 4 {
		t.Fatalf("rerun infected %d, want 4", again)
	}
}

func TestSpreadWithBlockedEverything(t *testing.T) {
	// Immunizing every node leaves no source: the last spread is 0.
	g := graph.Chain(3)
	ep := diffusion.UniformEdgeProbs(g, 0.5)
	blocked, spreads, err := GreedyImmunizeOpt(context.Background(), ep, ImmunizeOptions{K: 3, NumSeeds: 1, Samples: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocked) != 3 || len(spreads) != 3 {
		t.Fatalf("blocked %v spreads %v, want all 3 nodes", blocked, spreads)
	}
	if spreads[2] != 0 {
		t.Fatalf("all blocked should give spread 0, got %v", spreads)
	}
}

func TestSpreadWithBlockedErrors(t *testing.T) {
	g := graph.Chain(4)
	ep := diffusion.UniformEdgeProbs(g, 0.5)
	ctx := context.Background()
	if _, _, err := GreedyImmunizeOpt(ctx, ep, ImmunizeOptions{K: 1, NumSeeds: 1, Samples: -1}); err == nil {
		t.Fatal("negative samples should fail")
	}
	if _, _, err := GreedyImmunizeOpt(ctx, ep, ImmunizeOptions{K: 1, NumSeeds: 0, Samples: 10}); err == nil {
		t.Fatal("NumSeeds=0 should fail")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := GreedyImmunizeOpt(cancelled, ep, ImmunizeOptions{K: 1, NumSeeds: 1, Samples: 10}); err == nil {
		t.Fatal("cancelled context should fail")
	}
}

func TestGreedyImmunizePicksTheHub(t *testing.T) {
	// A star hub is the single most effective node to immunize.
	g := graph.Star(10)
	g.Symmetrize()
	ep := diffusion.UniformEdgeProbs(g, 0.9)
	blocked, spreads, err := GreedyImmunizeOpt(context.Background(), ep, ImmunizeOptions{K: 1, NumSeeds: 2, Samples: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocked) != 1 || blocked[0] != 0 {
		t.Fatalf("immunized %v, want the hub [0]", blocked)
	}
	if len(spreads) != 1 || spreads[0] <= 0 {
		t.Fatalf("spreads = %v", spreads)
	}
}

func TestGreedyImmunizeReducesSpreadMonotonically(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.PreferentialAttachment(30, 2, rng)
	ep := diffusion.UniformEdgeProbs(g, 0.5)
	blocked, spreads, err := GreedyImmunizeOpt(context.Background(), ep, ImmunizeOptions{K: 4, NumSeeds: 3, Samples: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocked) != 4 {
		t.Fatalf("blocked = %v", blocked)
	}
	for i := 1; i < len(spreads); i++ {
		// Estimated spread after i+1 immunizations should not exceed the
		// previous step by more than Monte Carlo noise.
		if spreads[i] > spreads[i-1]+1.0 {
			t.Fatalf("spread increased after immunization: %v", spreads)
		}
	}
}

func TestGreedyImmunizeBudget(t *testing.T) {
	g := graph.Chain(5)
	ep := diffusion.UniformEdgeProbs(g, 0.5)
	ctx := context.Background()
	blocked, _, err := GreedyImmunizeOpt(ctx, ep, ImmunizeOptions{K: 100, NumSeeds: 1, Samples: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocked) != 5 {
		t.Fatalf("budget beyond n should cap at n, got %d", len(blocked))
	}
	if _, _, err := GreedyImmunizeOpt(ctx, ep, ImmunizeOptions{K: -1, NumSeeds: 1, Samples: 20}); err == nil {
		t.Fatal("negative budget should fail")
	}
}
