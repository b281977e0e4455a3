package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tends/internal/graph"
)

func TestScorePerfect(t *testing.T) {
	truth := graph.Chain(5)
	r := Score(truth, truth.Clone())
	if r.Precision != 1 || r.Recall != 1 || r.F != 1 {
		t.Fatalf("perfect inference scored %+v", r)
	}
	if r.TP != 4 || r.FP != 0 || r.FN != 0 {
		t.Fatalf("counts wrong: %+v", r)
	}
}

func TestScoreEmptyInference(t *testing.T) {
	truth := graph.Chain(5)
	r := Score(truth, graph.New(5))
	if r.Precision != 0 || r.Recall != 0 || r.F != 0 {
		t.Fatalf("empty inference scored %+v", r)
	}
	if r.FN != 4 {
		t.Fatalf("FN = %d, want 4", r.FN)
	}
}

func TestScoreDirectionality(t *testing.T) {
	truth := graph.New(2)
	truth.AddEdge(0, 1)
	rev := graph.New(2)
	rev.AddEdge(1, 0)
	r := Score(truth, rev)
	if r.TP != 0 || r.FP != 1 || r.FN != 1 {
		t.Fatalf("reversed edge should not count: %+v", r)
	}
}

func TestScorePartial(t *testing.T) {
	truth := graph.Chain(4) // edges (0,1),(1,2),(2,3)
	inf := graph.New(4)
	inf.AddEdge(0, 1)
	inf.AddEdge(3, 0) // false positive
	r := Score(truth, inf)
	if r.TP != 1 || r.FP != 1 || r.FN != 2 {
		t.Fatalf("counts: %+v", r)
	}
	if math.Abs(r.Precision-0.5) > 1e-12 {
		t.Fatalf("precision = %v", r.Precision)
	}
	if math.Abs(r.Recall-1.0/3) > 1e-12 {
		t.Fatalf("recall = %v", r.Recall)
	}
	wantF := 2 * 0.5 * (1.0 / 3) / (0.5 + 1.0/3)
	if math.Abs(r.F-wantF) > 1e-12 {
		t.Fatalf("F = %v, want %v", r.F, wantF)
	}
}

func TestScoreEdgesDeduplicates(t *testing.T) {
	truth := graph.Chain(3)
	r := ScoreEdges(truth, []graph.Edge{{From: 0, To: 1}, {From: 0, To: 1}})
	if r.TP != 1 || r.FP != 0 {
		t.Fatalf("duplicates not collapsed: %+v", r)
	}
}

func TestBestFPicksOptimalThreshold(t *testing.T) {
	truth := graph.New(4)
	truth.AddEdge(0, 1)
	truth.AddEdge(1, 2)
	preds := []WeightedEdge{
		{Edge: graph.Edge{From: 0, To: 1}, Weight: 0.9},
		{Edge: graph.Edge{From: 1, To: 2}, Weight: 0.8},
		{Edge: graph.Edge{From: 2, To: 3}, Weight: 0.1}, // wrong, low weight
	}
	best, tau := BestF(truth, preds)
	if best.F != 1 {
		t.Fatalf("best F = %v, want 1", best.F)
	}
	if tau <= 0.1 || tau >= 0.8 {
		t.Fatalf("threshold = %v, want inside (0.1, 0.8)", tau)
	}
}

func TestBestFEmpty(t *testing.T) {
	truth := graph.Chain(3)
	best, _ := BestF(truth, nil)
	if best.F != 0 || best.FN != 2 {
		t.Fatalf("BestF(nil) = %+v", best)
	}
}

func TestBestFTiedWeights(t *testing.T) {
	truth := graph.New(3)
	truth.AddEdge(0, 1)
	preds := []WeightedEdge{
		{Edge: graph.Edge{From: 0, To: 1}, Weight: 0.5},
		{Edge: graph.Edge{From: 1, To: 2}, Weight: 0.5},
	}
	best, _ := BestF(truth, preds)
	// Both share a weight, so the only nonempty cut keeps both: P=0.5, R=1.
	wantF := 2 * 0.5 * 1 / 1.5
	if math.Abs(best.F-wantF) > 1e-12 {
		t.Fatalf("best F = %v, want %v", best.F, wantF)
	}
}

// A prediction listed twice counts once, at its strongest weight: with the
// duplicate counted again, recall reached 1.5 and FN went negative.
func TestBestFDeduplicates(t *testing.T) {
	truth := graph.New(3)
	truth.AddEdge(0, 1)
	truth.AddEdge(1, 2)
	preds := []WeightedEdge{
		{Edge: graph.Edge{From: 0, To: 1}, Weight: 0.9},
		{Edge: graph.Edge{From: 0, To: 1}, Weight: 0.8},
		{Edge: graph.Edge{From: 1, To: 2}, Weight: 0.1},
	}
	best, tau := BestF(truth, preds)
	if best.TP != 2 || best.FP != 0 || best.FN != 0 || best.Recall != 1 || best.F != 1 {
		t.Fatalf("BestF = %+v, want TP 2, FP 0, FN 0, recall 1, F 1", best)
	}
	if tau >= 0.1 {
		t.Fatalf("threshold = %v, want below 0.1 so that 1→2 is kept", tau)
	}
}

func TestTopK(t *testing.T) {
	truth := graph.New(4)
	truth.AddEdge(0, 1)
	truth.AddEdge(1, 2)
	preds := []WeightedEdge{
		{Edge: graph.Edge{From: 0, To: 1}, Weight: 3},
		{Edge: graph.Edge{From: 2, To: 3}, Weight: 2},
		{Edge: graph.Edge{From: 1, To: 2}, Weight: 1},
	}
	r := TopK(truth, preds, 2)
	if r.TP != 1 || r.FP != 1 || r.FN != 1 {
		t.Fatalf("TopK(2) = %+v", r)
	}
	if r = TopK(truth, preds, 10); r.TP != 2 {
		t.Fatalf("TopK larger than preds = %+v", r)
	}
}

// Property: F is always within [0,1], and F=1 iff inference equals truth
// (for nonempty truth).
func TestScoreProperty(t *testing.T) {
	f := func(truthPairs, infPairs []uint16) bool {
		const n = 10
		truth := graph.New(n)
		for _, p := range truthPairs {
			truth.AddEdge(int(p>>8)%n, int(p&0xff)%n)
		}
		inf := graph.New(n)
		for _, p := range infPairs {
			inf.AddEdge(int(p>>8)%n, int(p&0xff)%n)
		}
		r := Score(truth, inf)
		if r.F < 0 || r.F > 1+1e-12 || r.Precision < 0 || r.Precision > 1 || r.Recall < 0 || r.Recall > 1 {
			return false
		}
		if truth.NumEdges() > 0 && truth.Equal(inf) && r.F != 1 {
			return false
		}
		if r.F == 1 && !truth.Equal(inf) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: BestF equals a brute-force scan over every possible threshold.
func TestBestFMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		const n = 7
		truth := graph.GNM(n, 9, rng)
		var preds []WeightedEdge
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.5 {
					// Quantized weights force ties.
					w := float64(rng.Intn(5)) / 4
					preds = append(preds, WeightedEdge{Edge: graph.Edge{From: u, To: v}, Weight: w})
				}
			}
		}
		best, _ := BestF(truth, preds)
		// Brute force: for every candidate threshold (midpoints between
		// distinct weights and below the minimum), score the kept set.
		weights := map[float64]bool{}
		for _, we := range preds {
			weights[we.Weight] = true
		}
		bruteBest := 0.0
		for w := range weights {
			tau := w - 1e-9 // keep everything with weight >= w
			var kept []graph.Edge
			for _, we := range preds {
				if we.Weight > tau {
					kept = append(kept, we.Edge)
				}
			}
			if f := ScoreEdges(truth, kept).F; f > bruteBest {
				bruteBest = f
			}
		}
		if math.Abs(best.F-bruteBest) > 1e-9 {
			t.Fatalf("trial %d: BestF = %v, brute force = %v", trial, best.F, bruteBest)
		}
	}
}

// Property: BestF dominates any fixed top-k cut of the same predictions.
func TestBestFDominatesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		const n = 8
		truth := graph.GNM(n, 12, rng)
		var preds []WeightedEdge
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.4 {
					preds = append(preds, WeightedEdge{Edge: graph.Edge{From: u, To: v}, Weight: rng.Float64()})
				}
			}
		}
		best, _ := BestF(truth, preds)
		for k := 1; k <= len(preds); k++ {
			if r := TopK(truth, preds, k); r.F > best.F+1e-9 {
				t.Fatalf("TopK(%d).F=%v beats BestF=%v", k, r.F, best.F)
			}
		}
	}
}
