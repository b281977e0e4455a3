package core

import (
	"context"
	"math"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/stats"
)

// denseIMI and sparseIMI build the two pairwise engines on a context that
// never ends, so neither build can fail.
func denseIMI(sm *diffusion.StatusMatrix, traditional bool, workers int) *IMIMatrix {
	m, _ := ComputeIMIContext(context.Background(), sm, traditional, workers)
	return m
}

func sparseIMI(sm *diffusion.StatusMatrix, traditional bool, workers int) *SparseIMI {
	s, _ := ComputeSparseIMIContext(context.Background(), sm, traditional, workers)
	return s
}

func TestTriIndex(t *testing.T) {
	n := 5
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			idx := triIndex(n, i, j)
			if idx < 0 || idx >= n*(n-1)/2 {
				t.Fatalf("triIndex(%d,%d) = %d out of range", i, j, idx)
			}
			if seen[idx] {
				t.Fatalf("triIndex collision at (%d,%d)", i, j)
			}
			seen[idx] = true
			if triIndex(n, j, i) != idx {
				t.Fatalf("triIndex not symmetric at (%d,%d)", i, j)
			}
		}
	}
	if len(seen) != n*(n-1)/2 {
		t.Fatalf("covered %d indices, want %d", len(seen), n*(n-1)/2)
	}
}

func TestComputeIMIMatchesStats(t *testing.T) {
	m := randomStatus(50, 6, 21)
	imi := ComputeIMI(m, false)
	mi := ComputeIMI(m, true)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			var c stats.Contingency2x2
			c.N = m.JointCounts(i, j)
			if got, want := imi.At(i, j), c.InfectionMI(); math.Abs(got-want) > 1e-12 {
				t.Fatalf("IMI(%d,%d) = %v, want %v", i, j, got, want)
			}
			if got, want := mi.At(i, j), c.MutualInformation(); math.Abs(got-want) > 1e-12 {
				t.Fatalf("MI(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestIMIAtPanicsOnDiagonal(t *testing.T) {
	imi := ComputeIMI(randomStatus(10, 3, 1), false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for At(i,i)")
		}
	}()
	imi.At(2, 2)
}

func TestCandidates(t *testing.T) {
	// Node 1 copies node 0; node 2 is independent noise.
	m := diffusion.NewStatusMatrix(200, 3)
	for p := 0; p < 200; p++ {
		v := p%2 == 0
		m.Set(p, 0, v)
		m.Set(p, 1, v)
		m.Set(p, 2, p%3 == 0)
	}
	imi := ComputeIMI(m, false)
	cands := imi.Candidates(0, 0.1)
	if len(cands) != 1 || cands[0] != 1 {
		t.Fatalf("Candidates(0) = %v, want [1]", cands)
	}
	// With a sky-high threshold nothing survives.
	if c := imi.Candidates(0, 10); len(c) != 0 {
		t.Fatalf("Candidates with huge tau = %v, want empty", c)
	}
}

func TestSelectThresholdSeparates(t *testing.T) {
	// Three tight pairs plus noise nodes: the K-means threshold should sit
	// below the pair IMIs and above (or at) the noise IMIs.
	m := diffusion.NewStatusMatrix(400, 8)
	rng := newTestRand(31)
	for p := 0; p < 400; p++ {
		for pair := 0; pair < 3; pair++ {
			v := rng.Intn(2) == 0
			m.Set(p, 2*pair, v)
			w := v
			if rng.Float64() < 0.1 {
				w = !w
			}
			m.Set(p, 2*pair+1, w)
		}
		m.Set(p, 6, rng.Intn(2) == 0)
		m.Set(p, 7, rng.Intn(2) == 0)
	}
	imi := ComputeIMI(m, false)
	tau := SelectThreshold(imi)
	for pair := 0; pair < 3; pair++ {
		if v := imi.At(2*pair, 2*pair+1); v <= tau {
			t.Fatalf("pair %d IMI %v not above threshold %v", pair, v, tau)
		}
	}
	if v := imi.At(6, 7); v > tau {
		t.Fatalf("noise IMI %v above threshold %v", v, tau)
	}
}
