package core

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/stats"
)

// denseIMI and sparseIMI build the pairwise engine by popcount and by the
// cascade walk, on a context that never ends, so neither build can fail.
func denseIMI(sm *diffusion.StatusMatrix, traditional bool, workers int) *SparseIMI {
	m, _ := buildSparse(context.Background(), NewScorer(sm), traditional, workers, popcountStep, nil)
	return m
}

func sparseIMI(sm *diffusion.StatusMatrix, traditional bool, workers int) *SparseIMI {
	s, _ := buildSparse(context.Background(), NewScorer(sm), traditional, workers, walkStep, nil)
	return s
}

func TestComputeIMIMatchesStats(t *testing.T) {
	m := randomStatus(50, 6, 21)
	imi := denseIMI(m, false, 0)
	mi := denseIMI(m, true, 0)
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
	imi := denseIMI(randomStatus(10, 3, 1), false, 0)
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
	imi := denseIMI(m, false, 0)
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
	imi := denseIMI(m, false, 0)
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

// naiveAndCount is the obvious reference implementation of andCount.
func naiveAndCount(a, b []uint64) int {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] & b[w])
	}
	return n
}

func randWords(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

func TestAndCountMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, words := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33} {
		for trial := 0; trial < 20; trial++ {
			a := randWords(rng, words)
			b := randWords(rng, words)
			if got, want := andCount(a, b), naiveAndCount(a, b); got != want {
				t.Fatalf("andCount(words=%d) = %d, want %d", words, got, want)
			}
		}
	}
}

func TestAndCountEdgeCases(t *testing.T) {
	if andCount(nil, nil) != 0 {
		t.Fatal("andCount(nil, nil) != 0")
	}
	a := []uint64{^uint64(0), ^uint64(0)}
	if got := andCount(a, a); got != 128 {
		t.Fatalf("all-ones andCount = %d, want 128", got)
	}
	// b longer than a: only len(a) words count.
	b := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	if got := andCount(a[:1], b); got != 64 {
		t.Fatalf("prefix andCount = %d, want 64", got)
	}
}

func BenchmarkAndCount8Words(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := randWords(rng, 8)
	y := randWords(rng, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		andCountSink += andCount(x, y)
	}
}

var andCountSink int
