package kernel

import (
	"math/bits"
	"math/rand"
	"testing"
)

// naiveAndCount is the obvious reference implementation.
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
			if got, want := AndCount(a, b), naiveAndCount(a, b); got != want {
				t.Fatalf("AndCount(words=%d) = %d, want %d", words, got, want)
			}
		}
	}
}

func TestAndCountEdgeCases(t *testing.T) {
	if AndCount(nil, nil) != 0 {
		t.Fatal("AndCount(nil, nil) != 0")
	}
	a := []uint64{^uint64(0), ^uint64(0)}
	if got := AndCount(a, a); got != 128 {
		t.Fatalf("all-ones AndCount = %d, want 128", got)
	}
	// b longer than a: only len(a) words count.
	b := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	if got := AndCount(a[:1], b); got != 64 {
		t.Fatalf("prefix AndCount = %d, want 64", got)
	}
}

func TestBlockAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, words := range []int{1, 3, 4, 8} {
		for _, rows := range []int{1, 2, 7, 8} {
			bases := randWords(rng, rows*words)
			probe := randWords(rng, words)
			dst := make([]int, rows)
			BlockAndCounts(dst, bases, probe, words)
			for r := 0; r < rows; r++ {
				want := naiveAndCount(bases[r*words:(r+1)*words], probe)
				if dst[r] != want {
					t.Fatalf("BlockAndCounts rows=%d words=%d row %d = %d, want %d", rows, words, r, dst[r], want)
				}
			}
		}
	}
}

func BenchmarkAndCount8Words(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := randWords(rng, 8)
	y := randWords(rng, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += AndCount(x, y)
	}
}

func BenchmarkBlockAndCounts(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const words, rows = 8, 8
	bases := randWords(rng, rows*words)
	probe := randWords(rng, words)
	dst := make([]int, rows)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BlockAndCounts(dst, bases, probe, words)
		sink += dst[0]
	}
}

var sink int
