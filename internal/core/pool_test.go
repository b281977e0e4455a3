package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestValueTallyFinish checks finish's radix sort against a sorted map of
// the same multiset: the positive values ascending and distinct with their
// counts, and the zero, total and maximum summaries. The value sets cover
// keys that differ in every byte and keys that share all but their lowest
// bytes, so both the pass skip and every pass's scatter run.
func TestValueTallyFinish(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := map[string]func() float64{
		"spread":   func() float64 { return rng.NormFloat64() * math.Exp(rng.NormFloat64()*20) },
		"close":    func() float64 { return 1 + float64(rng.Intn(5000))*0x1p-52 },
		"few":      func() float64 { return float64(rng.Intn(3)) },
		"negative": func() float64 { return -rng.Float64() },
	}
	for name, draw := range sets {
		for _, size := range []int{0, 1, 2, 300, 20000} {
			var tally valueTally
			counts := map[float64]int64{}
			var zeros, total int64
			maxAll := math.Inf(-1)
			for i := 0; i < size; i++ {
				v, c := draw(), int64(1+rng.Intn(4))
				tally.add(v, c)
				switch {
				case v > 0:
					counts[v] += c
				case v == 0:
					zeros += c
				}
				total += c
				maxAll = max(maxAll, v)
			}
			p := tally.finish()
			want := make([]float64, 0, len(counts))
			for v := range counts {
				want = append(want, v)
			}
			slices.Sort(want)
			if !slices.Equal(p.pos, want) {
				t.Fatalf("%s, %d values: pos not the %d distinct positive values in order", name, size, len(want))
			}
			for i, v := range want {
				if p.posCnt[i] != counts[v] {
					t.Fatalf("%s, %d values: count of %v = %d, want %d", name, size, v, p.posCnt[i], counts[v])
				}
			}
			if p.zeros != zeros || p.total != total || total > 0 && p.maxAll != maxAll {
				t.Fatalf("%s, %d values: zeros %d total %d max %v, want %d %d %v", name, size, p.zeros, p.total, p.maxAll, zeros, total, maxAll)
			}
		}
	}
}
