package diffusion

import (
	"math"
	"math/rand"
	"testing"
)

// scriptedSource wraps a seeded source and scripts two of every three
// draws into the top of Int31's range: call 3c returns an Int31 of
// 2³¹−1−(c mod 64) and call 3c+1 returns 2³¹−1. For a non-power-of-two
// bound m, Int31n rejects 2³¹−1 always and the rest of that band depending
// on 2³¹ mod m, so single and repeated rejections and acceptances just
// below the bound all occur. calls counts every draw. Its values break the
// generator's recurrence, so a stream over it takes the fallback.
type scriptedSource struct {
	src   rand.Source
	calls int
}

func (s *scriptedSource) Int63() int64 {
	s.calls++
	v := s.src.Int63()
	switch s.calls % 3 {
	case 0:
		v = int64(math.MaxInt32-(s.calls/3)%64)<<32 | v&(1<<32-1)
	case 1:
		v = math.MaxInt32<<32 | v&(1<<32-1)
	}
	return v
}

func (s *scriptedSource) Seed(seed int64) { s.src.Seed(seed) }

// checkPermPrefix draws Perm(n)[:k] from a and permPrefix from s, then one
// more value from each: the prefixes and the next values must be equal.
func checkPermPrefix(t *testing.T, a *rand.Rand, s *stream, n, k int, what string) {
	t.Helper()
	want := a.Perm(n)[:k]
	got := permPrefix(s, n, k, recipTable(n), make([]int, k))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s n=%d k=%d: prefix %v, want %v", what, n, k, got, want)
		}
	}
	if x, y := a.Int63(), s.Int63(); x != y {
		t.Fatalf("%s n=%d k=%d: next Int63 %d after permPrefix, %d after Perm", what, n, k, y, x)
	}
}

// TestPermPrefixMatchesPerm pins permPrefix to rand.Perm: the same prefix
// and the same stream position afterwards, including through Int31n's
// rejection loop, across block refills and power-of-two bounds. Each case
// draws twice in a row, so the second draw starts mid-block.
func TestPermPrefixMatchesPerm(t *testing.T) {
	for _, n := range []int{1, 2, 3, 63, 64, 65, 1000, 4095, 4096, 4097, 100000} {
		for _, k := range []int{1, min(10, n), n} {
			for seed := int64(1); seed <= 3; seed++ {
				a := rand.New(rand.NewSource(seed))
				s := newStream(rand.New(rand.NewSource(seed)))
				for range 2 {
					checkPermPrefix(t, a, s, n, k, "seeded")
				}
				if s.fallback {
					t.Fatalf("seeded n=%d: stream took the fallback", n)
				}

				sa := &scriptedSource{src: rand.NewSource(seed)}
				sb := &scriptedSource{src: rand.NewSource(seed)}
				ss := newStream(sb)
				checkPermPrefix(t, rand.New(sa), ss, n, k, "scripted")
				if !ss.fallback {
					t.Fatalf("scripted n=%d: stream passed the recurrence check", n)
				}
				// The stream pulls ahead; what it replayed is what it
				// pulled less what it still buffers.
				if used := sb.calls - (ss.end - ss.pos); used != sa.calls {
					t.Fatalf("scripted n=%d k=%d: permPrefix made %d draws, Perm %d", n, k, used-1, sa.calls-1)
				}
				// Perm makes n draws plus one per rejection; from n=3 on
				// the scripted top values force at least one (+1 for the
				// next-value check).
				if n >= 3 && sa.calls <= n+2 {
					t.Fatalf("scripted n=%d: %d draws, rejection loop never ran", n, sa.calls)
				}
			}
		}
	}
}

// TestModBelow checks modBelow(v, recip(m), k) ⇔ v mod m < k at v = q·m +
// {0, k−1, k, m−1} for every m in [2, 4096], every power of two below 2³¹
// and random m up to 2³¹, k ∈ [1, 64] below m, and q from 0 to the largest
// keeping v < 2³¹.
func TestModBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(m uint64) {
		M := recip(m)
		qmax := (math.MaxInt32 - (m - 1)) / m
		for k := uint64(1); k <= 64 && k < m; k++ {
			for _, q := range []uint64{0, 1, qmax / 2, qmax - 1, qmax, uint64(rng.Int63n(int64(qmax) + 1))} {
				if q > qmax {
					continue
				}
				for _, r := range []uint64{0, k - 1, k, m - 1} {
					if r >= m {
						continue
					}
					v := q*m + r
					if got, want := modBelow(v, M, k), v%m < k; got != want {
						t.Fatalf("m=%d k=%d v=%d: modBelow %v, want %v", m, k, v, got, want)
					}
				}
			}
		}
	}
	for m := uint64(2); m <= 4096; m++ {
		check(m)
	}
	for p := 13; p < 31; p++ {
		check(1 << p)
	}
	for i := 0; i < 2000; i++ {
		check(uint64(3 + rng.Int63n(math.MaxInt32-3)))
	}
}

// FuzzSeedDraw: permPrefix equals rand.Perm(n)[:k] and leaves the stream
// where Perm leaves the generator, for any seed, n ≤ 10⁵ and k ≤ n.
func FuzzSeedDraw(f *testing.F) {
	f.Add(int64(1), uint32(99999), uint32(9))
	f.Add(int64(2), uint32(4097), uint32(4097))
	f.Add(int64(-3), uint32(1), uint32(1))
	f.Add(int64(4), uint32(65), uint32(64))
	f.Fuzz(func(t *testing.T, seed int64, n, k uint32) {
		nn := 1 + int(n%100000)
		kk := 1 + int(k)%nn
		checkPermPrefix(t, rand.New(rand.NewSource(seed)), newStream(rand.NewSource(seed)), nn, kk, "fuzz")
	})
}
