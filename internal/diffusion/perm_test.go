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
// below the bound all occur. calls counts every draw.
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

func checkPermPrefix(t *testing.T, a, b *rand.Rand, n, k int, what string) {
	t.Helper()
	want := a.Perm(n)[:k]
	got := permPrefix(b, n, k, make([]int, k))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s n=%d k=%d: prefix %v, want %v", what, n, k, got, want)
		}
	}
	if x, y := a.Int63(), b.Int63(); x != y {
		t.Fatalf("%s n=%d k=%d: next Int63 %d after permPrefix, %d after Perm", what, n, k, y, x)
	}
}

// TestPermPrefixMatchesPerm pins permPrefix to rand.Perm: the same prefix
// and the same generator state afterwards, including through Int31n's
// rejection loop.
func TestPermPrefixMatchesPerm(t *testing.T) {
	for _, n := range []int{1, 2, 3, 63, 64, 65, 1000, 4097} {
		for _, k := range []int{1, min(10, n), n} {
			for seed := int64(1); seed <= 3; seed++ {
				a := rand.New(rand.NewSource(seed))
				b := rand.New(rand.NewSource(seed))
				checkPermPrefix(t, a, b, n, k, "seeded")

				sa := &scriptedSource{src: rand.NewSource(seed)}
				sb := &scriptedSource{src: rand.NewSource(seed)}
				checkPermPrefix(t, rand.New(sa), rand.New(sb), n, k, "scripted")
				if sa.calls != sb.calls {
					t.Fatalf("scripted n=%d k=%d: permPrefix made %d draws, Perm %d", n, k, sb.calls, sa.calls)
				}
				// Perm makes n draws plus one per rejection; from n=3 on
				// the scripted top values force at least one.
				if n >= 3 && sa.calls <= n+1 {
					t.Fatalf("scripted n=%d: %d draws, rejection loop never ran", n, sa.calls)
				}
			}
		}
	}
}
