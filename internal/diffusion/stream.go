package diffusion

import (
	"math"
	"math/rand"
)

// Go's math/rand (v1) source, frozen by the Go 1 compatibility promise, is
// an additive lagged Fibonacci generator: its 64-bit register values obey
// x_t = x_{t−607} + x_{t−273} mod 2⁶⁴, and Int63 returns their low 63 bits,
// which obey the same recurrence mod 2⁶³. So lfgLen consecutive Int63
// values determine every later one exactly.
const (
	lfgLen   = 607
	lfgTap   = 273
	lfgCheck = 64   // values past the first lfgLen checked against the recurrence
	blockLen = 4096 // values one refill generates (or pulls, in fallback)
)

// stream is the only source the simulator draws from. It replays the Int63
// values of the caller's source exactly, in blocks: the first refill pulls
// lfgLen+lfgCheck values and checks the last lfgCheck against the
// recurrence; when they hold, every later block is generated from the
// recurrence instead of drawn one interface call at a time. When they do
// not (the source is not Go's generator), every later block is pulled from
// the source. The pulled values replay first either way, so the values are
// the source's own for any source; a source that follows the recurrence
// for lfgLen+lfgCheck values and then leaves it is the one exception.
//
// The simulator reads it through rand.New(stream), so Float64, ExpFloat64,
// NormFloat64 and Intn see exactly the values they would on the source, and
// permPrefix reads the blocks directly. stream implements rand.Source only,
// not rand.Source64: its Uint64 could not reproduce the source's (Go's
// generator returns the full 64-bit register there), and the simulator
// never calls Uint64.
//
// The stream pulls ahead of what it replays, so the source's state after a
// simulation is unspecified.
type stream struct {
	src interface{ Int63() int64 }
	// buf[pos:end] are the values not yet replayed; once the check passed,
	// buf[end−lfgLen:end] is the history the next block extends. nil until
	// the first refill.
	buf      []int64
	pos, end int
	fallback bool // the source failed the recurrence check
}

func newStream(src interface{ Int63() int64 }) *stream { return &stream{src: src} }

// Int63 returns the next value of the source.
func (s *stream) Int63() int64 {
	if s.pos == s.end {
		s.refill()
	}
	v := s.buf[s.pos]
	s.pos++
	return v
}

// Seed panics: a stream replays its source and cannot be reseeded.
func (s *stream) Seed(int64) { panic("diffusion: a simulation stream cannot be reseeded") }

// refill replaces the replayed values with the next block.
func (s *stream) refill() {
	if s.buf == nil {
		s.bootstrap()
		return
	}
	if s.fallback {
		b := s.buf[:blockLen]
		for i := range b {
			b[i] = s.src.Int63()
		}
		s.pos, s.end = 0, len(b)
		return
	}
	copy(s.buf, s.buf[s.end-lfgLen:s.end])
	// next[j] = x_{t} with t = lfgLen+j: lag[j] = x_{t−607}, tap[j] =
	// x_{t−273}. For j ≥ lfgTap, tap reads values this loop has written.
	lag := s.buf[:blockLen]
	tap := s.buf[lfgLen-lfgTap : lfgLen-lfgTap+blockLen]
	next := s.buf[lfgLen : lfgLen+blockLen]
	for j := range next {
		next[j] = (lag[j] + tap[j]) & math.MaxInt64
	}
	s.pos, s.end = lfgLen, lfgLen+blockLen
}

// bootstrap pulls the first lfgLen+lfgCheck values and decides whether the
// recurrence can generate the rest.
func (s *stream) bootstrap() {
	s.buf = make([]int64, lfgLen+blockLen)
	b := s.buf[:lfgLen+lfgCheck]
	for i := range b {
		b[i] = s.src.Int63()
	}
	for i := lfgLen; i < len(b); i++ {
		if b[i] != (b[i-lfgLen]+b[i-lfgTap])&math.MaxInt64 {
			s.fallback = true
			break
		}
	}
	s.pos, s.end = 0, len(b)
}

// recip returns M = ⌈2⁶⁴/m⌉ for m ≥ 2, the multiplier modBelow tests
// against.
func recip(m uint64) uint64 { return math.MaxUint64/m + 1 }

// recipTable returns recip(m) at index m for every m in [2, n], built once
// per simulation for permPrefix.
func recipTable(n int) []uint64 {
	t := make([]uint64, n+1)
	for m := 2; m <= n; m++ {
		t[m] = recip(uint64(m))
	}
	return t
}

// modBelow reports v mod m < k for M = recip(m), v < 2³¹ and k < m < 2³¹,
// by one multiply: with v = q·m + r and M·m = 2⁶⁴ + d, 0 ≤ d < m (d = 0
// exactly when m is a power of two), M·v mod 2⁶⁴ = r·M + q·d, and
// q·d < 2³¹ < M, so it is below k·M exactly when r < k.
func modBelow(v, M, k uint64) bool { return M*v < k*M }

// scanRun returns the index of the first of vals that is above lim or, at
// bound m with M = ms[j], a hit v mod m < k; len(vals) if none is.
func scanRun(vals []int64, ms []uint64, lim, k uint64) int {
	ms = ms[:len(vals)]
	for j, x := range vals {
		if v := uint64(x) >> 32; v > lim || modBelow(v, ms[j], k) {
			return j
		}
	}
	return len(vals)
}

// permPrefix returns rand.Perm(n)[:k] on s's values in buf (len ≥ k) and
// leaves s exactly after Perm's draws: all n of Perm's Intn(i+1), the i=0
// self-swap draw included, with Int31n's power-of-two mask and rejection
// loop. Only the prefix is stored. For i ≥ k, Perm's swap sets slot j to i
// and copies slot j into slot i ≥ k, which no later swap can move back into
// the prefix; so a draw j < k sets prefix slot j = i and any other draw
// changes nothing the caller sees.
//
// The tail i ≥ k reads s's values a block at a time. scanRun walks a block
// at a load, a shift, a compare and a modBelow against recips[i+1]
// (recipTable(n) or longer) per draw. It stops only at a hit (~k/m of the
// draws), where the modulus is taken, and at a value that may fall in
// Int31n's rejection band, which rand.Rand.Intn draws instead.
func permPrefix(s *stream, n, k int, recips []uint64, buf []int) []int {
	r := rand.New(s)
	perm := buf[:k]
	for i := 0; i < k; i++ {
		j := r.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	end := min(n, math.MaxInt32) // Intn leaves Int31n beyond here
	kk := uint64(k)
	for i := k; i < end; {
		if s.pos == s.end {
			s.refill()
		}
		// Draws i … hi−1, with bounds m = i+1 … hi.
		hi := min(end, i+s.end-s.pos)
		vals := s.buf[s.pos : s.pos+hi-i]
		// Int31n accepts every v ≤ 2³¹−1−m, as 2³¹ mod m < m.
		lim := uint64(math.MaxInt32 - hi)
		j := scanRun(vals, recips[i+1:hi+1], lim, kk)
		s.pos += j
		i += j
		if j == len(vals) {
			continue
		}
		if v := uint64(vals[j]) >> 32; v <= lim {
			perm[uint32(v)%uint32(i+1)] = i
			s.pos++
		} else if j := r.Intn(i + 1); j < k {
			perm[j] = i
		}
		i++
	}
	for i := end; i < n; i++ {
		if j := r.Intn(i + 1); j < k {
			perm[j] = i
		}
	}
	return perm
}
