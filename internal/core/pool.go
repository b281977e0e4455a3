package core

import (
	"math"

	"tends/internal/stats"
)

// valuePool is a run-length-encoded summary of the n(n−1)/2 pairwise values
// — everything the threshold selectors consume. Only the strictly positive
// values are materialized (as ascending distinct runs with multiplicities):
// zeros can never sit above a two-means boundary and break the FDR walk, so
// both selectors need only their count. Negative values contribute to total
// and maxAll alone.
//
// Every build of the pairwise engine — by either counting step or from
// incremental counts — reduces to this same canonical form, so thresholds
// — and therefore candidate sets and inferred topologies — are
// bit-identical between the paths by construction.
type valuePool struct {
	pos    []float64 // ascending, distinct, strictly positive values
	posCnt []int64   // parallel multiplicities
	zeros  int64     // pairs whose value is exactly 0
	total  int64     // all pairs, including negative-valued ones
	maxAll float64   // maximum value over all pairs (any sign); valid when total > 0
}

// valueTally counts a multiset of pairwise values, contributed in any order
// with multiplicities: positive values by their exact bits (no positive
// value has all-zero bits), zero and negative values only counted, because
// the pool keeps nothing else of them. At scale a few hundred distinct
// values cover millions of pairs. finish canonicalizes the tally into a
// valuePool that depends only on the value multiset, so the workers'
// shares, added in any order, give the same pool.
type valueTally struct {
	counts     countTable
	zeros, neg int64
	maxNeg     float64
}

func (t *valueTally) add(v float64, c int64) {
	switch {
	case c <= 0:
	case v > 0:
		t.counts.add(math.Float64bits(v), c)
	case v == 0:
		t.zeros += c
	default:
		if t.neg == 0 || v > t.maxNeg {
			t.maxNeg = v
		}
		t.neg += c
	}
}

// merge adds o's values to t.
func (t *valueTally) merge(o *valueTally) {
	for _, e := range o.counts.slots {
		if e.key != 0 {
			t.counts.add(e.key, e.n)
		}
	}
	t.zeros += o.zeros
	if o.neg > 0 {
		if t.neg == 0 || o.maxNeg > t.maxNeg {
			t.maxNeg = o.maxNeg
		}
		t.neg += o.neg
	}
}

// finish returns the pool of the tallied values. Positive float64s order
// as their bits do, so the distinct values sort as plain integers, each
// carried with its count.
func (t *valueTally) finish() *valuePool {
	runs := make([]countSlot, 0, t.counts.used)
	for _, e := range t.counts.slots {
		if e.key != 0 {
			runs = append(runs, e)
		}
	}
	sortByKey(runs)
	p := &valuePool{
		pos:    make([]float64, len(runs)),
		posCnt: make([]int64, len(runs)),
		zeros:  t.zeros,
		total:  t.zeros + t.neg,
	}
	for i, e := range runs {
		p.pos[i], p.posCnt[i] = math.Float64frombits(e.key), e.n
		p.total += e.n
	}
	switch {
	case len(runs) > 0:
		p.maxAll = p.pos[len(runs)-1]
	case t.zeros == 0 && t.neg > 0:
		p.maxAll = t.maxNeg
	}
	return p
}

// sortByKey sorts distinct-key slots by key with a least-significant-digit
// radix sort, one byte per pass, skipping a byte that every key shares. On
// 38,000 distinct values (paper-1k's pool) it takes about 40% of the time
// of a comparison sort of the bare keys.
func sortByKey(s []countSlot) {
	src, dst := s, make([]countSlot, len(s))
	for shift := 0; shift < 64; shift += 8 {
		var start [256]int
		for _, e := range src {
			start[byte(e.key>>shift)]++
		}
		if len(src) == 0 || start[byte(src[0].key>>shift)] == len(src) {
			continue
		}
		sum := 0
		for d, c := range start {
			start[d], sum = sum, sum+c
		}
		for _, e := range src {
			d := byte(e.key >> shift)
			dst[start[d]] = e
			start[d]++
		}
		src, dst = dst, src
	}
	copy(s, src)
}

// twoMeansTau runs the pinned two-means selector over the pool.
func (p *valuePool) twoMeansTau() float64 {
	return stats.TwoMeansThresholdRuns(p.pos, p.posCnt, p.zeros, twoMeansMaxIter)
}

// fdrTau runs the Benjamini–Hochberg selector of SelectThresholdFDR over the
// pool. Ranks are evaluated at run boundaries, which is exactly equivalent
// to the per-value walk: within a run the p-value is constant while the BH
// bar α·k/M only rises with k, so a run qualifies iff its last rank does.
func (p *valuePool) fdrTau(beta int, alpha float64) float64 {
	if alpha <= 0 || alpha >= 1 {
		panic("core: FDR alpha must be in (0,1)")
	}
	if p.total == 0 {
		return 0
	}
	mTests := float64(p.total)
	factor := 2 * math.Ln2 * float64(beta)
	var accepted int64 = -1
	var acceptedVal float64
	var rank int64
	for r := len(p.pos) - 1; r >= 0; r-- {
		v := p.pos[r]
		rank += p.posCnt[r]
		pv := chiSquared1Tail(factor * v)
		if pv <= alpha*float64(rank)/mTests {
			accepted = rank
			acceptedVal = v
		}
	}
	if accepted < 0 {
		return p.maxAll + 1 // above the maximum: prune everything
	}
	// Candidates are admitted by value > τ, so back off an epsilon to keep
	// the boundary value itself.
	return acceptedVal * (1 - 1e-12)
}
