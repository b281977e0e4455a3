package core

import (
	"math"
	"sort"

	"tends/internal/stats"
)

// valuePool is a run-length-encoded summary of the n(n−1)/2 pairwise values
// — everything the threshold selectors consume. Only the strictly positive
// values are materialized (as ascending distinct runs with multiplicities):
// zeros can never sit above a two-means boundary and break the FDR walk, so
// both selectors need only their count. Negative values contribute to total
// and maxAll alone.
//
// Both the dense and sparse engines reduce to this same canonical form, so
// thresholds — and therefore candidate sets and inferred topologies — are
// bit-identical between the two paths by construction.
type valuePool struct {
	pos    []float64 // ascending, distinct, strictly positive values
	posCnt []int64   // parallel multiplicities
	zeros  int64     // pairs whose value is exactly 0
	total  int64     // all pairs, including negative-valued ones
	maxAll float64   // maximum value over all pairs (any sign); valid when total > 0
}

// poolBuilder accumulates (value, multiplicity) contributions in any order
// and canonicalizes them: runs are sorted ascending and equal values merged,
// so the finished pool depends only on the value multiset.
type poolBuilder struct {
	vals   []float64
	cnts   []int64
	zeros  int64
	total  int64
	maxAll float64
}

func (b *poolBuilder) add(v float64, c int64) {
	if c <= 0 {
		return
	}
	if b.total == 0 || v > b.maxAll {
		b.maxAll = v
	}
	b.total += c
	if v == 0 {
		b.zeros += c
		return
	}
	if v > 0 {
		b.vals = append(b.vals, v)
		b.cnts = append(b.cnts, c)
	}
}

func (b *poolBuilder) Len() int           { return len(b.vals) }
func (b *poolBuilder) Less(i, j int) bool { return b.vals[i] < b.vals[j] }
func (b *poolBuilder) Swap(i, j int) {
	b.vals[i], b.vals[j] = b.vals[j], b.vals[i]
	b.cnts[i], b.cnts[j] = b.cnts[j], b.cnts[i]
}

func (b *poolBuilder) finish() *valuePool {
	sort.Sort(b)
	// Merge equal values in place; equal runs are interchangeable, so the
	// merged pool is independent of the insertion order.
	out := 0
	for i := 0; i < len(b.vals); i++ {
		if out > 0 && b.vals[i] == b.vals[out-1] {
			b.cnts[out-1] += b.cnts[i]
			continue
		}
		b.vals[out] = b.vals[i]
		b.cnts[out] = b.cnts[i]
		out++
	}
	return &valuePool{
		pos:    b.vals[:out],
		posCnt: b.cnts[:out],
		zeros:  b.zeros,
		total:  b.total,
		maxAll: b.maxAll,
	}
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
