package core

import (
	"context"
	"math"
	"math/bits"
	"sync/atomic"

	"tends/internal/diffusion"
)

// ComputeIMIContext builds the pairwise engine from observations, counting
// each pair's joint infections by popcount over the packed status columns
// or by the cascade walk, whichever the observations make cheaper (see
// chooseStep): 0 workers means GOMAXPROCS, 1 forces serial execution, and
// cancellation is checked between node chunks, returning ctx's error and
// no engine. The engine stores every co-occurring pair, and every row is
// computed independently from the same inputs, so it is bit-identical for
// any worker count and either step.
func ComputeIMIContext(ctx context.Context, sm *diffusion.StatusMatrix, traditional bool, workers int) (*SparseIMI, error) {
	return buildSparse(ctx, NewScorer(sm), traditional, workers, autoStep, nil)
}

// popcountGather returns the popcount step's gather (see gatherFunc). It
// scans the nodes u > v in ascending order, and each pair's n11 is
// popcount(col(v) & col(u)) over the scorer's packed columns, read in
// place. With replay set, the first gather of a row also keeps every
// pair's n11 in a byte (255 standing for any count from 255 up), and a
// second gather of the row — walk 2's — reads the bytes instead of
// popcounting the row again, recounts only the saturated ones, and leaves
// out the pairs below sc.need. One byte per pair of the triangle costs
// less memory than the pairs' nodes and counts would, 8 bytes per co-pair.
func popcountGather(view *Scorer, replay bool) gatherFunc {
	n, words, data := view.n, view.words, view.data
	var joint [][]uint8
	if replay {
		joint = make([][]uint8, n)
	}
	return func(v int, sc *sparseScratch, row []int32) []int32 {
		col := view.col(v)
		if joint != nil && joint[v] != nil {
			for k, b := range joint[v] {
				if int32(b) < min(sc.need, math.MaxUint8) {
					continue
				}
				u, c := v+1+k, int32(b)
				if b == math.MaxUint8 {
					c = int32(andCount(col, data[u*words:(u+1)*words]))
				}
				if c >= sc.need {
					row = append(row, int32(u))
					sc.cnt[u] = c
				}
			}
			return row
		}
		var bytes []uint8
		if joint != nil {
			bytes = make([]uint8, n-1-v)
			joint[v] = bytes
		}
		for u, at := v+1, (v+1)*words; u < n; u, at = u+1, at+words {
			c := int32(andCount(col, data[at:at+words]))
			if bytes != nil {
				bytes[u-v-1] = uint8(min(c, math.MaxUint8))
			}
			if c > 0 {
				row = append(row, int32(u))
				sc.cnt[u] = c
			}
		}
		return row
	}
}

// andCount returns popcount(a & b) over len(a) words; b must be at least as
// long as a. This is the n11 cell of a pair's 2×2 contingency table when a
// and b are two nodes' packed status columns.
func andCount(a, b []uint64) int {
	n := 0
	w := 0
	if len(a) >= 4 {
		_ = b[len(a)-1] // hoist the bounds check out of the unrolled loop
		for ; w+4 <= len(a); w += 4 {
			n += bits.OnesCount64(a[w]&b[w]) +
				bits.OnesCount64(a[w+1]&b[w+1]) +
				bits.OnesCount64(a[w+2]&b[w+2]) +
				bits.OnesCount64(a[w+3]&b[w+3])
		}
	}
	for ; w < len(a); w++ {
		n += bits.OnesCount64(a[w] & b[w])
	}
	return n
}

// pairValue computes one pair's value — infection MI (Eq. 25) or, in the
// ablation mode, plain MI — from its contingency counts. Every value the
// engine stores, tallies or derives goes through this single expression,
// so its floating-point results do not depend on how n11 was counted. The
// marginals are canonicalized to ni ≤ nj first: float subtraction order
// makes the raw expression orientation-sensitive at the ulp level, and
// callers reach the same unordered pair from either side (either end's
// row, marginal count-class runs).
func pairValue(mt *miTable, traditional bool, beta, n11, ni, nj int) float64 {
	if ni > nj {
		ni, nj = nj, ni
	}
	c11 := mt.cell(n11, ni, nj)
	c00 := mt.cell(beta-ni-nj+n11, beta-ni, beta-nj)
	c10 := mt.cell(ni-n11, ni, beta-nj)
	c01 := mt.cell(nj-n11, beta-ni, nj)
	if traditional {
		return c11 + c00 + c10 + c01
	}
	return c11 + c00 - math.Abs(c10) - math.Abs(c01)
}

// twoMeansMaxIter bounds the modified K-means iterations of the threshold
// selectors (convergence is immediate in practice; see stats.TwoMeansThreshold).
const twoMeansMaxIter = 100

// SelectThreshold runs the modified K-means of Section IV-B over the
// non-negative pairwise values and returns the pruning threshold τ. The
// values are consumed as a run-length pool (see valuePool), not a
// materialized triangle.
func SelectThreshold(m *SparseIMI) float64 {
	return m.valuePool().twoMeansTau()
}

// SelectThresholdFDR picks the pruning threshold by false-discovery-rate
// control instead of K-means clustering.
//
// Under independence of two nodes' statuses, the G-statistic 2·ln2·β·MI is
// asymptotically χ²(1)-distributed, and IMI ≤ MI, so 2·ln2·β·IMI is a
// conservative test statistic for "these two infections are positively
// associated". SelectThresholdFDR converts every non-negative pairwise
// value into a p-value and runs the Benjamini–Hochberg step-up procedure at
// level alpha; τ is the smallest accepted value (minus an epsilon so that
// the > τ comparison keeps it). If nothing is significant, τ is set above
// the maximum value, pruning every candidate — the correct answer for
// observations that carry no association signal.
//
// Unlike the K-means heuristic, this rule adapts to the number of node
// pairs tested: on large networks, where true edges are a vanishing
// fraction of all pairs, the admission bar automatically rises. It is the
// library default; the paper's K-means selection remains available via
// Options.ThresholdMethod.
func SelectThresholdFDR(m *SparseIMI, beta int, alpha float64) float64 {
	return m.valuePool().fdrTau(beta, alpha)
}

// miTable evaluates the pointwise mutual-information cells of Eq. (24)
// against a fixed observation total, with log₂ of every possible count
// precomputed. All counts in a status matrix are integers in [0, β], so
// the cell's log₂(p_xy/(p_x·p_y)) collapses to three table lookups and a
// subtraction instead of a Log2 call — the dominant cost of the O(n²)
// pairwise stage once column scans are hoisted. Within ~1 ulp of
// stats.Contingency2x2.MICell (the identity changes rounding order only).
type miTable struct {
	total    int
	logs     []float64 // logs[k] = log₂(k); index 0 unused
	invTotal float64
	logTotal float64
}

func newMITable(total int) *miTable {
	mt := &miTable{
		total:    total,
		logs:     make([]float64, total+1),
		invTotal: 1 / float64(total),
		logTotal: math.Log2(float64(total)),
	}
	for k := 1; k <= total; k++ {
		mt.logs[k] = math.Log2(float64(k))
	}
	return mt
}

// miTableCache keeps the most recently built log table. The experiment
// harness computes IMI for many cells with the same observation count β
// (every repeat and algorithm of a sweep point, and usually the whole
// figure), so the β+1-entry table is built once and shared instead of being
// rebuilt per cell. Tables are immutable after construction and identical
// for equal totals, so a racing rebuild is benign and the IMI output is
// unaffected.
var miTableCache atomic.Pointer[miTable]

func cachedMITable(total int) *miTable {
	if mt := miTableCache.Load(); mt != nil && mt.total == total {
		return mt
	}
	mt := newMITable(total)
	miTableCache.Store(mt)
	return mt
}

// cell returns P(x,y)·log₂(P(x,y)/(P(x)·P(y))) for a cell with joint count
// nxy and marginal counts nx, ny, using the 0·log0 = 0 convention.
func (mt *miTable) cell(nxy, nx, ny int) float64 {
	if nxy == 0 {
		return 0
	}
	return float64(nxy) * mt.invTotal * (mt.logs[nxy] + mt.logTotal - mt.logs[nx] - mt.logs[ny])
}

// chiSquared1Tail returns P(χ²₁ > t).
func chiSquared1Tail(t float64) float64 {
	if t <= 0 {
		return 1
	}
	return math.Erfc(math.Sqrt(t / 2))
}
