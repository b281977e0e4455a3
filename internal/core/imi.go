package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"tends/internal/diffusion"
	"tends/internal/kernel"
	"tends/internal/obs"
)

// IMIMatrix holds the pairwise infection mutual information (Eq. 25) — or,
// in the traditional-MI ablation mode, plain mutual information — between
// every pair of nodes. Both measures are symmetric, so only the upper
// triangle is stored.
type IMIMatrix struct {
	n    int
	vals []float64 // upper triangle, row-major: (i,j) with i<j
}

func triIndex(n, i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Row i starts after rows 0..i-1, which hold (n-1)+(n-2)+...+(n-i) entries.
	return i*(2*n-i-1)/2 + (j - i - 1)
}

// At returns the stored value for the pair (i, j), i != j.
func (m *IMIMatrix) At(i, j int) float64 {
	if i == j {
		panic("core: IMI is undefined for a node with itself")
	}
	return m.vals[triIndex(m.n, i, j)]
}

// N returns the number of nodes.
func (m *IMIMatrix) N() int { return m.n }

// PairValues returns every pairwise value once (each unordered pair).
func (m *IMIMatrix) PairValues() []float64 {
	out := make([]float64, len(m.vals))
	copy(out, m.vals)
	return out
}

// valuePool tallies the triangle's values by their bits and sorts only the
// distinct ones: the values are functions of β-bounded counts, so a few
// tens of thousands of distinct values cover the n(n−1)/2 pairs. The
// sparse build's walk 1 feeds the same valueTally, so both engines reach
// the pool through one canonicalization.
func (m *IMIMatrix) valuePool() *valuePool {
	var t valueTally
	for _, v := range m.vals {
		t.add(v, 1)
	}
	b := poolBuilder{vals: make([]float64, 0, t.counts.used), cnts: make([]int64, 0, t.counts.used)}
	t.addTo(&b)
	return b.finish()
}

// nodePool summarizes the values involving node i for the per-node
// threshold selector.
func (m *IMIMatrix) nodePool(i int) *valuePool {
	var b poolBuilder
	for j := 0; j < m.n; j++ {
		if j != i {
			b.add(m.vals[triIndex(m.n, i, j)], 1)
		}
	}
	return b.finish()
}

// ComputeIMI builds the pairwise infection-MI matrix from observations. If
// traditional is true it computes plain mutual information instead, the
// ablation of Figs. 10–11. It uses every CPU; ComputeIMIWorkers takes an
// explicit worker count.
func ComputeIMI(sm *diffusion.StatusMatrix, traditional bool) *IMIMatrix {
	return ComputeIMIWorkers(sm, traditional, 0)
}

// ComputeIMIWorkers is ComputeIMI with an explicit concurrency knob,
// mirroring Options.Workers: 0 means GOMAXPROCS, 1 forces serial
// execution. Every (i, j) slot is computed independently from the same
// inputs, so the matrix is bit-identical for any worker count.
func ComputeIMIWorkers(sm *diffusion.StatusMatrix, traditional bool, workers int) *IMIMatrix {
	// Background context never cancels, so the error can be ignored.
	m, _ := ComputeIMIContext(context.Background(), sm, traditional, workers)
	return m
}

// imiRowBlock is the dense kernel's tile height: the number of contiguous
// base columns held hot while a probe column streams past. Eight 8-word
// columns fit comfortably in L1 alongside the probe.
const imiRowBlock = 8

// ComputeIMIContext is ComputeIMIWorkers with cooperative cancellation: the
// O(n²) pairwise stage checks ctx between row blocks and abandons the
// computation — returning ctx's error and no matrix — once the context is
// done. It is the hook the experiment harness uses to impose per-cell
// deadlines on TENDS runs.
func ComputeIMIContext(ctx context.Context, sm *diffusion.StatusMatrix, traditional bool, workers int) (*IMIMatrix, error) {
	// Telemetry handles are resolved once up front; on a recorder-less
	// context they are nil and every update below is an allocation-free
	// no-op, so the pairwise hot loop pays nothing.
	rec := obs.From(ctx)
	defer rec.StartSpan("core/imi").End()
	rowsC := rec.Counter("core/imi/rows")
	pairsC := rec.Counter("core/imi/pairs")
	tilesC := rec.Counter("core/kernel/tiles")
	n := sm.N()
	m := &IMIMatrix{n: n, vals: make([]float64, n*(n-1)/2)}
	if n < 2 {
		return m, ctx.Err()
	}
	beta := sm.Beta()
	words := sm.Words()
	data := sm.ColumnData()
	// Per-node infected counts, computed once up front: building each
	// pair's contingency table through JointCounts would rescan both full
	// columns per pair — O(n²) popcount passes — when only the n11 AND
	// count actually depends on the pair.
	ones := make([]int, n)
	for i := 0; i < n; i++ {
		ones[i] = sm.CountInfected(i)
	}
	mt := cachedMITable(beta)
	// Rows are processed in blocks of imiRowBlock contiguous base columns;
	// each probe column j is ANDed against the whole tile in one kernel
	// call, so the probe's words are read once per tile instead of once per
	// pair. Values are bit-identical to the per-pair walk: n11 is an exact
	// integer either way and the cell arithmetic is unchanged.
	nBlocks := (n - 1 + imiRowBlock - 1) / imiRowBlock
	fillBlock := func(b int, cnt *[imiRowBlock]int) {
		i0 := b * imiRowBlock
		i1 := i0 + imiRowBlock
		if i1 > n-1 {
			i1 = n - 1
		}
		bases := data[i0*words : i1*words]
		var pairs int64
		for j := i0 + 1; j < n; j++ {
			lim := i1
			if j < lim {
				lim = j
			}
			nb := lim - i0
			probe := data[j*words : (j+1)*words]
			kernel.BlockAndCounts(cnt[:nb], bases[:nb*words], probe, words)
			tilesC.Inc()
			nj := ones[j]
			for r := 0; r < nb; r++ {
				i := i0 + r
				m.vals[i*(2*n-i-1)/2+j-i-1] = pairValue(mt, traditional, beta, cnt[r], ones[i], nj)
			}
			pairs += int64(nb)
		}
		rowsC.Add(int64(i1 - i0))
		pairsC.Add(pairs)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nBlocks {
		workers = nBlocks
	}
	if workers <= 1 {
		var cnt [imiRowBlock]int
		for b := 0; b < nBlocks; b++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			fillBlock(b, &cnt)
		}
		return m, nil
	}
	// Workers claim row blocks off a shared counter; blocks shrink as i
	// grows, so dynamic claiming balances the triangular workload better
	// than fixed partitions. Each worker writes disjoint slots of m.vals.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cnt [imiRowBlock]int
			for ctx.Err() == nil {
				b := int(next.Add(1)) - 1
				if b >= nBlocks {
					return
				}
				fillBlock(b, &cnt)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// pairValue computes one pair's value — infection MI (Eq. 25) or, in the
// ablation mode, plain MI — from its contingency counts. Both the dense and
// sparse engines route every value through this single expression, so their
// floating-point results are identical by construction. The marginals are
// canonicalized to ni ≤ nj first: float subtraction order makes the raw
// expression orientation-sensitive at the ulp level, and callers reach the
// same unordered pair from either side (dense row-major, sparse
// neighbor-row, marginal count-class runs).
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
// values are consumed as a run-length pool (see valuePool), not a second
// materialized triangle.
func SelectThreshold(m *IMIMatrix) float64 {
	return m.valuePool().twoMeansTau()
}

// SelectNodeThreshold runs the same modified K-means over only the values
// involving node i, yielding a per-node pruning threshold τ_i. On large
// networks the global value pool is dominated by the huge mass of weakly
// correlated pairs, which drags the K-means boundary into the noise
// shoulder; the per-node pool keeps the near-zero and significant clusters
// separable, at the cost of n small K-means runs instead of one big one.
func SelectNodeThreshold(m *IMIMatrix, i int) float64 {
	return m.nodePool(i).twoMeansTau()
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
func SelectThresholdFDR(m *IMIMatrix, beta int, alpha float64) float64 {
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

// Candidates returns, for node i, every node j with value(i,j) > tau — the
// candidate parent set P_i of Algorithm 1. The result is counted first and
// allocated exactly once, instead of growing through append's doubling.
func (m *IMIMatrix) Candidates(i int, tau float64) []int {
	count := 0
	for j := 0; j < m.n; j++ {
		if j != i && m.vals[triIndex(m.n, i, j)] > tau {
			count++
		}
	}
	if count == 0 {
		return nil
	}
	out := make([]int, 0, count)
	for j := 0; j < m.n; j++ {
		if j != i && m.vals[triIndex(m.n, i, j)] > tau {
			out = append(out, j)
		}
	}
	return out
}
