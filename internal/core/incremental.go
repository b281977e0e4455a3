package core

import (
	"context"
	"fmt"
	"slices"

	"tends/internal/diffusion"
	"tends/internal/obs"
)

// IncrementalCounts maintains the IMI contingency counts of a growing
// observation stream. The IMI statistic of Eq. (25) is a decomposable sum
// over processes — a pair's value is a pure function of (β, n11, ni, nj) —
// so appending one final-status vector touches only the infected nodes'
// marginal counts and the co-occurrence counts of the infected pairs:
// O(s²) work for a cascade with s infected nodes, with no rescan of earlier
// observations. Source then assembles the counts into the same sparse
// pairwise engine the batch path builds, so the values, thresholds, and
// inferred topologies are bit-identical to a from-scratch ComputeIMIContext
// over the concatenated status matrix, whichever counting step that build
// chooses — the property the streaming service's crash recovery relies on.
//
// IncrementalCounts is not safe for concurrent use; callers serialize
// appends against Source (the streaming service folds under its state lock).
type IncrementalCounts struct {
	n           int
	beta        int
	traditional bool
	coPairs     int64
	ones        []int32
	// nbr[v] maps each co-occurring neighbor of v to the pair's joint
	// infected count n11. Symmetric: nbr[a][b] == nbr[b][a].
	nbr []map[int32]int32
	// scratch holds the sorted infected list of the row being appended.
	scratch []int32
}

// NewIncrementalCounts returns empty counts over n nodes. traditional
// selects plain mutual information instead of infection MI, mirroring
// Options.TraditionalMI.
func NewIncrementalCounts(n int, traditional bool) *IncrementalCounts {
	if n < 0 {
		panic(fmt.Sprintf("core: negative node count %d", n))
	}
	return &IncrementalCounts{
		n:           n,
		traditional: traditional,
		ones:        make([]int32, n),
		nbr:         make([]map[int32]int32, n),
	}
}

// N returns the number of nodes.
func (c *IncrementalCounts) N() int { return c.n }

// Beta returns the number of observation rows folded in so far.
func (c *IncrementalCounts) Beta() int { return c.beta }

// CoPairs returns the number of unordered node pairs with at least one
// co-occurrence — the pairs Source materializes.
func (c *IncrementalCounts) CoPairs() int64 { return c.coPairs }

// Traditional reports whether the counts feed plain-MI values.
func (c *IncrementalCounts) Traditional() bool { return c.traditional }

// AppendRow folds one final-status vector, given as the list of infected
// node ids (any order). Out-of-range or duplicate ids reject the whole row
// with an error and leave the counts untouched, so a dirty input can never
// half-apply.
func (c *IncrementalCounts) AppendRow(infected []int) error {
	c.scratch = c.scratch[:0]
	for _, v := range infected {
		if v < 0 || v >= c.n {
			return fmt.Errorf("core: infected node %d out of range [0,%d)", v, c.n)
		}
		c.scratch = append(c.scratch, int32(v))
	}
	slices.Sort(c.scratch)
	for k := 1; k < len(c.scratch); k++ {
		if c.scratch[k] == c.scratch[k-1] {
			return fmt.Errorf("core: duplicate infected node %d in row", c.scratch[k])
		}
	}
	c.beta++
	for _, v := range c.scratch {
		c.ones[v]++
	}
	for ai, a := range c.scratch {
		for _, b := range c.scratch[ai+1:] {
			ma := c.nbr[a]
			if ma == nil {
				ma = make(map[int32]int32)
				c.nbr[a] = ma
			}
			mb := c.nbr[b]
			if mb == nil {
				mb = make(map[int32]int32)
				c.nbr[b] = mb
			}
			if _, seen := ma[b]; !seen {
				c.coPairs++
			}
			ma[b]++
			mb[a]++
		}
	}
	return nil
}

// Source assembles the counts into a SparseIMI — the same engine
// ComputeIMIContext builds from a status matrix. Every field is a
// deterministic function of (β, ones, co-occurrence counts), and those are
// integer-exact here, so the assembled engine is indistinguishable from the
// batch-built one: identical At values, candidate sets, value pools, and
// therefore thresholds and inferred topologies: the rows go through the
// batch build's own row stage and assembler, with n11 read from the maps
// instead of a cascade walk. Cost is O(n + coPairs·log + V log V + C²) with
// V distinct positive values and C distinct infected counts, spread over
// every CPU — no pass over the observations.
func (c *IncrementalCounts) Source() *SparseIMI { return c.source(0) }

// source is Source on an explicit worker count (0 means GOMAXPROCS).
func (c *IncrementalCounts) source(workers int) *SparseIMI {
	s := newSparseIMI(c.n, c.beta, c.traditional, slices.Clone(c.ones))
	for v := 0; v < c.n; v++ {
		s.rowStart[v+1] = s.rowStart[v] + int64(len(c.nbr[v]))
	}
	scs := newScratches(c.n, workers)
	// The row stage fails only on cancellation, and this context never ends.
	_ = s.fillRows(context.TODO(), scs, true, func(v int, sc *sparseScratch, row []int32) []int32 {
		for j, n11 := range c.nbr[v] {
			if int(j) > v {
				row = append(row, j)
				sc.cnt[j] = n11
			}
		}
		return row
	})
	s.finishTally(scs)
	return s
}

// ActiveNodes returns, ascending, the nodes with at least one co-occurring
// partner — the only nodes whose candidate sets can be non-empty under a
// non-negative threshold, and therefore the only nodes the streaming
// service's recompute loop must search.
func (c *IncrementalCounts) ActiveNodes() []int {
	var out []int
	for v := 0; v < c.n; v++ {
		if len(c.nbr[v]) > 0 {
			out = append(out, v)
		}
	}
	return out
}

// InferFromSource is the incremental entry point: it runs the threshold and
// parent-search stages over an already-assembled sparse engine, scoring
// from the status matrix of the same observations (the scorer of Eq. 13
// needs the full columns; the pairwise stage does not rescan them). The
// result is bit-identical to InferContext over the same matrix at any
// worker count. sm and src must describe the same stream: equal n and β,
// and row r of sm must be the r-th appended row. The streaming service
// assembles the source under its state lock (cheap) and then searches
// outside it (expensive) — the source and matrix are immutable snapshots,
// so concurrent folds cannot race the search.
func InferFromSource(ctx context.Context, sm *diffusion.StatusMatrix, src *SparseIMI, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := validateOptions(sm, opt); err != nil {
		return nil, err
	}
	if src.n != sm.N() || src.beta != sm.Beta() {
		return nil, fmt.Errorf("core: source describes %d nodes × %d rows, matrix is %d × %d",
			src.n, src.beta, sm.N(), sm.Beta())
	}
	if src.traditional != opt.TraditionalMI {
		return nil, fmt.Errorf("core: source built with traditional=%v, options say %v", src.traditional, opt.TraditionalMI)
	}
	rec := obs.From(ctx)
	defer rec.StartSpan("core/infer").End()
	rec.Counter("core/sparse/rows").Add(int64(src.n))
	rec.Counter("core/sparse/pairs").Add(src.CoPairs())
	rec.Counter("core/sparse/pairs_skipped").Add(src.TotalPairs() - src.CoPairs())
	rec.Counter("core/sparse/kept").Add(src.kept())
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: IMI stage: %w", err)
	}
	autoTau, tau := selectThreshold(ctx, src, sm.Beta(), opt)
	return inferStages(ctx, NewScorer(sm), src, opt, autoTau, tau)
}
