package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"tends/internal/diffusion"
	"tends/internal/obs"
)

// SparseIMI is the pairwise engine of Algorithm 1's pruning stage: the
// pool of every pair's value (Eq. 25, or plain mutual information in the
// ablation mode), from which τ is selected, and per-node CSR rows holding
// pairs that co-occur in at least one diffusion process, from which each
// node's candidates are read. A pair that never co-occurs has n11 = 0, so
// its value depends only on the two marginal infected counts — a
// closed-form function of at most (β+1)² count-class pairs, which enter
// the value pool as run-length "marginal runs" and are otherwise computed
// on demand, never stored per pair.
//
// The build gathers each row's co-pairs u > v with their joint infected
// counts n11 in one of two ways, and everything past the gather is shared.
// The walk reads an inverted index (cascade → infected nodes): walking a
// node's cascade lists meets each co-occurring node once per shared
// cascade, so it counts n11 and never meets a pair that does not co-occur
// (the step for sparse diffusions at scale). The popcount step computes
// popcount(col(v) & col(u)) for every pair over the Scorer's packed
// columns, cheaper when most pairs co-occur (see popcountGather). The build
// picks one of them from the observations (see chooseStep).
//
// The build walks the rows twice. Walk 1 only tallies: a pair's value is a
// function of its key (n11, ni, nj) alone, so the pairs are counted by key
// (see tally) into two compact tallies — the values by their exact bits
// (the value pool's multiset, with no entry per pair) and the co-pairs per
// pair of marginal counts (which the marginal runs need). Walk 2 fills the
// CSR. A full engine stores every co-occurring pair; inference, which knows
// its threshold τ between the walks, keeps only the pairs whose value
// clears it (see buildSparse), so its memory grows with the search
// candidates rather than with the co-pairs. Walk 2 skips, without
// computing a value, every pair whose n11 is below the smallest joint count
// at which any class pair's value clears the floor (minKeptJoint), and the
// rows whose own marginal count is below it.
//
// Every value goes through the same pairValue arithmetic, so At, the value
// pool and the thresholds are bit-identical whichever step gathered the
// rows and at any worker count. The walk costs O(n + β + Σ_c
// |infected(c)|²), the popcount step O(n²·β/64), past the Scorer's O(n·β/64)
// pass over the columns; the build adds O(coPairs·log) to sort a full
// engine's rows, O(V log V + C²) for the pool and at most Σ lo over the
// C(C+1)/2 class pairs for minKeptJoint, with V distinct positive values
// and C count classes. Memory beyond the stored rows is O(n + β) per
// worker, and a byte per pair while the popcount step builds for
// inference (see popcountGather), a step chooseStep takes only where the
// cascades' pair meetings number at least ⌈β/64⌉/8 per pair.
type SparseIMI struct {
	n, beta     int
	traditional bool
	mt          *miTable
	ones        []int32 // infected count per node

	// Symmetric CSR: row i holds the ascending neighbor list of node i with
	// the pair values alongside — every co-occurring pair when floor is
	// −Inf, otherwise only the pairs whose value exceeds floor.
	floor    float64
	rowStart []int64
	nbr      []int32
	val      []float64

	// Count classes: distinct infected counts, ascending; classOf maps a
	// node to its class index.
	classVals  []int32
	classOf    []int32
	classSize  []int64
	classNodes [][]int32
	byClass    []int32 // the class lists back to back: nodes by count, then id

	// maxMarginal[a] is the largest value of a never-co-occurring pair
	// with one end in class a (-Inf when there is none).
	maxMarginal []float64

	pool    *valuePool
	coPairs int64
}

// newSparseIMI returns a full engine over the given marginal counts with
// its count classes and no rows yet.
func newSparseIMI(n, beta int, traditional bool, ones []int32) *SparseIMI {
	s := &SparseIMI{
		n: n, beta: beta, traditional: traditional,
		mt:       cachedMITable(beta),
		ones:     ones,
		floor:    math.Inf(-1),
		rowStart: make([]int64, n+1),
	}
	s.classify()
	return s
}

// ComputeSparseIMIContext is ComputeIMIContext.
//
// Deprecated: the build chooses its counting step itself; call
// ComputeIMIContext.
func ComputeSparseIMIContext(ctx context.Context, sm *diffusion.StatusMatrix, traditional bool, workers int) (*SparseIMI, error) {
	return ComputeIMIContext(ctx, sm, traditional, workers)
}

// countStep is how the build counts each pair's joint infections.
type countStep uint8

const (
	autoStep     countStep = iota // chosen from the observations by chooseStep
	popcountStep                  // popcount over every pair's status columns
	walkStep                      // the cascade walk over the co-occurring pairs
)

func (c countStep) String() string { return [...]string{"auto", "popcount", "walk"}[c] }

// walkCostFactor is K of chooseStep's rule: what one pair meeting of the
// cascade walk costs, in popcounted words of one pair. The walk pays for
// a meeting with a scattered count update, a row append and, per co-pair,
// a sort and a mirror, against one AND and popcount of two adjacent
// column words. Timed on a 2-vCPU VM (EXPERIMENTS.md "Choosing the
// counting step"), popcount won below a ratio of about 5 and tied near 15,
// and the walk won from 48 up; 8 keeps both benchmark batch inputs
// (ratios 4.65 and 6,205) on their faster step, the nearer 1.7× from K.
const walkCostFactor = 8

// cascadeOffsets returns the inverted index's offsets: entry p+1 less
// entry p is s_p, the number of nodes infected in process p, from one
// counting pass over the scorer's infected lists.
func cascadeOffsets(view *Scorer) []int64 {
	cascOff := make([]int64, view.beta+1)
	for _, p := range view.inf {
		cascOff[p+1]++
	}
	for p := 0; p < view.beta; p++ {
		cascOff[p+1] += cascOff[p]
	}
	return cascOff
}

// chooseStep returns the counting step with the smaller cost estimate: the
// walk iff popcounting the n(n−1)/2 pairs' ⌈β/64⌉ words each exceeds
// walkCostFactor times the walk's Σ_p s_p(s_p−1)/2 pair meetings. The
// choice is one for the whole build, and it cannot change a result, since
// both steps produce bit-identical engines.
func chooseStep(view *Scorer, cascOff []int64) countStep {
	var meetings float64
	for p := range view.beta {
		s := float64(cascOff[p+1] - cascOff[p])
		meetings += s * (s - 1) / 2
	}
	if float64(view.n)*float64(view.n-1)/2*float64(view.words) > walkCostFactor*meetings {
		return walkStep
	}
	return popcountStep
}

// gatherFunc appends to row the nodes u > v that co-occur with v and
// leaves each one's joint infected count n11 in sc.cnt. sc.cnt must be all
// zero on entry; the caller resets the entries of row once read.
type gatherFunc func(v int, sc *sparseScratch, row []int32) []int32

// buildSparse runs the batch build over the scorer's view of the
// observations, counting n11 by the given step, or by chooseStep's with
// autoStep. With selectFloor nil it builds a full engine. Otherwise
// selectFloor is called between the walks, when the value pool and the
// marginal maxima are known, and walk 2 keeps only the pairs whose value
// exceeds the floor it returns.
func buildSparse(ctx context.Context, view *Scorer, traditional bool, workers int, step countStep, selectFloor func(*SparseIMI) float64) (*SparseIMI, error) {
	rec := obs.From(ctx)
	span := rec.StartSpan("core/imi")
	defer func() { span.End() }()
	n := view.n
	ones := make([]int32, n)
	for v := range ones {
		ones[v] = int32(view.ones(v))
	}
	s := newSparseIMI(n, view.beta, traditional, ones)
	scs := newScratches(n, workers)
	var cascOff []int64
	if step != popcountStep {
		cascOff = cascadeOffsets(view)
	}
	if step == autoStep {
		step = chooseStep(view, cascOff)
	}
	popcount := step == popcountStep
	var gather gatherFunc
	if popcount {
		gather = popcountGather(view, selectFloor != nil)
		// Popcount rows hold up to n−1 nodes, and a worker meets up to one
		// value per pair: sizing the row and the tallies for them, up to
		// popcountReserve, spares walk 1 their regrowth.
		keys := int(min(s.TotalPairs(), popcountReserve))
		nc := len(s.classVals)
		for _, sc := range scs {
			sc.row = make([]int32, 0, n)
			sc.tally.counts.reserve(keys)
			sc.classPairs.reserve(min(keys, nc*(nc+1)/2))
		}
	} else {
		gather = cascadeGather(view, cascOff)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Walk 1. A full engine also counts each row's length, to size the CSR.
	if selectFloor == nil {
		for _, sc := range scs {
			sc.deg = make([]int32, n)
		}
	}
	if err := s.tally(ctx, scs, popcount, gather); err != nil {
		return nil, err
	}
	if popcount {
		// Walk 1 popcounted every pair of the triangle, row by row.
		rec.Counter("core/imi/rows").Add(int64(max(n-1, 0)))
		rec.Counter("core/imi/pairs").Add(s.TotalPairs())
	}

	// Walk 2: fill every row, or keep the pairs above the floor.
	var err error
	if selectFloor == nil {
		for v := range n {
			s.rowStart[v+1] = s.rowStart[v]
			for _, sc := range scs {
				s.rowStart[v+1] += int64(sc.deg[v])
			}
		}
		err = s.fillRows(ctx, scs, false, gather)
	} else {
		// The floor's selection is timed under its own spans, not core/imi.
		span.End()
		floor := selectFloor(s)
		span = rec.StartSpan("core/imi")
		err = s.keepRows(ctx, scs, floor, gather)
	}
	if err != nil {
		return nil, err
	}
	// Either step keeps the pairs of one walk 2.
	rec.Counter("core/sparse/kept").Add(s.kept())
	if popcount {
		return s, nil
	}

	var lookups int64
	for _, sc := range scs {
		lookups += sc.lookups
	}
	rec.Counter("core/sparse/rows").Add(int64(n))
	rec.Counter("core/sparse/lookups").Add(lookups)
	rec.Counter("core/sparse/pairs").Add(s.coPairs)
	rec.Counter("core/sparse/pairs_skipped").Add(s.TotalPairs() - s.coPairs)
	return s, nil
}

// cascadeGather returns the walk's gather over an inverted index
// (cascade → infected-node list), the transpose of the scorer's node →
// infected-process lists by the counting pass of cascOff (cascadeOffsets)
// and one fill pass. Filling in ascending node order leaves every cascade
// list sorted, so the gather reads each list from its end down to v and
// meets every co-occurring pair from its lower end only; it appends the
// nodes unordered.
func cascadeGather(view *Scorer, cascOff []int64) gatherFunc {
	n, beta := view.n, view.beta
	cascNodes := make([]int32, cascOff[beta])
	cursor := slices.Clone(cascOff[:beta])
	for v := 0; v < n; v++ {
		for _, p := range view.infected(v) {
			cascNodes[cursor[p]] = int32(v)
			cursor[p]++
		}
	}
	return func(v int, sc *sparseScratch, row []int32) []int32 {
		for _, p := range view.infected(v) {
			list := cascNodes[cascOff[p]:cascOff[p+1]]
			for k := len(list) - 1; k >= 0 && int(list[k]) > v; k-- {
				u := list[k]
				if sc.cnt[u] == 0 {
					row = append(row, u)
				}
				sc.cnt[u]++
			}
		}
		return row
	}
}

// newScratches returns one build scratch per worker (0 workers means
// GOMAXPROCS), never more than there are node chunks to claim.
func newScratches(n, workers int) []*sparseScratch {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	scs := make([]*sparseScratch, max(1, min(workers, (n+nodeChunk-1)/nodeChunk)))
	for w := range scs {
		scs[w] = &sparseScratch{cnt: make([]int32, n)}
	}
	return scs
}

// nodeChunk is the number of consecutive nodes a worker claims at once.
const nodeChunk = 256

// parallelNodes runs body(v) for every node v < n, one goroutine per
// scratch, claiming fixed-size chunks off a shared counter. Each worker
// visits its nodes in ascending order. Bodies write disjoint per-node slots
// or their own scratch, so output is identical for any worker count.
// Workers stop claiming once ctx is done.
func parallelNodes(ctx context.Context, n int, scs []*sparseScratch, body func(v int, sc *sparseScratch)) {
	nChunks := (n + nodeChunk - 1) / nodeChunk
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, sc := range scs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				for v := c * nodeChunk; v < min((c+1)*nodeChunk, n); v++ {
					body(v, sc)
				}
			}
		}()
	}
	wg.Wait()
}

// sparseScratch is the per-worker state of the build walks.
type sparseScratch struct {
	cnt  []int32 // per-node joint infected count, all zero between rows
	row  []int32 // the walked row
	deg  []int32 // the co-pairs walk 1 met per node, when a full build sizes its rows
	kept []keptPair
	// need is the smallest joint count walk 2 can keep; its gather may
	// leave out the pairs below it.
	need int32
	// small and touched count pairs of small joint count per key part, the
	// set entries in first-hit order (see countRows and countRuns):
	// small[nu] for a walked row's single-cascade pairs whose other end has
	// marginal count nu, or small[(n11−1)·C + c] for a popcount run's pairs
	// of joint count n11 whose other end is in class c, the run's rows
	// being of class runClass; touched holds nu, or (n11, c).
	small    []int32
	touched  []int32
	runClass int32
	lookups  int64 // value-cache lookups, for core/sparse/lookups
	cache    [1 << valueCacheBits]cachedValue
	tally    valueTally
	// classPairs counts the co-pairs per pair of marginal counts, keyed by
	// classPairKey.
	classPairs countTable
}

// keptPair is an upper-triangle pair walk 2 keeps, v < u.
type keptPair struct {
	v, u int32
	val  float64
}

// lookup returns the worker's cache entry for the pair of v and u, whose
// joint infected count it reads from sc.cnt and resets.
func (s *SparseIMI) lookup(sc *sparseScratch, v int, u int32) *cachedValue {
	ni, nu := s.ones[v], s.ones[u]
	n11 := sc.cnt[u]
	sc.cnt[u] = 0
	return s.cached(sc, pairKey{n11, min(ni, nu), max(ni, nu)})
}

// cached returns the worker's cache entry for key. On a miss it computes
// the value and first moves the evicted key's upper-triangle count into the
// worker's tallies.
func (s *SparseIMI) cached(sc *sparseScratch, key pairKey) *cachedValue {
	sc.lookups++
	e := &sc.cache[key.hash()>>(64-valueCacheBits)]
	if e.key != key {
		sc.count(e.key, e.v, e.n)
		*e = cachedValue{key: key, v: s.value(key)}
	}
	return e
}

// value returns the value of a pair with key.
func (s *SparseIMI) value(key pairKey) float64 {
	return pairValue(s.mt, s.traditional, s.beta, int(key.n11), int(key.lo), int(key.hi))
}

// count adds c upper-triangle pairs of key, whose value is v, to the
// worker's tallies: the value by its bits and the co-pairs of the key's
// marginal counts.
func (sc *sparseScratch) count(key pairKey, v float64, c int64) {
	if c > 0 {
		sc.tally.add(v, c)
		sc.classPairs.add(classPairKey(key.lo, key.hi), c)
	}
}

// classPairKey packs a pair of marginal counts lo ≤ hi. lo ≥ 1 for a
// co-occurring pair, so the key is never 0.
func classPairKey(lo, hi int32) uint64 { return uint64(uint32(lo))<<32 | uint64(uint32(hi)) }

// tally is walk 1: it counts every co-occurring pair, gathered from its
// lower end, into the workers' tallies (and into sc.deg at both ends when
// that is set), and then assembles the marginal runs and value pool.
func (s *SparseIMI) tally(ctx context.Context, scs []*sparseScratch, popcount bool, gather gatherFunc) error {
	if popcount {
		s.countRuns(ctx, scs, gather)
	} else {
		s.countRows(ctx, scs, gather)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.finishTally(scs)
	return nil
}

// countRows counts the walk's rows, in node order. A pair that shares one
// cascade has key (1, ni, nu), so its value depends on nu alone within the
// row: such pairs are counted per marginal count nu and enter the cache
// once per distinct nu at the end of the row. At scale almost every
// co-pair is one of them. The other pairs are counted through the cache,
// which holds the few hundred keys of the pairs that share more.
func (s *SparseIMI) countRows(ctx context.Context, scs []*sparseScratch, gather gatherFunc) {
	for _, sc := range scs {
		// At least 256 bytes, so that no two workers' counters share a
		// cache line.
		sc.small = make([]int32, max(s.beta+1, 64))
	}
	parallelNodes(ctx, s.n, scs, func(v int, sc *sparseScratch) {
		sc.row = gather(v, sc, sc.row[:0])
		for _, u := range sc.row {
			if sc.deg != nil {
				sc.deg[u]++
			}
			if sc.cnt[u] != 1 {
				s.lookup(sc, v, u).n++
				continue
			}
			sc.cnt[u] = 0
			nu := s.ones[u]
			if sc.small[nu] == 0 {
				sc.touched = append(sc.touched, nu)
			}
			sc.small[nu]++
		}
		ni := s.ones[v]
		for _, nu := range sc.touched {
			s.cached(sc, pairKey{1, min(ni, nu), max(ni, nu)}).n += int64(sc.small[nu])
			sc.small[nu] = 0
		}
		sc.touched = sc.touched[:0]
		if sc.deg != nil {
			sc.deg[v] += int32(len(sc.row))
		}
	})
}

// countRuns counts the popcount step's rows, in class order. Within a run
// of rows of one count class a pair's key (n11, ni, nu) depends only on n11
// and the class of u, so a pair whose n11 is at most a bound is counted per
// (n11, class of u) in an array, whose entries are counted by key when the
// class of the rows changes. The step meets a key per few pairs, more than
// a cache holds, so the keys and the pairs past the bound are counted
// straight into the tallies.
func (s *SparseIMI) countRuns(ctx context.Context, scs []*sparseScratch, gather gatherFunc) {
	nc := int32(len(s.classVals))
	small := int32(min(s.beta, max(1, popcountRunCells/len(s.classVals))))
	for _, sc := range scs {
		size := max(small*nc, 64) // no two workers' counters share a cache line
		sc.small, sc.touched, sc.runClass = make([]int32, size), make([]int32, 0, 2*size), -1
	}
	count := func(sc *sparseScratch, key pairKey, c int64) {
		sc.lookups++
		sc.count(key, s.value(key), c)
	}
	flush := func(sc *sparseScratch) {
		for k := 0; k < len(sc.touched); k += 2 {
			n11, c := sc.touched[k], sc.touched[k+1]
			i := (n11-1)*nc + c
			va, vc := s.classVals[sc.runClass], s.classVals[c]
			count(sc, pairKey{n11, min(va, vc), max(va, vc)}, int64(sc.small[i]))
			sc.small[i] = 0
		}
		sc.touched = sc.touched[:0]
	}
	parallelNodes(ctx, s.n, scs, func(k int, sc *sparseScratch) {
		v := int(s.byClass[k])
		if a := s.classOf[v]; a != sc.runClass {
			flush(sc)
			sc.runClass = a
		}
		sc.row = gather(v, sc, sc.row[:0])
		ni := s.ones[v]
		for _, u := range sc.row {
			n11 := sc.cnt[u]
			sc.cnt[u] = 0
			if sc.deg != nil {
				sc.deg[u]++
			}
			if n11 > small {
				nu := s.ones[u]
				count(sc, pairKey{n11, min(ni, nu), max(ni, nu)}, 1)
				continue
			}
			c := s.classOf[u]
			i := (n11-1)*nc + c
			if sc.small[i] == 0 {
				sc.touched = append(sc.touched, n11, c)
			}
			sc.small[i]++
		}
		if sc.deg != nil {
			sc.deg[v] += int32(len(sc.row))
		}
	})
	for _, sc := range scs {
		flush(sc)
	}
}

// finishTally flushes the workers' caches, merges their tallies, and
// assembles the marginal runs and value pool from them.
func (s *SparseIMI) finishTally(scs []*sparseScratch) {
	t, classPairs := &scs[0].tally, &scs[0].classPairs
	for w, sc := range scs {
		for i := range sc.cache {
			e := &sc.cache[i]
			sc.count(e.key, e.v, e.n)
			e.n = 0
		}
		if w > 0 {
			t.merge(&sc.tally)
			for _, e := range sc.classPairs.slots {
				if e.key != 0 {
					classPairs.add(e.key, e.n)
				}
			}
			sc.tally, sc.classPairs = valueTally{}, countTable{}
		}
	}
	for _, e := range classPairs.slots {
		s.coPairs += e.n
	}
	s.assemble(t, classPairs)
	*t, *classPairs = valueTally{}, countTable{}
}

// fillRows fills the full CSR rows whose extents s.rowStart holds: each
// row's co-pairs gathered from it, sorted, into its tail, with their
// values through the workers' caches, and then, by one pass in ascending v,
// every pair mirrored into the head of its upper end's row, so that every
// row ascends. The rows are taken in class order, so that a run of rows of
// one marginal count reuses its cache entries. With count set it also
// counts the pairs into the caches, as tally does, for a finishTally to
// follow; IncrementalCounts.Source fills and tallies in this one pass.
func (s *SparseIMI) fillRows(ctx context.Context, scs []*sparseScratch, count bool, gather gatherFunc) error {
	s.nbr = make([]int32, s.rowStart[s.n])
	s.val = make([]float64, s.rowStart[s.n])
	parallelNodes(ctx, s.n, scs, func(i int, sc *sparseScratch) {
		v := int(s.byClass[i])
		sc.row = gather(v, sc, sc.row[:0])
		slices.Sort(sc.row)
		at := s.rowStart[v+1] - int64(len(sc.row))
		for k, u := range sc.row {
			e := s.lookup(sc, v, u)
			s.nbr[at+int64(k)], s.val[at+int64(k)] = u, e.v
			if count {
				e.n++
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	// Row v's head is full once every lower row has been mirrored.
	cursor := slices.Clone(s.rowStart[:s.n])
	for v := range s.n {
		for k := cursor[v]; k < s.rowStart[v+1]; k++ {
			u := s.nbr[k]
			s.nbr[cursor[u]], s.val[cursor[u]] = int32(v), s.val[k]
			cursor[u]++
		}
	}
	return nil
}

// keepRows is the filtered walk 2: gather appends the nodes u > v that
// co-occur with v, and only the pairs whose value exceeds floor are kept.
// A pair whose n11 is below minKeptJoint(floor) cannot be kept, so it is
// reset without a lookup, and a row whose own marginal count is below it
// is not walked at all.
// Each worker keeps its pairs in node order, sorted by u within a node;
// scattering them in ascending v then leaves every row ascending, because
// row v receives its lower neighbors (from earlier nodes) before its own
// upper ones.
func (s *SparseIMI) keepRows(ctx context.Context, scs []*sparseScratch, floor float64, gather gatherFunc) error {
	s.floor = floor
	need := s.minKeptJoint(floor)
	for _, sc := range scs {
		sc.need = need
	}
	parallelNodes(ctx, s.n, scs, func(v int, sc *sparseScratch) {
		if s.ones[v] < need {
			return
		}
		sc.row = gather(v, sc, sc.row[:0])
		start := len(sc.kept)
		for _, u := range sc.row {
			if sc.cnt[u] < need {
				sc.cnt[u] = 0
				continue
			}
			if val := s.lookup(sc, v, u).v; val > floor {
				sc.kept = append(sc.kept, keptPair{int32(v), u, val})
			}
		}
		slices.SortFunc(sc.kept[start:], func(a, b keptPair) int { return cmp.Compare(a.u, b.u) })
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, sc := range scs {
		for _, p := range sc.kept {
			s.rowStart[p.v+1]++
			s.rowStart[p.u+1]++
		}
	}
	for v := 0; v < s.n; v++ {
		s.rowStart[v+1] += s.rowStart[v]
	}
	s.nbr = make([]int32, s.rowStart[s.n])
	s.val = make([]float64, s.rowStart[s.n])
	cursor := slices.Clone(s.rowStart[:s.n])
	put := func(i, j int32, val float64) {
		s.nbr[cursor[i]], s.val[cursor[i]] = j, val
		cursor[i]++
	}
	pos := make([]int, len(scs))
	for v := int32(0); v < int32(s.n); v++ {
		for w, sc := range scs {
			for ; pos[w] < len(sc.kept) && sc.kept[pos[w]].v == v; pos[w]++ {
				p := sc.kept[pos[w]]
				put(p.v, p.u, p.val)
				put(p.u, p.v, p.val)
			}
		}
	}
	for _, sc := range scs {
		sc.kept = nil
	}
	return nil
}

// minKeptJoint returns the smallest joint count n11 at which some pair of
// count classes has a value above floor, math.MaxInt32 when none has. Every
// co-occurring pair's key (n11, lo, hi) is one of the cells scanned, so no
// pair with a smaller n11 clears floor, whether or not values grow with
// n11. Cost is at most Σ lo over the C(C+1)/2 class pairs, and far less
// once a small n11 clears.
func (s *SparseIMI) minKeptJoint(floor float64) int32 {
	need := int32(math.MaxInt32)
	for a, lo := range s.classVals {
		for _, hi := range s.classVals[a:] {
			for n11 := max(1, lo+hi-int32(s.beta)); n11 <= lo && n11 < need; n11++ {
				if pairValue(s.mt, s.traditional, s.beta, int(n11), int(lo), int(hi)) > floor {
					need = n11
				}
			}
		}
	}
	return need
}

// pairKey is everything pairValue reads from a pair besides β: its joint
// infected count and its two marginal counts, canonicalized lo ≤ hi. Pairs
// with equal keys have bit-identical values. The fields are full int32s
// (counts are bounded by β, which the streaming service grows one row at a
// time), so keys are exact for every β a status matrix can hold.
type pairKey struct{ n11, lo, hi int32 }

func (k pairKey) hash() uint64 {
	return ((uint64(uint32(k.n11))<<32|uint64(uint32(k.lo)))*0x9E3779B97F4A7C15 + uint64(uint32(k.hi))) * 0xC2B2AE3D27D4EB4F
}

// valueCacheBits sizes each worker's direct-mapped cache of pair values,
// which also counts the upper-triangle pairs of each cached key until the
// key is evicted into the worker's tallies. At scale the walk looks up only
// the few hundred keys of the pairs sharing two or more cascades, plus one
// single-cascade key per row and marginal count, and 1024 entries hold
// them all (176 keys at n = 10⁵, β = 1024); when most pairs have keys of
// their own, as in small dense inputs, the tallies' compact tables hold
// them instead. The zero key marks an empty entry, since a co-occurring
// pair has n11 ≥ 1.
const valueCacheBits = 10

type cachedValue struct {
	key pairKey
	n   int64
	v   float64
}

// popcountRunCells bounds the (joint count, class) entries in which the
// popcount step counts a run of rows, so that with C classes the joint
// counts up to 2¹⁴/C (at most β) are counted there: 148 on an LFR input of
// n = 1000, β = 1024 with 110 classes, above every pair's joint count.
const popcountRunCells = 1 << 14

// popcountReserve caps the values a popcount build sizes each worker's
// tallies for up front, a little under the ~3.8·10⁴ of n = 1000,
// β = 1024; a larger input grows them past it.
const popcountReserve = 1 << 15

// countTable counts by nonzero 64-bit keys in an open-addressed table
// (linear probing, power-of-two size, at most three quarters full).
type countTable struct {
	slots []countSlot
	used  int
	shift uint // 64 − log₂ len(slots)
}

type countSlot struct {
	key uint64 // 0 marks an empty slot
	n   int64
}

func (t *countTable) add(key uint64, c int64) {
	if 4*(t.used+1) > 3*len(t.slots) {
		t.grow(max(64, 2*len(t.slots)))
	}
	mask := len(t.slots) - 1
	for i := int(key * 0x9E3779B97F4A7C15 >> t.shift); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			t.slots[i].n += c
			return
		case 0:
			t.slots[i] = countSlot{key, c}
			t.used++
			return
		}
	}
}

// reserve sizes the table to hold n keys without growing.
func (t *countTable) reserve(n int) {
	size := 64
	for 3*size < 4*n {
		size *= 2
	}
	if size > len(t.slots) {
		t.grow(size)
	}
}

// grow moves the table's keys into a table of size slots, a power of two.
func (t *countTable) grow(size int) {
	old := t.slots
	t.slots, t.used, t.shift = make([]countSlot, size), 0, uint(64-bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e.key != 0 {
			t.add(e.key, e.n)
		}
	}
}

// get returns the count of key, 0 when it was never added.
func (t *countTable) get(key uint64) int64 {
	if len(t.slots) == 0 {
		return 0
	}
	mask := len(t.slots) - 1
	for i := int(key * 0x9E3779B97F4A7C15 >> t.shift); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return t.slots[i].n
		case 0:
			return 0
		}
	}
}

// classify derives the count classes from the marginal counts s.ones: the
// distinct counts, ascending, each node's class and each class's nodes,
// carved from one array. Cost is O(n + β).
func (s *SparseIMI) classify() {
	classIdx := make([]int32, s.beta+1)
	nClasses := 0
	for _, c := range s.ones {
		if classIdx[c] == 0 {
			classIdx[c] = 1
			nClasses++
		}
	}
	s.classVals = make([]int32, 0, nClasses)
	for c := range classIdx {
		if classIdx[c] != 0 {
			classIdx[c] = int32(len(s.classVals) + 1)
			s.classVals = append(s.classVals, int32(c))
		}
	}
	s.classOf = make([]int32, s.n)
	s.classSize = make([]int64, nClasses)
	for v, c := range s.ones {
		k := classIdx[c] - 1
		s.classOf[v] = k
		s.classSize[k]++
	}
	s.classNodes = make([][]int32, nClasses)
	s.byClass = make([]int32, s.n)
	nodes := s.byClass
	for k, size := range s.classSize {
		s.classNodes[k], nodes = nodes[:0:size], nodes[size:]
	}
	for v, k := range s.classOf {
		s.classNodes[k] = append(s.classNodes[k], int32(v))
	}
}

// assemble derives everything that depends only on the count classes and
// the co-pair counts per pair of marginal counts: the marginal runs of the
// never-co-occurring pairs, which it adds to the co-occurring values
// already in t, and the value pool. It reads no CSR row. Cost is O(C²) for
// C count classes.
func (s *SparseIMI) assemble(t *valueTally, classPairs *countTable) {
	nClasses := len(s.classVals)
	// Marginal runs: for every unordered class pair, the pairs that never
	// co-occur share one closed-form value (n11 = 0). A class pair whose
	// counts sum past β cannot have a zero pair (pigeonhole), and indeed
	// its zero-pair multiplicity is always 0 here, so the n11 = 0 cell
	// arithmetic below never sees negative counts.
	s.maxMarginal = make([]float64, nClasses)
	for a := range s.maxMarginal {
		s.maxMarginal[a] = math.Inf(-1)
	}
	for a, va := range s.classVals {
		for c := a; c < nClasses; c++ {
			vc := s.classVals[c]
			tot := s.classSize[a] * s.classSize[c]
			if a == c {
				tot = s.classSize[a] * (s.classSize[a] - 1) / 2
			}
			zp := tot - classPairs.get(classPairKey(va, vc))
			if zp <= 0 {
				continue
			}
			mv := pairValue(s.mt, s.traditional, s.beta, 0, int(va), int(vc))
			t.add(mv, zp)
			s.maxMarginal[a] = max(s.maxMarginal[a], mv)
			s.maxMarginal[c] = max(s.maxMarginal[c], mv)
		}
	}
	s.pool = t.finish()
}

// keepFloor is the floor below which walk 2 may drop pairs for a search
// that prunes at tau: tau itself when no never-co-occurring pair clears
// tau (so every candidate is a stored pair) and the search reads no
// per-node pool; −Inf, a full engine, otherwise.
func (s *SparseIMI) keepFloor(tau float64, perNode bool) float64 {
	if perNode {
		return math.Inf(-1)
	}
	for _, mv := range s.maxMarginal {
		if tau < mv {
			return math.Inf(-1)
		}
	}
	return tau
}

// filtered reports whether walk 2 dropped the pairs at or below s.floor.
func (s *SparseIMI) filtered() bool { return s.floor > math.Inf(-1) }

// N returns the number of nodes.
func (s *SparseIMI) N() int { return s.n }

// CoPairs returns the number of unordered node pairs that co-occur in at
// least one diffusion process — the pairs a full engine stores.
func (s *SparseIMI) CoPairs() int64 { return s.coPairs }

// kept returns the number of unordered pairs the CSR stores.
func (s *SparseIMI) kept() int64 { return s.rowStart[s.n] / 2 }

// TotalPairs returns n(n−1)/2.
func (s *SparseIMI) TotalPairs() int64 { return int64(s.n) * int64(s.n-1) / 2 }

// find locates j in row i's neighbor list.
func (s *SparseIMI) find(i int, j int32) (int64, bool) {
	lo, hi := s.rowStart[i], s.rowStart[i+1]
	row := s.nbr[lo:hi]
	k := sort.Search(len(row), func(t int) bool { return row[t] >= j })
	if k < len(row) && row[k] == j {
		return lo + int64(k), true
	}
	return 0, false
}

// At returns the pairwise value for (i, j), i != j. A filtered engine knows
// only the values above its floor and panics on any other pair.
func (s *SparseIMI) At(i, j int) float64 {
	if i == j {
		panic("core: IMI is undefined for a node with itself")
	}
	if k, ok := s.find(i, int32(j)); ok {
		return s.val[k]
	}
	if s.filtered() {
		panic(fmt.Sprintf("core: pair (%d,%d) is not above the filtered engine's floor %v", i, j, s.floor))
	}
	// Never co-occurring: closed-form marginal-only value. n11 = 0 forces
	// ones[i]+ones[j] ≤ β (otherwise the pair would co-occur), so the cell
	// counts stay non-negative.
	return pairValue(s.mt, s.traditional, s.beta, 0, int(s.ones[i]), int(s.ones[j]))
}

// Candidates returns, for node i, every node j with value(i,j) > tau,
// ascending — the candidate parent set P_i of Algorithm 1. The fast path
// (marginal values all ≤ tau, the normal IMI regime, where a
// never-co-occurring pair's value is provably ≤ 0 ≤ τ) touches only node
// i's CSR row; the general path additionally scans the count classes whose
// marginal value clears tau, which supports the traditional-MI ablation and
// negative fixed thresholds. A filtered engine panics for tau below its
// floor, where it would miss the dropped pairs.
func (s *SparseIMI) Candidates(i int, tau float64) []int {
	if tau < s.floor {
		panic(fmt.Sprintf("core: Candidates at %v, below the filtered engine's floor %v", tau, s.floor))
	}
	lo, hi := s.rowStart[i], s.rowStart[i+1]
	count := 0
	for k := lo; k < hi; k++ {
		if s.val[k] > tau {
			count++
		}
	}
	ci := s.classOf[i]
	if s.maxMarginal[ci] <= tau {
		if count == 0 {
			return nil
		}
		out := make([]int, 0, count)
		for k := lo; k < hi; k++ {
			if s.val[k] > tau {
				out = append(out, int(s.nbr[k]))
			}
		}
		return out
	}
	// Some never-co-occurring class clears tau: collect the co-occurring
	// hits, then walk qualifying classes excluding self and row members.
	out := make([]int, 0, count)
	for k := lo; k < hi; k++ {
		if s.val[k] > tau {
			out = append(out, int(s.nbr[k]))
		}
	}
	for c := range s.classVals {
		if int(s.classVals[ci])+int(s.classVals[c]) > s.beta {
			continue // every such pair co-occurs; no marginal values exist
		}
		mv := pairValue(s.mt, s.traditional, s.beta, 0, int(s.classVals[ci]), int(s.classVals[c]))
		if mv <= tau {
			continue
		}
		for _, j := range s.classNodes[c] {
			if int(j) == i {
				continue
			}
			if _, ok := s.find(i, j); !ok {
				out = append(out, int(j))
			}
		}
	}
	sort.Ints(out)
	return out
}

func (s *SparseIMI) valuePool() *valuePool { return s.pool }

// nodePool summarizes the values involving node i for the per-node
// threshold selector: row values individually plus one marginal run per
// count class, weighted by how many of that class's nodes never co-occur
// with i. It needs the full row, so a filtered engine panics.
func (s *SparseIMI) nodePool(i int) *valuePool {
	if s.filtered() {
		panic("core: per-node pool of a filtered engine")
	}
	var t valueTally
	lo, hi := s.rowStart[i], s.rowStart[i+1]
	perClass := make([]int64, len(s.classVals))
	for k := lo; k < hi; k++ {
		t.add(s.val[k], 1)
		perClass[s.classOf[s.nbr[k]]]++
	}
	ci := s.classOf[i]
	for c := range s.classVals {
		rem := s.classSize[c] - perClass[c]
		if c == int(ci) {
			rem--
		}
		if rem <= 0 {
			continue
		}
		// rem > 0 implies a genuine never-co-occurring pair, which implies
		// ones[i]+classVals[c] ≤ β.
		t.add(pairValue(s.mt, s.traditional, s.beta, 0, int(s.ones[i]), int(s.classVals[c])), rem)
	}
	return t.finish()
}
