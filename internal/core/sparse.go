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

// SparseIMI is the sparse pairwise engine: instead of materializing the
// dense n(n−1)/2 triangle, it stores per-node CSR rows holding only
// neighbors each node co-occurs with in at least one diffusion process,
// found through an inverted index over the bit-packed status columns
// (cascade → infected-node list). Walking a node's cascade lists visits
// each co-occurring neighbor once per shared cascade, so the walk itself
// counts the pair's joint infections n11; no column is read again. A pair
// that never co-occurs has n11 = 0, so its value depends only on the two
// marginal infected counts — a closed-form function of at most (β+1)²
// count-class pairs, which enter the value pool as run-length "marginal
// runs" and are otherwise computed on demand, never stored per pair.
//
// The build walks the index twice. Walk 1 only tallies: a pair's value is a
// function of its key (n11, ni, nj) alone, so each worker caches values by
// key and counts the upper-triangle pairs of each cached key, which move
// into two compact tallies when the key leaves the cache — the values by
// their exact bits (the value pool's multiset, with no entry per pair) and
// the co-pairs per pair of marginal counts (which the marginal runs need).
// Walk 2 fills the CSR. A full engine stores every co-occurring pair;
// inference, which knows its threshold τ between the walks, keeps only the
// pairs whose value clears it (see buildSparse), so its memory grows with
// the search candidates rather than with the co-pairs.
//
// Every materialized or derived value goes through the same pairValue
// arithmetic as the dense engine, so a full SparseIMI's At is bit-identical
// to IMIMatrix.At for every pair, and the threshold selectors (which
// consume the shared valuePool form) return bit-identical τ. The pairwise
// stage costs O(n·β/64 + Σ_c |infected(c)|²) for the walks, O(coPairs·log
// k) to merge a full row's k ascending cascade runs, and O(V log V + C²)
// for the pool, with V distinct positive values and C count classes;
// memory beyond the stored rows is O(n + β + V) per worker.
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

	// maxMarginal[a] is the largest value of a never-co-occurring pair
	// with one end in class a (-Inf when there is none).
	maxMarginal []float64

	pool    *valuePool
	coPairs int64
}

// newSparseIMI returns a full engine over the given marginal counts with
// no rows yet.
func newSparseIMI(n, beta int, traditional bool, ones []int32) *SparseIMI {
	return &SparseIMI{
		n: n, beta: beta, traditional: traditional,
		mt:       cachedMITable(beta),
		ones:     ones,
		floor:    math.Inf(-1),
		rowStart: make([]int64, n+1),
	}
}

// ComputeSparseIMI builds the sparse pairwise engine from observations,
// using every CPU. It is the sparse counterpart of ComputeIMI.
func ComputeSparseIMI(sm *diffusion.StatusMatrix, traditional bool) *SparseIMI {
	s, _ := ComputeSparseIMIContext(context.Background(), sm, traditional, 0)
	return s
}

// ComputeSparseIMIContext is ComputeSparseIMI with an explicit worker count
// and cooperative cancellation (checked between node chunks). Like the
// dense engine, every row is computed independently from the same inputs,
// so the result is bit-identical for any worker count. The engine stores
// every co-occurring pair.
func ComputeSparseIMIContext(ctx context.Context, sm *diffusion.StatusMatrix, traditional bool, workers int) (*SparseIMI, error) {
	return buildSparse(ctx, sm, traditional, workers, nil)
}

// buildSparse runs the batch build. With selectFloor nil it builds a full
// engine. Otherwise selectFloor is called between the walks, when the
// value pool and the marginal maxima are known, and walk 2 keeps only the
// pairs whose value exceeds the floor it returns.
func buildSparse(ctx context.Context, sm *diffusion.StatusMatrix, traditional bool, workers int, selectFloor func(*SparseIMI) float64) (*SparseIMI, error) {
	rec := obs.From(ctx)
	span := rec.StartSpan("core/imi")
	defer func() { span.End() }()
	n, beta := sm.N(), sm.Beta()
	ones := make([]int32, n)
	for v := range ones {
		ones[v] = int32(sm.CountInfected(v))
	}
	s := newSparseIMI(n, beta, traditional, ones)

	// Inverted index: cascade → infected-node list, one counting pass and
	// one fill pass over the bit columns. Filling in ascending node order
	// leaves every cascade list sorted.
	words, data := sm.Words(), sm.ColumnData()
	cascCnt := make([]int64, beta)
	forEachSetBit := func(v int, f func(p int)) {
		col := data[v*words : (v+1)*words]
		for w, word := range col {
			for word != 0 {
				f(w*64 + bits.TrailingZeros64(word))
				word &= word - 1
			}
		}
	}
	for v := 0; v < n; v++ {
		forEachSetBit(v, func(p int) { cascCnt[p]++ })
	}
	cascOff := make([]int64, beta+1)
	for p := 0; p < beta; p++ {
		cascOff[p+1] = cascOff[p] + cascCnt[p]
	}
	cascNodes := make([]int32, cascOff[beta])
	cursor := append([]int64(nil), cascOff[:beta]...)
	for v := 0; v < n; v++ {
		forEachSetBit(v, func(p int) {
			cascNodes[cursor[p]] = int32(v)
			cursor[p]++
		})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// coOccur appends to row every node that shares a cascade with v, in
	// first-hit order, and leaves each one's joint infected count n11 in
	// sc.cnt. The nodes each cascade list hits first form an ascending run
	// (the lists are ascending); sc.runs receives the offsets of the
	// non-empty runs. sc.cnt must be all zero on entry; the caller resets the
	// entries of row once read.
	coOccur := func(v int, sc *sparseScratch, row []int32) []int32 {
		sc.runs = sc.runs[:0]
		forEachSetBit(v, func(p int) {
			start := len(row)
			for _, u := range cascNodes[cascOff[p]:cascOff[p+1]] {
				if int(u) == v {
					continue
				}
				if sc.cnt[u] == 0 {
					row = append(row, u)
				}
				sc.cnt[u]++
			}
			if len(row) > start {
				sc.runs = append(sc.runs, start)
			}
		})
		return row
	}
	// upper is coOccur restricted to the nodes u > v, unordered and without
	// runs: it reads each cascade list from its end down to v, so every
	// co-occurring pair is met from its lower end only.
	upper := func(v int, sc *sparseScratch, row []int32) []int32 {
		forEachSetBit(v, func(p int) {
			list := cascNodes[cascOff[p]:cascOff[p+1]]
			for k := len(list) - 1; k >= 0 && int(list[k]) > v; k-- {
				u := list[k]
				if sc.cnt[u] == 0 {
					row = append(row, u)
				}
				sc.cnt[u]++
			}
		})
		return row
	}
	scs := newScratches(n, workers)

	// Walk 1. A full engine also needs each row's length to size the CSR,
	// so it walks whole rows; inference walks only the upper triangle.
	var deg []int64
	gather1 := upper
	if selectFloor == nil {
		deg = make([]int64, n)
		gather1 = coOccur
	}
	if err := s.tally(ctx, scs, deg, gather1); err != nil {
		return nil, err
	}

	// Walk 2: merge each full row's ascending runs pairwise, or keep the
	// pairs above the floor.
	var err error
	if selectFloor == nil {
		for v, d := range deg {
			s.rowStart[v+1] = s.rowStart[v] + d
		}
		err = s.fillRows(ctx, scs, false, func(v int, sc *sparseScratch, row []int32) []int32 {
			row = coOccur(v, sc, row)
			sc.buf = mergeRuns(row, sc.buf, sc.runs)
			return row
		})
	} else {
		// The floor's selection is timed under its own spans, not core/imi.
		span.End()
		floor := selectFloor(s)
		span = rec.StartSpan("core/imi")
		err = s.keepRows(ctx, scs, floor, upper)
	}
	if err != nil {
		return nil, err
	}

	rec.Counter("core/sparse/rows").Add(int64(n))
	rec.Counter("core/sparse/pairs").Add(s.coPairs)
	rec.Counter("core/sparse/pairs_skipped").Add(s.TotalPairs() - s.coPairs)
	rec.Counter("core/sparse/kept").Add(s.kept())
	return s, nil
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
	cnt   []int32 // per-node joint infected count, all zero between rows
	row   []int32 // the walked row
	runs  []int   // offsets of a row's ascending runs
	buf   []int32 // mergeRuns' second buffer
	kept  []keptPair
	cache [1 << valueCacheBits]cachedValue
	tally valueTally
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
// joint infected count it reads from sc.cnt and resets. On a miss it
// computes the value and first moves the evicted key's upper-triangle count
// into the worker's tallies.
func (s *SparseIMI) lookup(sc *sparseScratch, v int, u int32) *cachedValue {
	ni, nu := s.ones[v], s.ones[u]
	key := pairKey{sc.cnt[u], min(ni, nu), max(ni, nu)}
	sc.cnt[u] = 0
	e := &sc.cache[key.hash()>>(64-valueCacheBits)]
	if e.key != key {
		sc.flush(e)
		*e = cachedValue{key: key, v: pairValue(s.mt, s.traditional, s.beta, int(key.n11), int(key.lo), int(key.hi))}
	}
	return e
}

// flush moves e's count of upper-triangle pairs into the worker's tallies.
func (sc *sparseScratch) flush(e *cachedValue) {
	if e.n == 0 {
		return
	}
	sc.tally.add(e.v, e.n)
	sc.classPairs.add(classPairKey(e.key.lo, e.key.hi), e.n)
	e.n = 0
}

// classPairKey packs a pair of marginal counts lo ≤ hi. lo ≥ 1 for a
// co-occurring pair, so the key is never 0.
func classPairKey(lo, hi int32) uint64 { return uint64(uint32(lo))<<32 | uint64(uint32(hi)) }

// tally is walk 1: gather appends nodes that co-occur with v to row and
// leaves each one's n11 in sc.cnt. tally counts the pairs with u > v into
// the workers' caches, records len(row) in deg when deg is non-nil, and
// then assembles the classes, marginal runs and value pool.
func (s *SparseIMI) tally(ctx context.Context, scs []*sparseScratch, deg []int64, gather func(v int, sc *sparseScratch, row []int32) []int32) error {
	parallelNodes(ctx, s.n, scs, func(v int, sc *sparseScratch) {
		sc.row = gather(v, sc, sc.row[:0])
		for _, u := range sc.row {
			e := s.lookup(sc, v, u)
			if int(u) > v {
				e.n++
			}
		}
		if deg != nil {
			deg[v] = int64(len(sc.row))
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	s.finishTally(scs)
	return nil
}

// finishTally flushes the workers' caches, merges their tallies, and
// assembles the classes, marginal runs and value pool from them.
func (s *SparseIMI) finishTally(scs []*sparseScratch) {
	distinct := 0
	classPairs := &scs[0].classPairs
	for w, sc := range scs {
		for i := range sc.cache {
			sc.flush(&sc.cache[i])
		}
		distinct += sc.tally.counts.used
		if w > 0 {
			for _, e := range sc.classPairs.slots {
				if e.key != 0 {
					classPairs.add(e.key, e.n)
				}
			}
			sc.classPairs = countTable{}
		}
	}
	for _, e := range classPairs.slots {
		s.coPairs += e.n
	}
	b := poolBuilder{vals: make([]float64, 0, distinct), cnts: make([]int64, 0, distinct)}
	for _, sc := range scs {
		sc.tally.addTo(&b)
		sc.tally = valueTally{}
	}
	s.assemble(&b, classPairs)
	*classPairs = countTable{}
}

// fillRows fills the full CSR rows whose extents s.rowStart holds. gather
// appends node v's co-occurring neighbors, ascending, to row and leaves
// each one's n11 in sc.cnt; fillRows reads and resets the counts and
// derives the values through the workers' caches. With count set it also
// counts the pairs with u > v there, as tally does, for a finishTally to
// follow; IncrementalCounts.Source fills and tallies in this one pass.
func (s *SparseIMI) fillRows(ctx context.Context, scs []*sparseScratch, count bool, gather func(v int, sc *sparseScratch, row []int32) []int32) error {
	s.nbr = make([]int32, s.rowStart[s.n])
	s.val = make([]float64, s.rowStart[s.n])
	parallelNodes(ctx, s.n, scs, func(v int, sc *sparseScratch) {
		lo := s.rowStart[v]
		row := gather(v, sc, s.nbr[lo:lo:s.rowStart[v+1]])
		for k, u := range row {
			e := s.lookup(sc, v, u)
			s.val[lo+int64(k)] = e.v
			if count && int(u) > v {
				e.n++
			}
		}
	})
	return ctx.Err()
}

// keepRows is the filtered walk 2: gather appends the nodes u > v that
// co-occur with v, and only the pairs whose value exceeds floor are kept.
// Each worker keeps its pairs in node order, sorted by u within a node;
// scattering them in ascending v then leaves every row ascending, because
// row v receives its lower neighbors (from earlier nodes) before its own
// upper ones.
func (s *SparseIMI) keepRows(ctx context.Context, scs []*sparseScratch, floor float64, gather func(v int, sc *sparseScratch, row []int32) []int32) error {
	s.floor = floor
	parallelNodes(ctx, s.n, scs, func(v int, sc *sparseScratch) {
		sc.row = gather(v, sc, sc.row[:0])
		start := len(sc.kept)
		for _, u := range sc.row {
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

// mergeRuns sorts row in place, given that it is the concatenation of
// ascending runs of distinct values starting at the offsets in runs
// (runs[0] == 0), by merging neighboring runs pairwise through buf. It
// returns buf, grown as needed, for reuse.
func mergeRuns(row, buf []int32, runs []int) []int32 {
	if len(runs) < 2 {
		return buf
	}
	buf = slices.Grow(buf[:0], len(row))[:len(row)]
	src, dst := row, buf
	for len(runs) > 1 {
		merged := runs[:0] // overwrites only entries already read
		for i := 0; i < len(runs); i += 2 {
			lo, mid, hi := runs[i], len(src), len(src)
			if i+1 < len(runs) {
				mid = runs[i+1]
			}
			if i+2 < len(runs) {
				hi = runs[i+2]
			}
			a, b, out := src[lo:mid], src[mid:hi], dst[lo:hi]
			for len(a) > 0 && len(b) > 0 {
				if a[0] < b[0] {
					out[0], a = a[0], a[1:]
				} else {
					out[0], b = b[0], b[1:]
				}
				out = out[1:]
			}
			copy(out[copy(out, a):], b)
			merged = append(merged, lo)
		}
		runs = merged
		src, dst = dst, src
	}
	if &src[0] != &row[0] {
		copy(row, src)
	}
	return buf
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
// key is evicted into the worker's tallies. 1024 entries hold the few
// hundred keys that cover almost every pair at scale; when most pairs have
// keys of their own, as in small dense inputs, the tallies' compact tables
// hold them instead. The zero key marks an empty entry, since a
// co-occurring pair has n11 ≥ 1.
const valueCacheBits = 10

type cachedValue struct {
	key pairKey
	n   int64
	v   float64
}

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
		old := t.slots
		size := max(64, 2*len(old))
		t.slots, t.used, t.shift = make([]countSlot, size), 0, uint(64-bits.TrailingZeros(uint(size)))
		for _, e := range old {
			if e.key != 0 {
				t.add(e.key, e.n)
			}
		}
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

// valueTally is a share of the value pool — a sparse worker's, or the whole
// dense triangle's: positive values counted by their exact bits (no
// positive value has all-zero bits), zero and negative values only counted,
// because the pool keeps nothing else of them. At scale a few hundred
// distinct values cover millions of pairs.
type valueTally struct {
	counts     countTable
	zeros, neg int64
	maxNeg     float64
}

func (t *valueTally) add(v float64, c int64) {
	switch {
	case c == 0:
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

// addTo adds the tallied values to b. Negative values move only the pool's
// total and maximum, so they enter as one run at their maximum.
func (t *valueTally) addTo(b *poolBuilder) {
	b.add(0, t.zeros)
	b.add(t.maxNeg, t.neg)
	for _, e := range t.counts.slots {
		if e.key != 0 {
			b.add(math.Float64frombits(e.key), e.n)
		}
	}
}

// assemble derives everything that depends only on the marginal counts
// s.ones and the co-pair counts per pair of marginal counts: the count
// classes, the marginal runs of the never-co-occurring pairs, which it adds
// to the co-occurring values already in b, and the value pool. It reads no
// CSR row. Cost is O(n + β + C²) for C count classes.
func (s *SparseIMI) assemble(b *poolBuilder, classPairs *countTable) {
	classIdx := make([]int32, s.beta+1)
	for _, c := range s.ones {
		classIdx[c] = 1
	}
	for c := range classIdx {
		if classIdx[c] != 0 {
			classIdx[c] = int32(len(s.classVals) + 1)
			s.classVals = append(s.classVals, int32(c))
		}
	}
	nClasses := len(s.classVals)
	s.classOf = make([]int32, s.n)
	s.classSize = make([]int64, nClasses)
	for v, c := range s.ones {
		k := classIdx[c] - 1
		s.classOf[v] = k
		s.classSize[k]++
	}
	s.classNodes = make([][]int32, nClasses)
	for k := range s.classNodes {
		s.classNodes[k] = make([]int32, 0, s.classSize[k])
	}
	for v, k := range s.classOf {
		s.classNodes[k] = append(s.classNodes[k], int32(v))
	}

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
			b.add(mv, zp)
			s.maxMarginal[a] = max(s.maxMarginal[a], mv)
			s.maxMarginal[c] = max(s.maxMarginal[c], mv)
		}
	}
	s.pool = b.finish()
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

// At returns the pairwise value for (i, j), i != j — bit-identical to the
// dense IMIMatrix.At for the same observations. A filtered engine knows
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
// ascending — the same contract as IMIMatrix.Candidates. The fast path
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
// with i. Bit-identical to the dense nodePool (same value multiset). It
// needs the full row, so a filtered engine panics.
func (s *SparseIMI) nodePool(i int) *valuePool {
	if s.filtered() {
		panic("core: per-node pool of a filtered engine")
	}
	var b poolBuilder
	lo, hi := s.rowStart[i], s.rowStart[i+1]
	perClass := make([]int64, len(s.classVals))
	for k := lo; k < hi; k++ {
		b.add(s.val[k], 1)
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
		b.add(pairValue(s.mt, s.traditional, s.beta, 0, int(s.ones[i]), int(s.classVals[c])), rem)
	}
	return b.finish()
}

// PairValues materializes the full dense triangle, row-major like
// IMIMatrix.PairValues. Compatibility/debug surface for small n: it
// allocates the O(n²) slice the sparse engine otherwise avoids. A filtered
// engine panics.
func (s *SparseIMI) PairValues() []float64 {
	if s.filtered() {
		panic("core: PairValues of a filtered engine")
	}
	out := make([]float64, int64(s.n)*int64(s.n-1)/2)
	for i := 0; i < s.n; i++ {
		base := i * (2*s.n - i - 1) / 2
		k := s.rowStart[i]
		end := s.rowStart[i+1]
		for k < end && int(s.nbr[k]) <= i {
			k++
		}
		for j := i + 1; j < s.n; j++ {
			if k < end && int(s.nbr[k]) == j {
				out[base+j-i-1] = s.val[k]
				k++
			} else {
				out[base+j-i-1] = pairValue(s.mt, s.traditional, s.beta, 0, int(s.ones[i]), int(s.ones[j]))
			}
		}
	}
	return out
}
