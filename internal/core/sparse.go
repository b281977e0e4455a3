package core

import (
	"context"
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
// dense n(n−1)/2 triangle, it stores per-node CSR rows holding only the
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
// Every materialized or derived value goes through the same pairValue
// arithmetic as the dense engine, so SparseIMI.At is bit-identical to
// IMIMatrix.At for every pair, and the threshold selectors (which consume
// the shared valuePool form) return bit-identical τ. A pair's value is a
// function of its key (n11, ni, nj) alone, so each worker caches values by
// key, and the pool is built from the co-pairs' values tallied by their
// exact bits — the same multiset as one entry per pair. The pairwise stage
// costs O(n·β/64 + Σ_c |infected(c)|²) for the walks, O(coPairs·log k) to
// merge each row's k ascending cascade runs, O(coPairs) for the class-pair
// counts, and O(V log V + C²) for the pool, with V distinct positive
// values and C count classes; memory beyond the CSR itself is O(n + β + V)
// per worker.
type SparseIMI struct {
	n, beta     int
	traditional bool
	mt          *miTable
	ones        []int32 // infected count per node

	// Symmetric CSR over co-occurring pairs: row i holds the ascending
	// neighbor list of node i with the pair values alongside.
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

// ComputeSparseIMI builds the sparse pairwise engine from observations,
// using every CPU. It is the sparse counterpart of ComputeIMI.
func ComputeSparseIMI(sm *diffusion.StatusMatrix, traditional bool) *SparseIMI {
	s, _ := ComputeSparseIMIContext(context.Background(), sm, traditional, 0)
	return s
}

// ComputeSparseIMIContext is ComputeSparseIMI with an explicit worker count
// and cooperative cancellation (checked between node chunks). Like the
// dense engine, every row is computed independently from the same inputs,
// so the result is bit-identical for any worker count.
func ComputeSparseIMIContext(ctx context.Context, sm *diffusion.StatusMatrix, traditional bool, workers int) (*SparseIMI, error) {
	rec := obs.From(ctx)
	defer rec.StartSpan("core/imi").End()
	rowsC := rec.Counter("core/sparse/rows")
	pairsC := rec.Counter("core/sparse/pairs")
	skipC := rec.Counter("core/sparse/pairs_skipped")

	n, beta := sm.N(), sm.Beta()
	words, data := sm.Words(), sm.ColumnData()
	s := &SparseIMI{
		n: n, beta: beta, traditional: traditional,
		mt:       cachedMITable(beta),
		rowStart: make([]int64, n+1),
		ones:     make([]int32, n),
	}
	for v := 0; v < n; v++ {
		s.ones[v] = int32(sm.CountInfected(v))
	}

	// Inverted index: cascade → infected-node list, one counting pass and
	// one fill pass over the bit columns. Filling in ascending node order
	// leaves every cascade list sorted.
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

	// Pass A: per-node co-occurrence degree, which sizes the CSR.
	deg := make([]int64, n)
	parallelNodes(ctx, n, workers, func(v int, sc *sparseScratch) {
		sc.row = coOccur(v, sc, sc.row[:0])
		for _, u := range sc.row {
			sc.cnt[u] = 0
		}
		deg[v] = int64(len(sc.row))
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		s.rowStart[v+1] = s.rowStart[v] + deg[v]
	}

	// Pass B: the same walk straight into each CSR row, whose runs are then
	// merged pairwise — O(len·log runs), and most rows are one or two runs.
	if err := s.fillRows(ctx, workers, func(v int, sc *sparseScratch, row []int32) []int32 {
		row = coOccur(v, sc, row)
		sc.buf = mergeRuns(row, sc.buf, sc.runs)
		return row
	}); err != nil {
		return nil, err
	}

	rowsC.Add(int64(n))
	pairsC.Add(s.coPairs)
	skipC.Add(s.TotalPairs() - s.coPairs)
	return s, nil
}

// parallelNodes runs body(v) for every node v < n across workers goroutines
// (0 means GOMAXPROCS), claiming fixed-size chunks off a shared counter, and
// returns the per-worker scratches. Bodies write disjoint per-node slots, so
// output is identical for any worker count. Workers stop claiming once ctx
// is done.
func parallelNodes(ctx context.Context, n, workers int, body func(v int, sc *sparseScratch)) []*sparseScratch {
	const chunk = 256
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nChunks := (n + chunk - 1) / chunk
	scratches := make([]*sparseScratch, max(1, min(workers, nChunks)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range scratches {
		sc := &sparseScratch{cnt: make([]int32, n)}
		scratches[w] = sc
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				for v := c * chunk; v < min((c+1)*chunk, n); v++ {
					body(v, sc)
				}
			}
		}()
	}
	wg.Wait()
	return scratches
}

// fillRows fills the CSR rows whose extents s.rowStart holds, then
// assembles the rest of s. gather appends node v's co-occurring neighbors,
// ascending, to row and leaves each one's joint infected count n11 in
// sc.cnt; fillRows reads and resets the counts, derives the values, and
// tallies every upper-triangle value. It is the row stage of both the batch
// build and IncrementalCounts.Source.
func (s *SparseIMI) fillRows(ctx context.Context, workers int, gather func(v int, sc *sparseScratch, row []int32) []int32) error {
	s.nbr = make([]int32, s.rowStart[s.n])
	s.val = make([]float64, s.rowStart[s.n])
	s.coPairs = s.rowStart[s.n] / 2
	scratches := parallelNodes(ctx, s.n, workers, func(v int, sc *sparseScratch) {
		lo := s.rowStart[v]
		row := gather(v, sc, s.nbr[lo:lo:s.rowStart[v+1]])
		ni := s.ones[v]
		for k, j := range row {
			key := pairKey{sc.cnt[j], min(ni, s.ones[j]), max(ni, s.ones[j])}
			sc.cnt[j] = 0
			e := &sc.cache[key.hash()>>(64-valueCacheBits)]
			if e.key != key {
				sc.tally.add(e.v, e.n)
				*e = cachedValue{key: key, v: pairValue(s.mt, s.traditional, s.beta, int(key.n11), int(key.lo), int(key.hi))}
			}
			s.val[lo+int64(k)] = e.v
			if int(j) > v {
				e.n++
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	distinct := 0
	for _, sc := range scratches {
		for _, e := range sc.cache {
			sc.tally.add(e.v, e.n)
		}
		distinct += sc.tally.used
	}
	b := poolBuilder{vals: make([]float64, 0, distinct), cnts: make([]int64, 0, distinct)}
	for _, sc := range scratches {
		sc.tally.addTo(&b)
	}
	s.assemble(&b)
	return nil
}

// sparseScratch is the per-worker state of the build passes.
type sparseScratch struct {
	cnt   []int32 // per-node joint infected count, all zero between rows
	row   []int32 // pass A's neighbor list
	runs  []int   // offsets of a row's ascending runs
	buf   []int32 // mergeRuns' second buffer
	cache [1 << valueCacheBits]cachedValue
	tally valueTally
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
// key is evicted into the worker's valueTally. 1024 entries hold the few
// hundred keys that cover almost every pair at scale; when most pairs have
// keys of their own, as in small dense inputs, the tally's compact table
// holds them instead. The zero key marks an empty entry, since a
// co-occurring pair has n11 ≥ 1.
const valueCacheBits = 10

type cachedValue struct {
	key pairKey
	n   int64
	v   float64
}

// valueTally is a worker's share of the value pool: positive values
// counted by their exact bits in an open-addressed table (linear probing,
// power-of-two size, at most three quarters full), zero and negative
// values only counted, because the pool keeps nothing else of them. At
// scale a few hundred distinct values cover millions of pairs.
type valueTally struct {
	slots      []valueSlot
	used       int
	shift      uint // 64 − log₂ len(slots)
	zeros, neg int64
	maxNeg     float64
}

type valueSlot struct {
	bits uint64 // 0 marks an empty slot: no positive value has all-zero bits
	n    int64
}

func (t *valueTally) add(v float64, c int64) {
	if c == 0 {
		return
	}
	if !(v > 0) {
		if v == 0 {
			t.zeros += c
		} else {
			if t.neg == 0 || v > t.maxNeg {
				t.maxNeg = v
			}
			t.neg += c
		}
		return
	}
	if 4*(t.used+1) > 3*len(t.slots) {
		old := t.slots
		size := max(64, 2*len(old))
		t.slots, t.used, t.shift = make([]valueSlot, size), 0, uint(64-bits.TrailingZeros(uint(size)))
		for _, e := range old {
			if e.bits != 0 {
				t.add(math.Float64frombits(e.bits), e.n)
			}
		}
	}
	vb := math.Float64bits(v)
	mask := len(t.slots) - 1
	for i := int(vb * 0x9E3779B97F4A7C15 >> t.shift); ; i = (i + 1) & mask {
		switch t.slots[i].bits {
		case vb:
			t.slots[i].n += c
			return
		case 0:
			t.slots[i] = valueSlot{vb, c}
			t.used++
			return
		}
	}
}

// addTo adds the tallied values to b. Negative values move only the pool's
// total and maximum, so they enter as one run at their maximum.
func (t *valueTally) addTo(b *poolBuilder) {
	b.add(0, t.zeros)
	b.add(t.maxNeg, t.neg)
	for _, e := range t.slots {
		if e.bits != 0 {
			b.add(math.Float64frombits(e.bits), e.n)
		}
	}
}

// assemble derives everything that depends only on the marginal counts
// s.ones and the CSR rows: the count classes, the marginal runs of the
// never-co-occurring pairs, which it adds to the co-occurring values already
// in b, and the value pool. The batch build and IncrementalCounts.Source
// both end here. Cost is O(n + β + coPairs + C²) for C count classes.
func (s *SparseIMI) assemble(b *poolBuilder) {
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
	// arithmetic below never sees negative counts. The co-occurring pairs
	// of class a come from its nodes' rows: a pair with its other end in a
	// class c > a is met once, a pair inside class a twice.
	s.maxMarginal = make([]float64, nClasses)
	for a := range s.maxMarginal {
		s.maxMarginal[a] = math.Inf(-1)
	}
	coRow := make([]int64, nClasses)
	for a, va := range s.classVals {
		clear(coRow)
		for _, v := range s.classNodes[a] {
			for _, j := range s.nbr[s.rowStart[v]:s.rowStart[v+1]] {
				coRow[s.classOf[j]]++
			}
		}
		coRow[a] /= 2
		for c := a; c < nClasses; c++ {
			vc := s.classVals[c]
			co := coRow[c]
			tot := s.classSize[a] * s.classSize[c]
			if a == c {
				tot = s.classSize[a] * (s.classSize[a] - 1) / 2
			}
			zp := tot - co
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

// N returns the number of nodes.
func (s *SparseIMI) N() int { return s.n }

// CoPairs returns the number of unordered node pairs that co-occur in at
// least one diffusion process — the pairs the engine materialized.
func (s *SparseIMI) CoPairs() int64 { return s.coPairs }

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
// dense IMIMatrix.At for the same observations.
func (s *SparseIMI) At(i, j int) float64 {
	if i == j {
		panic("core: IMI is undefined for a node with itself")
	}
	if k, ok := s.find(i, int32(j)); ok {
		return s.val[k]
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
// negative fixed thresholds.
func (s *SparseIMI) Candidates(i int, tau float64) []int {
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
// with i. Bit-identical to the dense nodePool (same value multiset).
func (s *SparseIMI) nodePool(i int) *valuePool {
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
// allocates the O(n²) slice the sparse engine otherwise avoids.
func (s *SparseIMI) PairValues() []float64 {
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
