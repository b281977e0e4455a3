package influence

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"tends/internal/diffusion"
	"tends/internal/obs"
)

// This file implements influence maximization via reverse-reachable (RR)
// sketches (Borgs et al., SODA 2014; Tang et al., SIGMOD 2014). The key
// identity: for a uniformly random node w and a live-edge sample of the
// network, E[spread(S)] = n · P(S ∩ RR(w) ≠ ∅), where RR(w) is the set of
// nodes that reach w in the sampled graph. Maximizing expected spread over
// seed sets therefore reduces to max-coverage over a pool of sketches —
// solved by the same lazy greedy as CELF, but each gain evaluation is a
// walk over a node's sketch list instead of a full Monte-Carlo estimate.

// RISOptions tunes the sketch engine.
type RISOptions struct {
	// K is the seed budget (capped at n).
	K int
	// Workers bounds the sketch-sampling pool: 0 means GOMAXPROCS, 1
	// forces serial. Sketch i is always drawn from the SplitMix64 stream
	// derived from (Seed, i), so the pool contents — and everything
	// downstream — are byte-identical at any worker count.
	Workers int
	// Seed is the base of the per-sketch seed streams.
	Seed int64
	// Eps controls adaptive sampling: the pool doubles until the
	// estimated spread of the greedy solution moves by at most Eps
	// (relative) between consecutive rounds. 0 means 0.02; negative or
	// NaN is an error.
	Eps float64
	// MinSketches is the initial pool size (0 means 1024); MaxSketches
	// caps growth (0 means 1<<20). Negative bounds are an error. Setting
	// them equal disables adaptive growth — useful for exact accounting in
	// tests.
	MinSketches int
	MaxSketches int
}

func (o RISOptions) withDefaults() RISOptions {
	if o.Eps == 0 {
		o.Eps = 0.02
	}
	if o.MinSketches == 0 {
		o.MinSketches = 1024
	}
	if o.MaxSketches == 0 {
		o.MaxSketches = 1 << 20
	}
	if o.MaxSketches < o.MinSketches {
		o.MaxSketches = o.MinSketches
	}
	return o
}

// RISResult is the outcome of RISSeeds.
type RISResult struct {
	// Seeds are the selected nodes in pick order.
	Seeds []int
	// Spreads[i] is the estimated expected spread of Seeds[:i+1]
	// (n · covered fraction of the final sketch pool).
	Spreads []float64
	// Sketches is the size of the final sketch pool.
	Sketches int
	// Coverage is the fraction of sketches hit by the full seed set.
	Coverage float64
}

// revCSR is the transposed CSR of an EdgeProbs: for each node v, the
// in-neighbors u and the probabilities p(u→v), laid out contiguously.
// Parents are stored in ascending u within each node, making reverse-BFS
// expansion order — and thus coin-draw order — canonical.
type revCSR struct {
	off    []int32
	parent []int32
	prob   []float64
}

// newRevCSR transposes ep. ep's forward CSR iterates u ascending with
// children in Children(u) order, so a counting-sort pass yields each v's
// parents already sorted by u.
func newRevCSR(ep *diffusion.EdgeProbs) *revCSR {
	g := ep.Graph()
	n := g.NumNodes()
	indeg := make([]int32, n+1)
	for u := 0; u < n; u++ {
		for _, v := range g.Children(u) {
			indeg[v+1]++
		}
	}
	off := indeg
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	total := off[n]
	parent := make([]int32, total)
	prob := make([]float64, total)
	cursor := make([]int32, n)
	for u := 0; u < n; u++ {
		for _, v := range g.Children(u) {
			at := off[v] + cursor[v]
			cursor[v]++
			parent[at] = int32(u)
			prob[at] = ep.Prob(u, v)
		}
	}
	return &revCSR{off: off, parent: parent, prob: prob}
}

// rrScratch is one sampling worker's reusable state: an epoch-stamped
// visited array (no O(n) clear between sketches — the PR-4 simulator
// pattern) and a frontier buffer for the reverse BFS.
type rrScratch struct {
	visited []uint32
	epoch   uint32
	queue   []int32
}

func newRRScratch(n int) *rrScratch {
	return &rrScratch{visited: make([]uint32, n), queue: make([]int32, 0, 64)}
}

// sampleRR draws one reverse-reachable set rooted at root, flipping one
// coin per in-edge of each expanded node, and returns it as a fresh slice
// (root first, then BFS discovery order).
func (sc *rrScratch) sampleRR(rev *revCSR, root int32, rng *sm64) []int32 {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: clear stale stamps once per 2³² sketches
		for i := range sc.visited {
			sc.visited[i] = 0
		}
		sc.epoch = 1
	}
	q := sc.queue[:0]
	q = append(q, root)
	sc.visited[root] = sc.epoch
	for head := 0; head < len(q); head++ {
		v := q[head]
		lo, hi := rev.off[v], rev.off[v+1]
		for e := lo; e < hi; e++ {
			u := rev.parent[e]
			if sc.visited[u] == sc.epoch {
				continue
			}
			if rng.float64() < rev.prob[e] {
				sc.visited[u] = sc.epoch
				q = append(q, u)
			}
		}
	}
	sc.queue = q
	out := make([]int32, len(q))
	copy(out, q)
	return out
}

// rrSketchBlock is the unit of work the sampling pool hands out.
const rrSketchBlock = 256

// sampleSketches fills sketches[lo:hi] (indices into the whole pool) on a
// bounded worker pool. Sketch i's content depends only on (base, i): each
// worker writes results by index, so the pool is schedule-independent.
func sampleSketches(ctx context.Context, rev *revCSR, n int, sketches [][]int32, lo, hi int, base uint64, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (hi - lo + rrSketchBlock - 1) / rrSketchBlock; workers > max {
		workers = max
	}
	var nextBlock atomic.Int64
	run := func() {
		sc := newRRScratch(n)
		for ctx.Err() == nil {
			b := int(nextBlock.Add(1)) - 1
			blo := lo + b*rrSketchBlock
			if blo >= hi {
				return
			}
			bhi := blo + rrSketchBlock
			if bhi > hi {
				bhi = hi
			}
			for i := blo; i < bhi; i++ {
				rng := sm64(seedChain(base, tagSketch, uint64(i)))
				root := int32(rng.intn(n))
				sketches[i] = sc.sampleRR(rev, root, &rng)
			}
		}
	}
	if workers <= 1 {
		run()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() { defer wg.Done(); run() }()
		}
		wg.Wait()
	}
	return ctx.Err()
}

// sketchIndex is the inverted node→sketch CSR: for each node, the ids of
// the sketches containing it, ascending.
type sketchIndex struct {
	off []int64
	ids []int32
}

// buildIndex inverts the pool. Iterating sketches in id order yields each
// node's list already sorted.
func buildIndex(sketches [][]int32, n int) *sketchIndex {
	off := make([]int64, n+1)
	for _, sk := range sketches {
		for _, v := range sk {
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	ids := make([]int32, off[n])
	cursor := make([]int64, n)
	for i, sk := range sketches {
		for _, v := range sk {
			ids[off[v]+cursor[v]] = int32(i)
			cursor[v]++
		}
	}
	return &sketchIndex{off: off, ids: ids}
}

// maxCoverage runs lazy greedy max-coverage over the sketch pool: pick k
// nodes maximizing the number of covered sketches. Returns the picks, the
// per-pick estimated spreads (n · covered/m), and the covered count.
// evals counts gain recomputations (walks over a node's sketch list);
// skipped counts heap pops avoided by laziness — for a pool built in one
// round, evals + skipped over a full run equals Σ_{r=1..k-1}(n−r): every
// node surviving into round r is either re-evaluated or skipped.
func maxCoverage(ctx context.Context, idx *sketchIndex, n, m, k int, covered []bool, evals, skipped *int64) ([]int, []float64, int, error) {
	pq := make(gainHeap, 0, n)
	for v := 0; v < n; v++ {
		pq = append(pq, seedGain{node: v, gain: float64(idx.off[v+1] - idx.off[v]), round: 0})
	}
	heap.Init(&pq)

	seeds := make([]int, 0, k)
	spreads := make([]float64, 0, k)
	coveredCount := 0
	round := 0
	for len(seeds) < k && pq.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, err
		}
		top := pq[0]
		if top.round != round {
			// Stale: recount the node's uncovered sketches.
			g := 0
			for _, id := range idx.ids[idx.off[top.node]:idx.off[top.node+1]] {
				if !covered[id] {
					g++
				}
			}
			*evals++
			pq[0].gain = float64(g)
			pq[0].round = round
			heap.Fix(&pq, 0)
			continue
		}
		heap.Pop(&pq)
		// Every other node still carrying a stale round stamp at the
		// moment of this pick is a lazy skip for this round.
		for _, e := range pq {
			if e.round != round {
				*skipped++
			}
		}
		for _, id := range idx.ids[idx.off[top.node]:idx.off[top.node+1]] {
			if !covered[id] {
				covered[id] = true
				coveredCount++
			}
		}
		seeds = append(seeds, top.node)
		spreads = append(spreads, float64(n)*float64(coveredCount)/float64(m))
		round++
	}
	return seeds, spreads, coveredCount, nil
}

// RISSeeds selects up to K seeds by lazy greedy max-coverage over
// reverse-reachable sketches. The sketch pool starts at MinSketches and
// doubles until the greedy solution's estimated spread stabilizes within
// Eps (or MaxSketches is reached); previously sampled sketches are reused
// across rounds. The result is byte-identical at any Workers. The context
// cancels sampling/selection and carries the obs recorder, which receives
// influence/sketches, influence/coverage_evals, influence/lazy_skipped and
// influence/ris_rounds.
func RISSeeds(ctx context.Context, ep *diffusion.EdgeProbs, opt RISOptions) (*RISResult, error) {
	if opt.Eps < 0 || math.IsNaN(opt.Eps) {
		return nil, fmt.Errorf("influence: Eps must be non-negative, got %v", opt.Eps)
	}
	if opt.MinSketches < 0 || opt.MaxSketches < 0 {
		return nil, fmt.Errorf("influence: negative sketch bounds [%d, %d]", opt.MinSketches, opt.MaxSketches)
	}
	opt = opt.withDefaults()
	g := ep.Graph()
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("influence: empty graph")
	}
	k := opt.K
	if k < 0 {
		return nil, fmt.Errorf("influence: negative seed budget %d", k)
	}
	if k > n {
		k = n
	}
	if k == 0 {
		return &RISResult{}, nil
	}
	rcd := obs.From(ctx)
	rev := newRevCSR(ep)
	base := uint64(opt.Seed)

	sketches := make([][]int32, 0, opt.MinSketches)
	var (
		evals, skipped int64
		rounds         int64
		prevEst        = -1.0
		result         *RISResult
	)
	for m := opt.MinSketches; ; m *= 2 {
		if m > opt.MaxSketches {
			m = opt.MaxSketches
		}
		lo := len(sketches)
		sketches = append(sketches, make([][]int32, m-lo)...)
		if err := sampleSketches(ctx, rev, n, sketches, lo, m, base, opt.Workers); err != nil {
			return nil, err
		}
		rcd.Counter("influence/sketches").Add(int64(m - lo))
		rounds++

		idx := buildIndex(sketches, n)
		covered := make([]bool, m)
		seeds, spreads, coveredCount, err := maxCoverage(ctx, idx, n, m, k, covered, &evals, &skipped)
		if err != nil {
			return nil, err
		}
		est := 0.0
		if len(spreads) > 0 {
			est = spreads[len(spreads)-1]
		}
		result = &RISResult{
			Seeds:    seeds,
			Spreads:  spreads,
			Sketches: m,
			Coverage: float64(coveredCount) / float64(m),
		}
		stable := prevEst >= 0 && math.Abs(est-prevEst) <= opt.Eps*max(est, 1)
		if stable || m >= opt.MaxSketches {
			break
		}
		prevEst = est
	}
	rcd.Counter("influence/coverage_evals").Add(evals)
	rcd.Counter("influence/lazy_skipped").Add(skipped)
	rcd.Counter("influence/ris_rounds").Add(rounds)
	return result, nil
}
