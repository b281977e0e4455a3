// Package influence provides influence maximization and immunization on a
// weighted diffusion network — the downstream task the paper's introduction
// motivates topology reconstruction with ("designing effective strategies
// to promote or prevent future diffusions").
//
// The package has one spread estimator and two seed selectors, all
// worker-deterministic: every random draw comes from a SplitMix64 stream
// derived from the caller's Seed, so results are byte-identical at any
// Workers.
//
//   - SpreadEst: forward Monte-Carlo simulation on a bounded worker pool —
//     the exact, slow cross-check every seed set is scored with.
//   - RISSeeds (ris.go): the fast selector. It samples reverse-reachable
//     sets on the transposed CSR layout and picks seeds by lazy greedy
//     max-coverage over the sketches (Borgs et al., SODA 2014).
//   - CELFSeeds: the classic lazy greedy over Monte-Carlo estimates
//     (Leskovec et al., KDD 2007), the baseline RISSeeds is measured
//     against.
//
// Both selectors inherit the (1−1/e) guarantee of submodular maximization.
// GreedyImmunizeOpt (immunize.go) covers the prevention side.
//
// Together with core.Infer (topology) and probest.Run (edge probabilities),
// this closes the loop the paper sketches: observe outbreaks → reconstruct
// the network → choose where to intervene. cmd/reconstruct fuses the three
// stages into one pipeline.
package influence

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tends/internal/diffusion"
	"tends/internal/obs"
)

// splitmix64 is the SplitMix64 finalizer, the repository's standard way to
// derive independent deterministic seed streams (see experiments/seed.go).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seedChain folds tag words into a base seed with chained SplitMix64 mixes,
// keeping distinct (tag...) streams collision-free.
func seedChain(base uint64, tags ...uint64) uint64 {
	h := splitmix64(base)
	for _, t := range tags {
		h = splitmix64(h ^ t)
	}
	return h
}

// sm64 is a tiny SplitMix64 sequence generator: state increments by the
// golden-gamma constant and each output is the finalizer of the state. It
// exists so that per-sample and per-sketch streams can be created by the
// million without allocating a rand.Rand each.
type sm64 uint64

func (s *sm64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	x := uint64(*s)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// float64 returns a uniform draw in [0,1) from the top 53 bits.
func (s *sm64) float64() float64 {
	return float64(s.next()>>11) * (1.0 / (1 << 53))
}

// intn returns a uniform draw in [0,n). The modulo bias is < n/2⁶⁴ —
// immaterial against Monte-Carlo noise — and keeps the draw single-word.
func (s *sm64) intn(n int) int {
	return int(s.next() % uint64(n))
}

// mcScratch is one worker's reusable forward-simulation state: the visited
// marks and the two swap frontiers of the BFS, reused across samples so a
// cascade allocates nothing.
type mcScratch struct {
	infected []bool
	frontier []int
	next     []int
	touched  []int // all infections of the running cascade, for O(|cascade|) reset
}

func newMCScratch(n int) *mcScratch {
	return &mcScratch{
		infected: make([]bool, n),
		frontier: make([]int, 0, n),
		next:     make([]int, 0, n),
		touched:  make([]int, 0, n),
	}
}

// reset clears the infected marks of the nodes listed in touched.
func (sc *mcScratch) reset(touched []int) {
	for _, v := range touched {
		sc.infected[v] = false
	}
}

// oneCascade runs a single forward independent-cascade process from the
// given (deduplicated-by-mark) seeds, drawing coins from coin, and returns
// the number of infected nodes. The scratch's infected marks are cleaned up
// before returning. blocked may be nil; blocked nodes neither get infected
// nor transmit.
func oneCascade(ep *diffusion.EdgeProbs, seeds []int, blocked []bool, coin func() float64, sc *mcScratch) int {
	g := ep.Graph()
	frontier, next := sc.frontier[:0], sc.next[:0]
	count := 0
	for _, s := range seeds {
		if sc.infected[s] {
			continue
		}
		sc.infected[s] = true
		frontier = append(frontier, s)
		count++
	}
	// Frontier contents are lost at each swap, so all infections are also
	// appended to touched for the post-cascade reset.
	clean := append(sc.touched[:0], frontier...)
	for len(frontier) > 0 {
		next = next[:0]
		for _, u := range frontier {
			for _, v := range g.Children(u) {
				if sc.infected[v] || (blocked != nil && blocked[v]) {
					continue
				}
				if coin() < ep.Prob(u, v) {
					sc.infected[v] = true
					count++
					next = append(next, v)
				}
			}
		}
		clean = append(clean, next...)
		frontier, next = next, frontier
	}
	sc.frontier, sc.next, sc.touched = frontier, next, clean
	sc.reset(clean)
	return count
}

// SpreadOptions tunes the deterministic parallel Monte-Carlo estimator.
type SpreadOptions struct {
	// Samples is the number of Monte-Carlo cascades; 0 means 1000.
	Samples int
	// Workers bounds the goroutines running samples: 0 means GOMAXPROCS,
	// 1 forces serial. The estimate is byte-identical at any count —
	// sample i draws from its own SplitMix64 stream and the integer
	// infection counts sum commutatively.
	Workers int
	// Seed is the base of the per-sample seed streams.
	Seed int64
}

func (o SpreadOptions) withDefaults() SpreadOptions {
	if o.Samples == 0 {
		o.Samples = 1000
	}
	return o
}

// spreadSampleBlock is the unit of work the sample pool hands out.
const spreadSampleBlock = 64

// SpreadEst estimates the expected number of infected nodes when the given
// seed set starts an independent-cascade process on the weighted network.
// It runs the samples on a bounded worker pool with per-sample derived
// seeds: the result is a pure
// function of (ep, seeds, Samples, Seed), independent of Workers. The
// context cancels remaining samples (returning ctx's error) and carries the
// observability recorder (influence/mc_samples).
func SpreadEst(ctx context.Context, ep *diffusion.EdgeProbs, seeds []int, opt SpreadOptions) (float64, error) {
	opt = opt.withDefaults()
	n := ep.Graph().NumNodes()
	for _, s := range seeds {
		if s < 0 || s >= n {
			return 0, fmt.Errorf("influence: seed %d out of range [0,%d)", s, n)
		}
	}
	if opt.Samples < 0 {
		return 0, fmt.Errorf("influence: negative samples %d", opt.Samples)
	}
	total, err := spreadSum(ctx, ep, seeds, opt.Samples, seedChain(uint64(opt.Seed), tagSpread), opt.Workers, nil)
	if err != nil {
		return 0, err
	}
	obs.From(ctx).Counter("influence/mc_samples").Add(int64(opt.Samples))
	return float64(total) / float64(opt.Samples), nil
}

// Seed-stream tags separating the package's derived streams.
const (
	tagSpread uint64 = 0x5350_5245_4144_0001 // SpreadEst samples
	tagCELF0  uint64 = 0x4345_4c46_0000_0001 // CELF singleton pass
	tagCELF   uint64 = 0x4345_4c46_0000_0002 // CELF marginal re-evaluations
	tagSketch uint64 = 0x5249_5f53_4b45_0001 // RIS sketch streams
	tagImmu   uint64 = 0x494d_4d55_0000_0001 // immunization candidate evals
)

// spreadSum runs `samples` forward cascades from the given seed set and
// returns the total infection count. Sample i draws from the
// SplitMix64 stream seeded by base^i's chain, so the sum is independent of
// the worker count and schedule. scratches, when non-nil, supplies
// per-worker reusable scratch (len ≥ workers); nil allocates.
func spreadSum(ctx context.Context, ep *diffusion.EdgeProbs, seeds []int, samples int, base uint64, workers int, scratches []*mcScratch) (int64, error) {
	if samples <= 0 {
		return 0, fmt.Errorf("influence: samples must be positive, got %d", samples)
	}
	n := ep.Graph().NumNodes()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (samples + spreadSampleBlock - 1) / spreadSampleBlock; workers > max {
		workers = max
	}
	var total atomic.Int64
	var nextBlock atomic.Int64
	runRange := func(sc *mcScratch) {
		if sc == nil {
			sc = newMCScratch(n)
		}
		var local int64
		for ctx.Err() == nil {
			b := int(nextBlock.Add(1)) - 1
			lo := b * spreadSampleBlock
			if lo >= samples {
				break
			}
			hi := lo + spreadSampleBlock
			if hi > samples {
				hi = samples
			}
			for i := lo; i < hi; i++ {
				rng := sm64(seedChain(base, uint64(i)))
				local += int64(oneCascade(ep, seeds, nil, rng.float64, sc))
			}
		}
		total.Add(local)
	}
	scratchAt := func(i int) *mcScratch {
		if scratches != nil && i < len(scratches) {
			return scratches[i]
		}
		return nil
	}
	if workers <= 1 {
		runRange(scratchAt(0))
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				runRange(scratchAt(w))
			}(w)
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return total.Load(), nil
}

// CELFOptions tunes the deterministic parallel CELF greedy.
type CELFOptions struct {
	K       int   // seed budget
	Samples int   // Monte-Carlo samples per spread estimate; 0 means 1000
	Workers int   // 0 = GOMAXPROCS, 1 = serial; result independent of the count
	Seed    int64 // base of the derived sample-seed streams
}

// CELFSeeds selects up to K seeds maximizing estimated spread by lazy
// (CELF) greedy over Monte-Carlo estimates. It returns the chosen seeds in
// selection order and the cumulative expected spread after each selection.
// It is the baseline RISSeeds is measured against. The n singleton
// estimates of the initial pass run on a bounded worker pool, every
// Monte-Carlo draw comes from a (Seed, node/round, sample)-derived
// SplitMix64 stream, and marginal-gain ties break toward the lower node id
// — the selected seeds are byte-identical at any Workers.
// The context cancels the selection and carries the obs recorder.
func CELFSeeds(ctx context.Context, ep *diffusion.EdgeProbs, opt CELFOptions) ([]int, []float64, error) {
	g := ep.Graph()
	n := g.NumNodes()
	k := opt.K
	if k < 0 {
		return nil, nil, fmt.Errorf("influence: negative seed budget %d", k)
	}
	if k > n {
		k = n
	}
	if opt.Samples == 0 {
		opt.Samples = 1000
	}
	if opt.Samples < 0 {
		return nil, nil, fmt.Errorf("influence: negative samples %d", opt.Samples)
	}
	if k == 0 {
		return nil, nil, nil
	}
	rcd := obs.From(ctx)
	base := uint64(opt.Seed)

	// Singleton pass: one estimate per node, parallel over nodes, each on
	// its own derived stream — deterministic regardless of schedule.
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	gains := make([]float64, n)
	var nextNode atomic.Int64
	singlePass := func() {
		sc := newMCScratch(n)
		seed := make([]int, 1)
		for ctx.Err() == nil {
			v := int(nextNode.Add(1)) - 1
			if v >= n {
				return
			}
			seed[0] = v
			total := int64(0)
			for i := 0; i < opt.Samples; i++ {
				rng := sm64(seedChain(base, tagCELF0, uint64(v), uint64(i)))
				total += int64(oneCascade(ep, seed, nil, rng.float64, sc))
			}
			gains[v] = float64(total) / float64(opt.Samples)
		}
	}
	if workers <= 1 {
		singlePass()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() { defer wg.Done(); singlePass() }()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	rcd.Counter("influence/mc_samples").Add(int64(n) * int64(opt.Samples))

	pq := make(gainHeap, 0, n)
	for v := 0; v < n; v++ {
		pq = append(pq, seedGain{node: v, gain: gains[v], round: 0})
	}
	heap.Init(&pq)

	var seeds []int
	var spreads []float64
	scratches := make([]*mcScratch, workers)
	current := 0.0
	round := 0
	for len(seeds) < k && pq.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		top := pq[0]
		if top.round != round {
			withTop := append(append([]int(nil), seeds...), top.node)
			evalSeed := seedChain(base, tagCELF, uint64(round), uint64(top.node))
			total, err := spreadSum(ctx, ep, withTop, opt.Samples, evalSeed, opt.Workers, scratches)
			if err != nil {
				return nil, nil, err
			}
			rcd.Counter("influence/mc_samples").Add(int64(opt.Samples))
			pq[0].gain = float64(total)/float64(opt.Samples) - current
			pq[0].round = round
			heap.Fix(&pq, 0)
			continue
		}
		heap.Pop(&pq)
		seeds = append(seeds, top.node)
		current += top.gain
		spreads = append(spreads, current)
		round++
	}
	return seeds, spreads, nil
}

type seedGain struct {
	node  int
	gain  float64
	round int
}

type gainHeap []seedGain

func (h gainHeap) Len() int { return len(h) }
func (h gainHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	// Deterministic tie-break: lower node id first, so heap order — and
	// therefore selection — is a pure function of the gains.
	return h[i].node < h[j].node
}
func (h gainHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x any)   { *h = append(*h, x.(seedGain)) }
func (h *gainHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
