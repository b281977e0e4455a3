package influence

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"tends/internal/diffusion"
	"tends/internal/obs"
)

// The paper's introduction motivates reconstruction with designing
// strategies "to promote or prevent future diffusions". GreedySeeds covers
// promotion; this file covers prevention: choosing nodes to immunize
// (vaccinate, suspend, patch) so that expected outbreak spread drops the
// most.

// permInto writes a uniform random permutation of [0, n) into buf (reused
// across samples), avoiding rand.Perm's per-sample allocation. It is not
// rand.Perm's draw sequence: the loop starts at i=1 and skips Perm's i=0
// draw. It stays that way because changing its draws would change
// SpreadWithBlocked's outputs.
func permInto(buf []int, n int, rng *rand.Rand) []int {
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, 0)
	}
	for i := 1; i < n; i++ {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf
}

// SpreadWithBlocked estimates expected spread when the given nodes are
// immunized: they can neither be infected nor transmit. Seeds are drawn
// uniformly from the remaining nodes, numSeeds per sample, mirroring the
// simulator's seeding protocol. The RNG draw sequence is unchanged from
// the original implementation; the per-sample permutation and per-BFS-level
// frontier allocations are gone (reused scratch buffers).
func SpreadWithBlocked(ep *diffusion.EdgeProbs, blocked []int, numSeeds, samples int, rng *rand.Rand) (float64, error) {
	g := ep.Graph()
	n := g.NumNodes()
	if samples <= 0 {
		return 0, fmt.Errorf("influence: samples must be positive, got %d", samples)
	}
	if numSeeds <= 0 {
		return 0, fmt.Errorf("influence: numSeeds must be positive, got %d", numSeeds)
	}
	isBlocked := make([]bool, n)
	for _, b := range blocked {
		if b < 0 || b >= n {
			return 0, fmt.Errorf("influence: blocked node %d out of range [0,%d)", b, n)
		}
		isBlocked[b] = true
	}
	free := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if !isBlocked[v] {
			free = append(free, v)
		}
	}
	if len(free) == 0 {
		return 0, nil
	}
	if numSeeds > len(free) {
		numSeeds = len(free)
	}
	sc := newMCScratch(n)
	seeds := make([]int, numSeeds)
	total := 0
	for sample := 0; sample < samples; sample++ {
		sc.perm = permInto(sc.perm, len(free), rng)
		for i := 0; i < numSeeds; i++ {
			seeds[i] = free[sc.perm[i]]
		}
		total += onePathCascade(ep, seeds, isBlocked, rng.Float64, sc)
	}
	return float64(total) / float64(samples), nil
}

// GreedyImmunize selects up to k nodes to immunize, greedily minimizing the
// estimated expected outbreak size under random seeding. It returns the
// immunized nodes in selection order and the expected spread remaining
// after each immunization. Spread reduction is not submodular in general,
// so this is a plain greedy without lazy evaluation; the per-step cost is
// n−|blocked| spread estimates. Kept as the historical serial API;
// GreedyImmunizeOpt is the deterministic parallel variant.
func GreedyImmunize(ep *diffusion.EdgeProbs, k, numSeeds, samples int, rng *rand.Rand) ([]int, []float64, error) {
	g := ep.Graph()
	n := g.NumNodes()
	if k < 0 {
		return nil, nil, fmt.Errorf("influence: negative immunization budget %d", k)
	}
	if k > n {
		k = n
	}
	var blocked []int
	var spreads []float64
	isBlocked := make([]bool, n)
	for len(blocked) < k {
		bestNode, bestSpread := -1, 0.0
		for v := 0; v < n; v++ {
			if isBlocked[v] {
				continue
			}
			trial := append(append([]int(nil), blocked...), v)
			// A fixed per-step RNG stream keeps candidate comparisons
			// within a step noise-aligned.
			s, err := SpreadWithBlocked(ep, trial, numSeeds, samples, rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				return nil, nil, err
			}
			if bestNode < 0 || s < bestSpread {
				bestNode, bestSpread = v, s
			}
		}
		if bestNode < 0 {
			break
		}
		blocked = append(blocked, bestNode)
		isBlocked[bestNode] = true
		spreads = append(spreads, bestSpread)
	}
	return blocked, spreads, nil
}

// ImmunizeOptions tunes the deterministic parallel greedy immunization.
type ImmunizeOptions struct {
	K        int   // immunization budget
	NumSeeds int   // random seeds per Monte-Carlo sample
	Samples  int   // Monte-Carlo samples per candidate estimate; 0 means 1000
	Workers  int   // 0 = GOMAXPROCS, 1 = serial; result independent of the count
	Seed     int64 // base of the derived sample-seed streams
}

// GreedyImmunizeOpt is GreedyImmunize with the candidate evaluations of
// each round spread over a bounded worker pool. Candidate v in round r
// draws every sample from the (Seed, r, v, sample)-derived SplitMix64
// stream and ties break toward the lower node id, so the chosen nodes are
// byte-identical at any Workers. The context cancels the selection and
// carries the obs recorder (influence/mc_samples).
func GreedyImmunizeOpt(ctx context.Context, ep *diffusion.EdgeProbs, opt ImmunizeOptions) ([]int, []float64, error) {
	g := ep.Graph()
	n := g.NumNodes()
	if opt.K < 0 {
		return nil, nil, fmt.Errorf("influence: negative immunization budget %d", opt.K)
	}
	if opt.NumSeeds <= 0 {
		return nil, nil, fmt.Errorf("influence: numSeeds must be positive, got %d", opt.NumSeeds)
	}
	if opt.Samples == 0 {
		opt.Samples = 1000
	}
	if opt.Samples < 0 {
		return nil, nil, fmt.Errorf("influence: negative samples %d", opt.Samples)
	}
	k := opt.K
	if k > n {
		k = n
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rcd := obs.From(ctx)
	base := uint64(opt.Seed)

	isBlocked := make([]bool, n)
	var blocked []int
	var spreads []float64
	free := make([]int, 0, n)
	totals := make([]int64, n) // per-candidate infection totals for the round
	for round := 0; len(blocked) < k; round++ {
		free = free[:0]
		for v := 0; v < n; v++ {
			if !isBlocked[v] {
				free = append(free, v)
			}
		}
		if len(free) == 0 {
			break
		}
		numSeeds := opt.NumSeeds
		// Seeds for a candidate's samples come from free minus the
		// candidate itself; cap against that reduced pool.
		if avail := len(free) - 1; numSeeds > avail {
			numSeeds = avail
		}

		var nextCand atomic.Int64
		evalCands := func() {
			sc := newMCScratch(n)
			blockedBuf := make([]bool, n)
			freeBuf := make([]int, 0, len(free))
			seeds := make([]int, 0, opt.NumSeeds)
			for ctx.Err() == nil {
				ci := int(nextCand.Add(1)) - 1
				if ci >= len(free) {
					return
				}
				v := free[ci]
				copy(blockedBuf, isBlocked)
				blockedBuf[v] = true
				freeBuf = freeBuf[:0]
				for _, u := range free {
					if u != v {
						freeBuf = append(freeBuf, u)
					}
				}
				var total int64
				if numSeeds > 0 {
					for i := 0; i < opt.Samples; i++ {
						rng := sm64(seedChain(base, tagImmu, uint64(round), uint64(v), uint64(i)))
						// Partial Fisher–Yates over the candidate's free
						// pool; buffer order carries over between samples,
						// which is fine — the evolution is deterministic.
						seeds = seeds[:0]
						for s := 0; s < numSeeds; s++ {
							j := s + rng.intn(len(freeBuf)-s)
							freeBuf[s], freeBuf[j] = freeBuf[j], freeBuf[s]
							seeds = append(seeds, freeBuf[s])
						}
						total += int64(onePathCascade(ep, seeds, blockedBuf, rng.float64, sc))
					}
				}
				totals[v] = total
			}
		}
		w := workers
		if w > len(free) {
			w = len(free)
		}
		if w <= 1 {
			evalCands()
		} else {
			var wg sync.WaitGroup
			for i := 0; i < w; i++ {
				wg.Add(1)
				go func() { defer wg.Done(); evalCands() }()
			}
			wg.Wait()
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		rcd.Counter("influence/mc_samples").Add(int64(len(free)) * int64(opt.Samples))

		bestNode := -1
		var bestTotal int64
		for _, v := range free {
			if bestNode < 0 || totals[v] < bestTotal {
				bestNode, bestTotal = v, totals[v]
			}
		}
		blocked = append(blocked, bestNode)
		isBlocked[bestNode] = true
		spreads = append(spreads, float64(bestTotal)/float64(opt.Samples))
	}
	return blocked, spreads, nil
}
