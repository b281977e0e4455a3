// Package probest estimates per-edge propagation probabilities from final
// infection statuses, given a (known or inferred) topology.
//
// The paper's problem statement focuses on recovering the edge set and
// notes that "a few existing approaches have presented how to quantify the
// propagation probability for a specific edge based on observed infection
// status results" — this package supplies that missing piece so the library
// reconstructs the full weighted network.
//
// Model: a node's final status follows a noisy-OR of its parents' final
// statuses,
//
//	P(X_v = 1 | x) = 1 − (1 − λ_v) · Π_{u ∈ F_v : x_u = 1} (1 − p_{u→v})
//
// where λ_v is a leak probability absorbing exogenous infections (seeding)
// and p_{u→v} approximates the propagation probability of the edge. The
// parameters are fitted with the classic latent-variable EM for noisy-OR
// models, which increases the likelihood monotonically at every step.
//
// The noisy-OR reads the *final* statuses, so p̂ estimates the effective
// end-to-end transmission ratio rather than the per-contact probability of
// the simulator; the two agree up to the saturation of the diffusion
// process (tested in this package against simulated ground truth).
package probest

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/obs"
)

// Options tunes the estimator.
type Options struct {
	// Iterations caps the EM iterations; 0 means 2000. The loop stops
	// early once no parameter moves by more than 1e-8.
	Iterations int
	// MinProb floors estimated probabilities away from 0/1 for numerical
	// stability; 0 means 1e-4. It must lie in (0, 0.5): at 0.5 or above the
	// floor would sit above the ceiling 1−MinProb.
	MinProb float64
	// Workers bounds the goroutines fitting nodes: 0 means GOMAXPROCS, 1
	// forces serial. fitNode is deterministic (no RNG), so the estimate is
	// identical at any worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Iterations == 0 {
		o.Iterations = 2000
	}
	if o.MinProb == 0 {
		o.MinProb = 1e-4
	}
	return o
}

// Estimate fits propagation probabilities for every edge of the topology
// from the observations. The returned map has one entry per directed edge;
// Leaks reports the per-node leak probabilities λ_v.
type Estimate struct {
	Probs map[graph.Edge]float64
	Leaks []float64
}

// Run estimates the edge probabilities of topology g from the status
// matrix.
func Run(sm *diffusion.StatusMatrix, g *graph.Directed, opt Options) (*Estimate, error) {
	return RunContext(context.Background(), sm, g, opt)
}

// RunContext is Run with cancellation and observability: node fits run on a
// bounded worker pool (Options.Workers), the context aborts remaining nodes,
// and the context's obs recorder receives a probest/fit span around the
// fits and probest/nodes, probest/em_iters and probest/cases counters.
// fitNode is deterministic, so the estimate is byte-identical at any worker
// count.
func RunContext(ctx context.Context, sm *diffusion.StatusMatrix, g *graph.Directed, opt Options) (*Estimate, error) {
	opt = opt.withDefaults()
	n := g.NumNodes()
	if sm.N() != n {
		return nil, fmt.Errorf("probest: %d observation columns but %d nodes", sm.N(), n)
	}
	if sm.Beta() == 0 {
		return nil, fmt.Errorf("probest: no observations")
	}
	if opt.Iterations < 0 {
		return nil, fmt.Errorf("probest: negative Iterations")
	}
	if !(opt.MinProb > 0 && opt.MinProb < 0.5) {
		return nil, fmt.Errorf("probest: MinProb %v outside (0, 0.5)", opt.MinProb)
	}
	est := &Estimate{
		Probs: make(map[graph.Edge]float64, g.NumEdges()),
		Leaks: make([]float64, n),
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// Per-node results land in one flat slice, node v's parents at
	// [probOff[v], probOff[v+1]) (the Probs map is not safe for concurrent
	// writes); merged serially below.
	probOff := make([]int, n+1)
	for v := 0; v < n; v++ {
		probOff[v+1] = probOff[v] + len(g.Parents(v))
	}
	flat := make([]float64, probOff[n])
	rcd := obs.From(ctx)
	span := rcd.StartSpan("probest/fit")
	var emIters, cases atomic.Int64
	var nextNode atomic.Int64
	fitRange := func() {
		var sc fitScratch
		for ctx.Err() == nil {
			v := int(nextNode.Add(1)) - 1
			if v >= n {
				return
			}
			leak, iters, nc := sc.fitNode(sm, v, g.Parents(v), opt, flat[probOff[v]:probOff[v+1]])
			est.Leaks[v] = leak
			emIters.Add(int64(iters))
			cases.Add(int64(nc))
		}
	}
	if workers <= 1 {
		fitRange()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() { defer wg.Done(); fitRange() }()
		}
		wg.Wait()
	}
	span.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		for i, u := range g.Parents(v) {
			est.Probs[graph.Edge{From: u, To: v}] = flat[probOff[v]+i]
		}
	}
	rcd.Counter("probest/nodes").Add(int64(n))
	rcd.Counter("probest/em_iters").Add(emIters.Load())
	rcd.Counter("probest/cases").Add(cases.Load())
	return est, nil
}

// EdgeProbs converts the estimate into the simulator's CSR layout for the
// influence stage, clamping probabilities into (0,1): probest emits exact 0
// for edges whose parent was never infected (no evidence), which the CSR
// constructor rejects. Such edges get floor — effectively inert in cascade
// simulation — and everything ≥ 1−floor is capped symmetrically. floor ≤ 0
// means 1e-4.
func (e *Estimate) EdgeProbs(g *graph.Directed, floor float64) (*diffusion.EdgeProbs, error) {
	if floor <= 0 {
		floor = 1e-4
	}
	clamped := make(map[graph.Edge]float64, len(e.Probs))
	for edge, p := range e.Probs {
		if p < floor {
			p = floor
		}
		if p > 1-floor {
			p = 1 - floor
		}
		clamped[edge] = p
	}
	return diffusion.EdgeProbsFromMap(g, clamped)
}

// fitScratch is one worker's fit state, reused from node to node.
type fitScratch struct {
	p, acc      []float64
	activeCount []int
	// The positive cases as a CSR: case c's infected parents are
	// idx[off[c]:off[c+1]], as indices j+1 into p.
	off []int
	idx []int32
}

// fitNode maximizes the noisy-OR likelihood of one node's column given its
// parents' columns with the standard latent-variable EM: each active cause
// u (the leak is cause 0, active in every case) carries a hidden "fired"
// indicator z_u; the child is the OR of them. Conditioned on outcome 1 with
// active set A, P(z_u = 1) = p_u / (1 - prod_{w in A}(1 - p_w)); on outcome
// 0 every z_u is 0. The M-step averages the posteriors, which increases the
// likelihood monotonically with no step size to tune.
//
// A case whose child is uninfected adds nothing to the E-step, so only the
// positive cases are materialized, in ascending process order; a cause's
// active count is its column's popcount (β for the leak). Each EM sweep
// costs O(Σ active causes over the positive cases). fitNode writes the
// parents' estimates to probs and returns the leak, the EM iterations and
// the number of positive cases.
func (sc *fitScratch) fitNode(sm *diffusion.StatusMatrix, v int, parents []int, opt Options, probs []float64) (float64, int, int) {
	k := len(parents)
	words := sm.Words()
	data := sm.ColumnData()
	// p[0] is the leak; p[j+1] belongs to parents[j].
	p := slices.Grow(sc.p[:0], k+1)[:k+1]
	acc := slices.Grow(sc.acc[:0], k+1)[:k+1]
	activeCount := slices.Grow(sc.activeCount[:0], k+1)[:k+1]
	sc.p, sc.acc, sc.activeCount = p, acc, activeCount
	for j := range p {
		p[j] = 0.2
	}
	activeCount[0] = sm.Beta()
	for j, u := range parents {
		activeCount[j+1] = sm.CountInfected(u)
	}

	off, idx := append(sc.off[:0], 0), sc.idx[:0]
	for w, word := range data[v*words : (v+1)*words] {
		for word != 0 {
			bit := word & -word
			word &^= bit
			for j, u := range parents {
				if data[u*words+w]&bit != 0 {
					idx = append(idx, int32(j+1))
				}
			}
			off = append(off, len(idx))
		}
	}
	sc.off, sc.idx = off, idx
	nCases := len(off) - 1

	iters := 0
	for iter := 0; iter < opt.Iterations; iter++ {
		iters++
		clear(acc)
		// The leak, cause 0, is active in every case; it is kept out of
		// idx and its sum stays in a register, added in the same order.
		p0, acc0 := p[0], 0.0
		for c := 0; c < nCases; c++ {
			active := idx[off[c]:off[c+1]]
			q := 1 - p0 // = 1.0 · (1 − p0) exactly
			for _, j := range active {
				q *= 1 - p[j]
			}
			denom := 1 - q
			if denom < 1e-12 {
				denom = 1e-12
			}
			acc0 += p0 / denom
			for _, j := range active {
				acc[j] += p[j] / denom
			}
		}
		acc[0] = acc0
		maxDelta := 0.0
		for j := range p {
			if activeCount[j] == 0 {
				continue
			}
			next := acc[j] / float64(activeCount[j])
			if next < opt.MinProb {
				next = opt.MinProb
			}
			if next > 1-opt.MinProb {
				next = 1 - opt.MinProb
			}
			if d := math.Abs(next - p[j]); d > maxDelta {
				maxDelta = d
			}
			p[j] = next
		}
		if maxDelta < 1e-8 {
			break
		}
	}
	for j := 0; j < k; j++ {
		if activeCount[j+1] == 0 {
			probs[j] = 0 // parent never infected: no evidence at all
			continue
		}
		probs[j] = p[j+1]
	}
	leak := p[0]
	if leak <= opt.MinProb {
		leak = 0
	}
	return leak, iters, nCases
}
