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
// and p_{u→v} approximates the propagation probability of the edge. Each
// node is fitted by maximum likelihood, a small convex problem: in
// θ = −log(1−p) the log-likelihood is concave (a case where the node stays
// uninfected adds a linear term, one where it is infected adds
// log(1 − e^{−Σθ})), the structure NetRate exploits for its own model. A
// projected Newton method on the box that MinProb sets solves it to a
// stated KKT tolerance; see fitNode.
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
	"math/bits"
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
// fits and the counters probest/nodes, probest/cases (positive cases),
// probest/em_iters (the fits' Newton evaluations, each one pass over a
// node's positive cases; the name predates the Newton fit) and
// probest/unconverged (nodes that stopped short of the KKT tolerance; 0
// unless a safety limit binds).
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
	var iters, cases, unconverged atomic.Int64
	var nextNode atomic.Int64
	fitRange := func() {
		var sc fitScratch
		for ctx.Err() == nil {
			v := int(nextNode.Add(1)) - 1
			if v >= n {
				return
			}
			leak, evals, nc, ok := sc.fitNode(sm, v, g.Parents(v), opt, flat[probOff[v]:probOff[v+1]])
			est.Leaks[v] = leak
			iters.Add(int64(evals))
			cases.Add(int64(nc))
			if !ok {
				unconverged.Add(1)
			}
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
	rcd.Counter("probest/em_iters").Add(iters.Load())
	rcd.Counter("probest/cases").Add(cases.Load())
	rcd.Counter("probest/unconverged").Add(unconverged.Load())
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
	return diffusion.ClampedEdgeProbs(g, e.Probs, floor)
}

// The fit's stopping rule and its limits. A node has converged when every
// free cause's projected gradient of the log-likelihood in θ is at most
// kktTol times the number of cases the cause is active in. Newton reaches
// that in a handful of evaluations; maxEvals only guards against a fit
// that cannot, and a node that reaches it, or whose line search stalls,
// counts in probest/unconverged.
const (
	kktTol   = 1e-8
	maxEvals = 100
	// A step may shrink no positive case's s = Σθ below 1/keepFrac of its
	// value. Near s = 0 the objective behaves like log s, which Newton's
	// quadratic model overshoots onto the lower bound, from where it
	// would climb back only about 2× per step.
	keepFrac = 4
	// armijo is the fraction of its first-order gain a step must achieve;
	// maxHalvings bounds the backtracking of one step.
	armijo      = 1e-4
	maxHalvings = 40
	// Below noiseGain·|ℓ| a step's predicted gain is lost in ℓ's rounding,
	// and a step is taken if it shrinks the projected gradient instead.
	noiseGain = 1e-11
)

// Cause states during a fit: free causes are solved for, the others sit at
// a bound. A cause active only in positive cases has a positive gradient
// everywhere, so it sits at the upper bound; one never active in a positive
// case, at the lower bound; one never active at all carries no evidence.
const (
	causeFree uint8 = iota
	causeLow
	causeHigh
	causeNone
)

// fitScratch is one worker's fit state, reused from node to node. Index 0
// of every per-cause slice is the leak, index j+1 the node's parent j.
type fitScratch struct {
	theta, trial, grad, gTrial, step []float64
	// hess holds −∂²ℓ/∂θ² row-major, lower triangle only; chol holds the
	// free block's Cholesky factor.
	hess, chol  []float64
	activeCount []int
	neg         []float64 // negative cases each cause is active in
	coactive    []float64 // parents active in each parent's positive cases, summed
	state       []uint8
	free        []int
	union       []uint64 // the cases with some parent active
	// The positive cases as a CSR: case c's infected parents are
	// idx[off[c]:off[c+1]], ascending, as cause indices j+1.
	off []int
	idx []int32
}

// grown returns s resized to n elements, reusing its array when it can.
func grown[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// fitNode maximizes the noisy-OR likelihood of one node's column given its
// parents' columns. In θ_j = −log(1−p_j) the log-likelihood is concave:
//
//	ℓ(θ) = Σ_{positive c} log(1 − e^{−s_c}) − Σ_j N_j θ_j,   s_c = Σ_{j ∈ A_c} θ_j
//
// where A_c is case c's active causes (the leak, cause 0, is active in
// every case) and N_j counts the negative cases cause j is active in. The
// negative cases thus reduce to counts, and one pass over the positive
// cases gives ℓ, its gradient and its Hessian. fitNode maximizes ℓ on the
// box θ ∈ [−log(1−MinProb), −log MinProb] with a projected Newton method
// (see newton) from the single-cause start (see start).
//
// fitNode writes the parents' estimates to probs and returns the leak, the
// Newton evaluations (passes over the positive cases), the number of
// positive cases, and whether the node met the KKT tolerance.
func (sc *fitScratch) fitNode(sm *diffusion.StatusMatrix, v int, parents []int, opt Options, probs []float64) (float64, int, int, bool) {
	m := len(parents) + 1
	for _, s := range []*[]float64{&sc.theta, &sc.trial, &sc.grad, &sc.gTrial, &sc.step, &sc.neg, &sc.coactive} {
		*s = grown(*s, m)
	}
	sc.hess = grown(sc.hess, m*m)
	sc.activeCount = grown(sc.activeCount, m)
	sc.state = grown(sc.state, m)
	nCases := sc.cases(sm, v, parents)
	lo, hi := -math.Log1p(-opt.MinProb), -math.Log(opt.MinProb)

	evals, converged := 0, true
	if sc.start(sm.Beta(), lo, hi) > 0 {
		evals, converged = sc.newton(lo, hi)
	}
	theta := sc.theta
	for j := range parents {
		if sc.state[j+1] == causeNone {
			probs[j] = 0 // parent never infected: no evidence at all
			continue
		}
		probs[j] = thetaProb(theta[j+1], lo, hi, opt.MinProb)
	}
	leak := 0.0
	if theta[0] > lo {
		leak = thetaProb(theta[0], lo, hi, opt.MinProb)
	}
	return leak, evals, nCases, converged
}

// cases materializes node v's positive cases in ascending process order
// and counts every cause's active and negative cases; it returns the
// number of positive cases. A cause's active count is its column's
// popcount (β for the leak).
func (sc *fitScratch) cases(sm *diffusion.StatusMatrix, v int, parents []int) int {
	words := sm.Words()
	data := sm.ColumnData()
	sc.union = grown(sc.union, words)
	union, neg, coactive, activeCount := sc.union, sc.neg, sc.coactive, sc.activeCount
	clear(union)
	clear(neg) // counts positive occurrences until the subtraction below
	clear(coactive)
	activeCount[0] = sm.Beta()
	for j, u := range parents {
		for w, word := range data[u*words : (u+1)*words] {
			union[w] |= word
		}
		activeCount[j+1] = sm.CountInfected(u)
	}
	off, idx := append(sc.off[:0], 0), sc.idx[:0]
	for w, word := range data[v*words : (v+1)*words] {
		for word != 0 {
			bit := word & -word
			word &^= bit
			start := len(idx)
			for j, u := range parents {
				if data[u*words+w]&bit != 0 {
					idx = append(idx, int32(j+1))
				}
			}
			for _, j := range idx[start:] {
				neg[j]++
				coactive[j] += float64(len(idx) - start)
			}
			off = append(off, len(idx))
		}
	}
	sc.off, sc.idx = off, idx
	nCases := len(off) - 1
	neg[0] = float64(nCases)
	for j := range neg {
		neg[j] = float64(activeCount[j]) - neg[j]
	}
	return nCases
}

// start classifies the causes and sets θ to the single-cause start: the
// leak's estimate from the cases with no parent active, and each parent's
// from the cases it is active in, net of the leak and shared evenly with
// the parents active beside it (1 − p_j = ((1 − r_j)/(1 − λ))^{1/m_j} for
// the parent's positive rate r_j and the mean number m_j of parents active
// in its positive cases). It returns the number of free causes.
func (sc *fitScratch) start(beta int, lo, hi float64) int {
	theta, neg, activeCount := sc.theta, sc.neg, sc.activeCount
	clampTheta := func(t float64) float64 { return min(max(t, lo), hi) }
	noParent := beta
	for _, word := range sc.union {
		noParent -= bits.OnesCount64(word)
	}
	leakOnly := 0 // positive cases with no parent active
	for c := 0; c+1 < len(sc.off); c++ {
		if sc.off[c] == sc.off[c+1] {
			leakOnly++
		}
	}
	if noParent > 0 {
		theta[0] = clampTheta(-math.Log1p(-float64(leakOnly) / float64(noParent)))
	} else {
		theta[0] = clampTheta(-math.Log1p(-float64(len(sc.off)-1) / float64(beta)))
	}
	nFree := 0
	for j := range sc.state {
		pos := float64(activeCount[j]) - neg[j]
		st := causeFree
		switch {
		case activeCount[j] == 0:
			st, theta[j] = causeNone, lo
		case pos == 0:
			st, theta[j] = causeLow, lo
		case neg[j] == 0:
			st, theta[j] = causeHigh, hi
		default:
			nFree++
			if j > 0 {
				m := sc.coactive[j] / pos
				theta[j] = clampTheta((-math.Log1p(-pos/float64(activeCount[j])) - theta[0]) / m)
			}
		}
		sc.state[j] = st
	}
	return nFree
}

// newton runs the projected Newton iteration from sc.theta and returns its
// evaluations and whether it met the KKT tolerance. Each step solves the
// Newton system on the free causes (see newtonStep), caps its length so no
// positive case's s falls below 1/keepFrac of its value (see stepLimit),
// and backtracks along the projection onto the box until the Armijo
// condition holds.
func (sc *fitScratch) newton(lo, hi float64) (int, bool) {
	theta, g := sc.theta, sc.grad
	ll := sc.eval(theta, g)
	res := sc.kktResidual(theta, g, lo, hi)
	evals := 1
	for res > kktTol {
		if evals >= maxEvals || !sc.newtonStep(theta, g, lo, hi) {
			return evals, false
		}
		step, trial, gT := sc.step, sc.trial, sc.gTrial
		alpha, accepted := sc.stepLimit(theta), false
		for h := 0; h <= maxHalvings && evals < maxEvals && !accepted; h++ {
			pred := 0.0
			for j := range theta {
				trial[j] = min(max(theta[j]+alpha*step[j], lo), hi)
				pred += g[j] * (trial[j] - theta[j])
			}
			llT := sc.eval(trial, gT)
			evals++
			resT := sc.kktResidual(trial, gT, lo, hi)
			if llT >= ll+armijo*pred || pred <= noiseGain*math.Abs(ll) && resT < res {
				accepted = true
				ll, res = llT, resT
				theta, trial, g, gT = trial, theta, gT, g
				sc.theta, sc.trial, sc.grad, sc.gTrial = theta, trial, g, gT
			}
			alpha /= 2
		}
		if !accepted {
			return evals, false
		}
	}
	return evals, true
}

// stepLimit returns the largest step length in (0, 1] along sc.step that
// keeps every positive case's s above 1/keepFrac of its current value,
// counting only the step's decreases (the projection onto the box can only
// raise a decreasing θ).
func (sc *fitScratch) stepLimit(theta []float64) float64 {
	step, off, idx := sc.step, sc.off, sc.idx
	s0, d0 := theta[0], min(step[0], 0)
	alpha := 1.0
	for c := 0; c+1 < len(off); c++ {
		s, d := s0, d0
		for _, j := range idx[off[c]:off[c+1]] {
			s += theta[j]
			d += min(step[j], 0)
		}
		if s *= 1 - 1.0/keepFrac; alpha*-d > s {
			alpha = s / -d
		}
	}
	return alpha
}

// eval returns ℓ(θ) and writes its gradient to g and −∂²ℓ/∂θ² to sc.hess
// (lower triangle), at one Expm1 and one Log per positive case: a case
// with s = Σ θ over its active causes contributes log(1 − e^{−s}) =
// log(−t) for t = expm1(−s), slope w = (1+t)/(−t) to each active cause,
// and curvature w(1+w) to each pair of them.
func (sc *fitScratch) eval(theta, g []float64) float64 {
	m := len(theta)
	h := sc.hess
	clear(h)
	ll := 0.0
	for j, n := range sc.neg {
		g[j] = -n
		ll -= n * theta[j]
	}
	off, idx := sc.off, sc.idx
	// The leak is active in every case; its sums stay in registers.
	t0, g0, h00 := theta[0], g[0], 0.0
	for c := 0; c+1 < len(off); c++ {
		active := idx[off[c]:off[c+1]]
		s := t0
		for _, j := range active {
			s += theta[j]
		}
		t := math.Expm1(-s)
		ll += math.Log(-t)
		w := (1 + t) / -t
		hc := w * (1 + w)
		g0 += w
		h00 += hc
		for a, j := range active {
			g[j] += w
			row := h[int(j)*m : int(j)*m+int(j)+1]
			row[0] += hc
			for _, l := range active[:a+1] {
				row[l] += hc
			}
		}
	}
	g[0], h[0] = g0, h00
	return ll
}

// kktResidual returns the largest projected gradient over the free
// causes, each divided by the cases its cause is active in: 0 at the
// optimum. A cause at its lower bound may have a negative gradient, one at
// its upper bound a positive one.
func (sc *fitScratch) kktResidual(theta, g []float64, lo, hi float64) float64 {
	res := 0.0
	for j, st := range sc.state {
		if st == causeFree {
			res = max(res, projGrad(theta[j], g[j], lo, hi)/float64(sc.activeCount[j]))
		}
	}
	return res
}

// projGrad is the magnitude of a cause's gradient g projected onto the box
// at θ: the part of it that does not point out of a bound θ sits on.
func projGrad(theta, g, lo, hi float64) float64 {
	switch {
	case theta <= lo:
		return max(g, 0)
	case theta >= hi:
		return max(-g, 0)
	}
	return math.Abs(g)
}

// newtonStep writes the projected Newton direction to sc.step: zero on the
// free causes that sit at a bound their gradient pushes into, and on the
// others the solution of their block of the Newton system. A cause at a
// bound that the solution would push outward is held as well, and the
// system solved again. It reports false if no cause is left to move or no
// factorization succeeds.
func (sc *fitScratch) newtonStep(theta, g []float64, lo, hi float64) bool {
	step := sc.step
	clear(step)
	free := sc.free[:0]
	for j, st := range sc.state {
		if st == causeFree && projGrad(theta[j], g[j], lo, hi) > 0 {
			free = append(free, j)
		}
	}
	for len(free) > 0 {
		sc.free = free
		if !sc.solve(free, g, len(theta)) {
			return false
		}
		kept := free[:0]
		for _, j := range free {
			if d := step[j]; !(theta[j] <= lo && d < 0 || theta[j] >= hi && d > 0) {
				kept = append(kept, j)
			}
		}
		if len(kept) == len(free) {
			return true
		}
		clear(step)
		free = kept
	}
	return false
}

// solve writes to sc.step the Newton direction of the free causes, the
// solution of (−H_FF + μI) d = g_F, by Cholesky. The ridge μ, relative to
// the block's largest diagonal entry, keeps the factorization defined when
// causes always co-occur (their optimum is then not unique); it grows if
// the factorization fails.
func (sc *fitScratch) solve(free []int, g []float64, m int) bool {
	f := len(free)
	sc.chol = grown(sc.chol, f*f)
	a, d := sc.chol, sc.step
	maxDiag := 0.0
	for _, j := range free {
		maxDiag = max(maxDiag, sc.hess[j*m+j])
	}
	ridge := max(1e-12*maxDiag, 1e-300)
	for try := 0; try < 8; try, ridge = try+1, ridge*1e3 {
		for r, jr := range free {
			for c, jc := range free[:r+1] {
				a[r*f+c] = sc.hess[jr*m+jc]
			}
			a[r*f+r] += ridge
		}
		if !cholesky(a, f) {
			continue
		}
		// L Lᵀ d = g_F: forward, then back substitution.
		for r, jr := range free {
			s := g[jr]
			for c := 0; c < r; c++ {
				s -= a[r*f+c] * d[free[c]]
			}
			d[jr] = s / a[r*f+r]
		}
		for r := f - 1; r >= 0; r-- {
			s := d[free[r]]
			for c := r + 1; c < f; c++ {
				s -= a[c*f+r] * d[free[c]]
			}
			d[free[r]] = s / a[r*f+r]
		}
		return true
	}
	return false
}

// cholesky factors the f×f symmetric matrix a (lower triangle, row-major)
// in place into L with a = L Lᵀ, reporting false on a non-positive pivot.
func cholesky(a []float64, f int) bool {
	for r := 0; r < f; r++ {
		for c := 0; c <= r; c++ {
			s := a[r*f+c]
			for k := 0; k < c; k++ {
				s -= a[r*f+k] * a[c*f+k]
			}
			if c < r {
				a[r*f+c] = s / a[c*f+c]
				continue
			}
			if !(s > 0) {
				return false
			}
			a[r*f+r] = math.Sqrt(s)
		}
	}
	return true
}

// thetaProb maps θ back to p = 1 − e^{−θ}, exactly onto the bounds.
func thetaProb(t, lo, hi, minProb float64) float64 {
	switch {
	case t <= lo:
		return minProb
	case t >= hi:
		return 1 - minProb
	}
	return min(max(-math.Expm1(-t), minProb), 1-minProb)
}
