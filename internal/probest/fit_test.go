package probest

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tends/internal/core"
	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/lfr"
	"tends/internal/obs"
)

// caseScanFit is the reference fit: the latent-variable EM for noisy-OR
// models, which raises the likelihood at every step, run from p = 0.2 until
// no parameter moves by more than 1e-8 (or maxIters sweeps). It
// materializes every case's active set and visits all β cases per sweep,
// skipping the uninfected ones inside the loop.
func caseScanFit(sm *diffusion.StatusMatrix, v int, parents []int, minProb float64, maxIters int) ([]float64, float64) {
	beta := sm.Beta()
	k := len(parents)
	p := make([]float64, k+1)
	for j := range p {
		p[j] = 0.2
	}
	type obs struct {
		active  []int
		outcome bool
	}
	cases := make([]obs, beta)
	activeCount := make([]int, k+1)
	for pi := 0; pi < beta; pi++ {
		active := []int{0}
		for j, u := range parents {
			if sm.Get(pi, u) {
				active = append(active, j+1)
			}
		}
		for _, j := range active {
			activeCount[j]++
		}
		cases[pi] = obs{active: active, outcome: sm.Get(pi, v)}
	}
	acc := make([]float64, k+1)
	for iter := 0; iter < maxIters; iter++ {
		for j := range acc {
			acc[j] = 0
		}
		for _, c := range cases {
			if !c.outcome {
				continue
			}
			q := 1.0
			for _, j := range c.active {
				q *= 1 - p[j]
			}
			denom := 1 - q
			if denom < 1e-12 {
				denom = 1e-12
			}
			for _, j := range c.active {
				acc[j] += p[j] / denom
			}
		}
		maxDelta := 0.0
		for j := range p {
			if activeCount[j] == 0 {
				continue
			}
			next := min(max(acc[j]/float64(activeCount[j]), minProb), 1-minProb)
			maxDelta = max(maxDelta, math.Abs(next-p[j]))
			p[j] = next
		}
		if maxDelta < 1e-8 {
			break
		}
	}
	probs := make([]float64, k)
	for j := 0; j < k; j++ {
		if activeCount[j+1] > 0 {
			probs[j] = p[j+1]
		}
	}
	leak := p[0]
	if leak <= minProb {
		leak = 0
	}
	return probs, leak
}

// caseScanObjective evaluates a fit by scanning all β cases: the noisy-OR
// log-likelihood of node v's column at the fitted probabilities, and the
// KKT residual there — every evidence-bearing cause's gradient in
// θ = −log(1−p), projected onto the box [MinProb, 1−MinProb], divided by
// the cases the cause is active in. A leak reported as 0 sits at MinProb.
func caseScanObjective(sm *diffusion.StatusMatrix, v int, parents []int, probs []float64, leak, minProb float64) (ll, res float64) {
	k := len(parents)
	p := append([]float64{max(leak, minProb)}, probs...)
	theta := make([]float64, k+1)
	for j := range p {
		theta[j] = -math.Log1p(-p[j])
	}
	grad := make([]float64, k+1)
	activeCount := make([]int, k+1)
	for pi := 0; pi < sm.Beta(); pi++ {
		active := []int{0}
		for j, u := range parents {
			if sm.Get(pi, u) {
				active = append(active, j+1)
			}
		}
		s := 0.0
		for _, j := range active {
			s += theta[j]
			activeCount[j]++
		}
		slope := -1.0 // ∂/∂s of −s, a negative case
		if sm.Get(pi, v) {
			ll += math.Log(-math.Expm1(-s))
			slope = 1 / math.Expm1(s)
		} else {
			ll -= s
		}
		for _, j := range active {
			grad[j] += slope
		}
	}
	for j, g := range grad {
		if activeCount[j] == 0 {
			continue // no evidence: the likelihood does not depend on it
		}
		r := math.Abs(g)
		switch {
		case p[j] <= minProb:
			r = max(g, 0)
		case p[j] >= 1-minProb:
			r = max(-g, 0)
		}
		res = max(res, r/float64(activeCount[j]))
	}
	return ll, res
}

// estimateDigest hashes an estimate canonically: the edges sorted by
// (From, To) with their probabilities' bits, then every leak's bits.
func estimateDigest(est *Estimate) string {
	edges := make([]graph.Edge, 0, len(est.Probs))
	for e := range est.Probs {
		edges = append(edges, e)
	}
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		if a.From != b.From {
			return a.From - b.From
		}
		return a.To - b.To
	})
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, e := range edges {
		put(uint64(e.From))
		put(uint64(e.To))
		put(math.Float64bits(est.Probs[e]))
	}
	for _, l := range est.Leaks {
		put(math.Float64bits(l))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunContextDigest pins the estimate of one seeded instance, so any
// change to the fit's arithmetic shows here.
func TestRunContextDigest(t *testing.T) {
	g, probs := randomDAG(t, 40, 0.15, 21)
	sm := synthNoisyOR(t, 1000, 0.15, probs, g, 22)
	est, err := RunContext(context.Background(), sm, g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const want = "63cc7521026185ae1c3b481d1483bdcc6c60b8540629c46eb126e7058125a0c8"
	if got := estimateDigest(est); got != want {
		t.Fatalf("estimate digest = %s, want %s", got, want)
	}
}

// TestFitNodeOracle checks the Newton fit against the reference EM on
// every fit of three seeded instances, including a node without parents, a
// child never infected, a parent never infected and a parent listed twice,
// at the default MinProb and at three others, down to a box barely wider
// than a point. Each node's log-likelihood must be at least the EM's up to
// rounding, and its KKT residual, recomputed by a scan of all cases,
// within tolerance. The probabilities themselves are not compared: when
// parents always co-occur the optimum is not unique, and the EM stops
// short of it.
func TestFitNodeOracle(t *testing.T) {
	for _, beta := range []int{64, 1000, 1537} {
		g, probs := randomDAG(t, 14, 0.3, int64(beta))
		sm := synthNoisyOR(t, beta, 0.15, probs, g, int64(beta)+1)
		const dead = 3 // never infected
		for pi := 0; pi < beta; pi++ {
			sm.Set(pi, dead, false)
		}
		type fit struct {
			v       int
			parents []int
		}
		fits := []fit{
			{0, nil},               // no parents
			{dead, []int{0, 1, 2}}, // child never infected
			{13, append([]int{dead}, g.Parents(13)...)}, // a parent never infected
			// A parent listed twice always co-occurs with itself: the
			// optimum is a line, and only the pair's sum is determined.
			{13, append(slices.Clone(g.Parents(13)), g.Parents(13)[0])},
		}
		for v := 0; v < g.NumNodes(); v++ {
			fits = append(fits, fit{v, g.Parents(v)})
		}
		var sc fitScratch // reused across every fit, as a worker does
		higher, maxRes := 0, 0.0
		opts := []Options{{}, {MinProb: 0.01}, {MinProb: 1e-7}, {MinProb: 0.49}}
		for _, o := range opts {
			opt := o.withDefaults()
			for _, f := range fits {
				refProbs, refLeak := caseScanFit(sm, f.v, f.parents, opt.MinProb, 20000)
				refLL, _ := caseScanObjective(sm, f.v, f.parents, refProbs, refLeak, opt.MinProb)
				gotProbs := make([]float64, len(f.parents))
				gotLeak, passes, cases, ok := sc.fitNode(sm, f.v, f.parents, opt, gotProbs)
				if !ok {
					t.Fatalf("beta=%d v=%d opt=%+v: fit did not converge in %d passes", beta, f.v, o, passes)
				}
				gotLL, res := caseScanObjective(sm, f.v, f.parents, gotProbs, gotLeak, opt.MinProb)
				if gotLL < refLL-1e-9*math.Abs(refLL) {
					t.Fatalf("beta=%d v=%d opt=%+v: log-likelihood %.12g below the EM's %.12g", beta, f.v, o, gotLL, refLL)
				}
				if gotLL > refLL+1e-9*math.Abs(refLL) {
					higher++
				}
				maxRes = max(maxRes, res)
				// The slack covers the round trip θ → p → θ of the scan.
				if res > kktTol+1e-12 {
					t.Fatalf("beta=%d v=%d opt=%+v: KKT residual %.3g, tolerance %.3g", beta, f.v, o, res, kktTol)
				}
				for j, p := range gotProbs {
					if refProbs[j] == 0 && p != 0 {
						t.Fatalf("beta=%d v=%d: never-infected parent %d got %v, want 0", beta, f.v, f.parents[j], p)
					}
				}
				if want := sm.CountInfected(f.v); cases != want {
					t.Fatalf("beta=%d v=%d: %d positive cases, want %d", beta, f.v, cases, want)
				}
			}
		}
		t.Logf("beta=%d: %d of %d fits strictly above the EM's likelihood; largest KKT residual %.3g", beta, higher, len(opts)*len(fits), maxRes)
	}
}

// TestRunAllocsBounded checks that a run allocates O(n + edges) objects:
// nothing per case, so the count does not grow with β.
func TestRunAllocsBounded(t *testing.T) {
	const n, beta = 200, 2048
	g, probs := randomDAG(t, n, 0.02, 31)
	sm := synthNoisyOR(t, beta, 0.1, probs, g, 32)
	bound := float64(n + g.NumEdges())
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := RunContext(context.Background(), sm, g, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per run; n+edges = %.0f", allocs, bound)
	if allocs > bound {
		t.Fatalf("RunContext allocated %.0f objects per run, want at most n+edges = %.0f", allocs, bound)
	}
}

func TestRunRejectsBadMinProb(t *testing.T) {
	g := graph.Chain(3)
	sm := diffusion.NewStatusMatrix(10, 3)
	for _, tc := range []struct {
		minProb float64
		ok      bool
	}{
		{0, true}, // the default, 1e-4
		{1e-6, true},
		{0.49, true},
		{-1e-4, false},
		{math.NaN(), false},
		{0.5, false},
		{0.6, false},
		{math.Inf(1), false},
	} {
		_, err := Run(sm, g, Options{MinProb: tc.minProb})
		if (err == nil) != tc.ok {
			t.Errorf("MinProb %v: err = %v, want ok=%v", tc.minProb, err, tc.ok)
		}
	}
}

// TestFitOracleOnInferredTopology runs the oracle on the regime the
// benchmark's paper-1k workload measures, scaled down: an LFR network with
// edge probabilities around 0.08, ten seeds per process, and the topology
// TENDS infers from the statuses (spurious parents included). Every node
// must converge, reach at least the likelihood of the reference EM capped
// at 2,000 sweeps, and meet the KKT tolerance.
func TestFitOracleOnInferredTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("infers a 300-node topology and runs the reference EM on every node")
	}
	const n, beta = 300, 1024
	rng := rand.New(rand.NewSource(5))
	net, err := lfr.Generate(lfr.Params{N: n, AvgDegree: 10, DegreeExp: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ep := diffusion.NewEdgeProbs(net.Graph, 0.08, 0.05, rng)
	sim, err := diffusion.Simulate(ep, diffusion.Config{Alpha: 10.0 / n, Beta: beta}, rng)
	if err != nil {
		t.Fatal(err)
	}
	sm := sim.Statuses
	inferred, err := core.Infer(sm, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := inferred.Graph
	rec := obs.New()
	est, err := RunContext(obs.With(context.Background(), rec), sm, g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if u := rec.Counter("probest/unconverged").Value(); u != 0 {
		t.Fatalf("probest/unconverged = %d, want 0", u)
	}
	const minProb = 1e-4
	higher := 0
	for v := 0; v < n; v++ {
		parents := g.Parents(v)
		refProbs, refLeak := caseScanFit(sm, v, parents, minProb, 2000)
		refLL, _ := caseScanObjective(sm, v, parents, refProbs, refLeak, minProb)
		probs := make([]float64, len(parents))
		for j, u := range parents {
			probs[j] = est.Probs[graph.Edge{From: u, To: v}]
		}
		gotLL, res := caseScanObjective(sm, v, parents, probs, est.Leaks[v], minProb)
		if gotLL < refLL-1e-9*math.Abs(refLL) {
			t.Fatalf("node %d: log-likelihood %.12g below the EM's %.12g", v, gotLL, refLL)
		}
		if gotLL > refLL+1e-9*math.Abs(refLL) {
			higher++
		}
		if res > kktTol+1e-12 {
			t.Fatalf("node %d: KKT residual %.3g, tolerance %.3g", v, res, kktTol)
		}
	}
	t.Logf("%d nodes, %d edges, %d Newton evaluations; %d nodes strictly above the EM's likelihood",
		n, g.NumEdges(), rec.Counter("probest/em_iters").Value(), higher)
}
