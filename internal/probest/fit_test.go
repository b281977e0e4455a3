package probest

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/graph"
)

// caseScanFit is the reference EM: it materializes every case's active set
// and visits all β cases per iteration, skipping the uninfected ones inside
// the loop. fitNode must reproduce it bit for bit.
func caseScanFit(sm *diffusion.StatusMatrix, v int, parents []int, opt Options) ([]float64, float64, int) {
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
	iters := 0
	for iter := 0; iter < opt.Iterations; iter++ {
		iters++
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
	probs := make([]float64, k)
	for j := 0; j < k; j++ {
		if activeCount[j+1] == 0 {
			probs[j] = 0
			continue
		}
		probs[j] = p[j+1]
	}
	leak := p[0]
	if leak <= opt.MinProb {
		leak = 0
	}
	return probs, leak, iters
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

// TestRunContextDigest pins the estimate of one seeded instance, recorded
// from the case-scan EM, so any change to the fit's arithmetic shows here.
func TestRunContextDigest(t *testing.T) {
	g, probs := randomDAG(t, 40, 0.15, 21)
	sm := synthNoisyOR(t, 1000, 0.15, probs, g, 22)
	est, err := RunContext(context.Background(), sm, g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const want = "c79b417a58bff1ed52356b3f3c9cd479f0730440416d519b6f2debaddb55e46a"
	if got := estimateDigest(est); got != want {
		t.Fatalf("estimate digest = %s, want %s", got, want)
	}
}

func TestFitNodeMatchesCaseScan(t *testing.T) {
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
		}
		for v := 0; v < g.NumNodes(); v++ {
			fits = append(fits, fit{v, g.Parents(v)})
		}
		var sc fitScratch // reused across every fit, as a worker does
		capped := 0
		for _, o := range []Options{{}, {Iterations: 3}, {MinProb: 0.01}} {
			opt := o.withDefaults()
			for _, f := range fits {
				wantProbs, wantLeak, wantIters := caseScanFit(sm, f.v, f.parents, opt)
				gotProbs := make([]float64, len(f.parents))
				gotLeak, gotIters, cases := sc.fitNode(sm, f.v, f.parents, opt, gotProbs)
				if gotIters == opt.Iterations {
					capped++
				}
				if gotIters != wantIters {
					t.Fatalf("beta=%d v=%d opt=%+v: %d iterations, want %d", beta, f.v, o, gotIters, wantIters)
				}
				if math.Float64bits(gotLeak) != math.Float64bits(wantLeak) {
					t.Fatalf("beta=%d v=%d opt=%+v: leak %v, want %v", beta, f.v, o, gotLeak, wantLeak)
				}
				for j := range wantProbs {
					if math.Float64bits(gotProbs[j]) != math.Float64bits(wantProbs[j]) {
						t.Fatalf("beta=%d v=%d opt=%+v: parent %d prob %v, want %v", beta, f.v, o, f.parents[j], gotProbs[j], wantProbs[j])
					}
				}
				if want := sm.CountInfected(f.v); cases != want {
					t.Fatalf("beta=%d v=%d: %d positive cases, want %d", beta, f.v, cases, want)
				}
			}
		}
		if capped == 0 {
			t.Fatalf("beta=%d: no fit reached its iteration cap", beta)
		}
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
