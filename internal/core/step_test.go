package core

import (
	"context"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"tends/internal/diffusion"
	"tends/internal/lfr"
	"tends/internal/obs"
)

// walkCounters returns the names of the cascade walk's counters in c, the
// core/sparse/ ones other than core/sparse/kept, which either step records.
func walkCounters(c map[string]int64) []string {
	var names []string
	for name := range c {
		if strings.HasPrefix(name, "core/sparse/") && name != "core/sparse/kept" {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

// TestInferChoosesCountingStep checks the pairwise stage's choice of its
// counting step: popcount on a paper-like input (LFR, n = 150, β = 1000,
// dense cascades), the walk on a sparse scale-like one (n = 10⁴, β = 64,
// each node infected in 1% of the processes, pruned at the K-means τ so
// that some thousands of edges survive). InferContext must record the
// chosen step's pair counters and none of the other's, infer the topology
// the other step infers when forced, and do the same with the deprecated
// Options.Sparse set.
func TestInferChoosesCountingStep(t *testing.T) {
	net, err := lfr.GenerateBenchmark(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		sm          *diffusion.StatusMatrix
		opt         Options
		want, other countStep
	}{
		{"paper-like", simulateOn(t, net.Graph, 0.3, 0.15, 1000, 11), Options{}, popcountStep, walkStep},
		{"scale-like", sparseRandomStatus(10000, 64, 0.01, 5), Options{ThresholdMethod: ThresholdKMeans}, walkStep, popcountStep},
	} {
		if (testing.Short() || raceEnabled) && tc.want == walkStep {
			t.Log("scale-like input skipped: its forced popcount holds and scans a byte per pair of 5·10⁷")
			continue
		}
		view := NewScorer(tc.sm)
		if got := chooseStep(view, cascadeOffsets(view)); got != tc.want {
			t.Fatalf("%s: chooseStep = %v, want %v", tc.name, got, tc.want)
		}
		run := func(sparse bool, step countStep) (string, map[string]int64) {
			opt := tc.opt
			opt.Sparse = sparse
			rec := obs.New()
			res, err := infer(obs.With(context.Background(), rec), tc.sm, opt, step)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, step, err)
			}
			if res.Graph.NumEdges() == 0 {
				t.Fatalf("%s %v: no edge inferred; the test needs a topology to compare", tc.name, step)
			}
			return res.Graph.String(), rec.Snapshot().Counters
		}
		topo, c := run(false, autoStep)
		pairs, walked := c["core/imi/pairs"], walkCounters(c)
		switch {
		case tc.want == popcountStep && (pairs != int64(tc.sm.N())*int64(tc.sm.N()-1)/2 || len(walked) != 0):
			t.Fatalf("%s: core/imi/pairs = %d and walk counters %v, want every pair and none", tc.name, pairs, walked)
		case tc.want == walkStep && (pairs != 0 || c["core/sparse/rows"] != int64(tc.sm.N())):
			t.Fatalf("%s: core/imi/pairs = %d and core/sparse/rows = %d, want 0 and n", tc.name, pairs, c["core/sparse/rows"])
		}
		if _, ok := c["core/sparse/kept"]; !ok {
			t.Fatalf("%s: core/sparse/kept not recorded", tc.name)
		}
		if forced, _ := run(false, tc.other); forced != topo {
			t.Fatalf("%s: the chosen %v and the forced %v infer different topologies", tc.name, tc.want, tc.other)
		}
		deprecated, dc := run(true, autoStep)
		if deprecated != topo || !maps.Equal(dc, c) {
			t.Fatalf("%s: Options.Sparse changed the inference or its counters", tc.name)
		}
	}
}

// TestSparseIMIBeatsDenseAtScale times the full pairwise build by the
// cascade walk against the one by popcount, on the n=10⁴, β=256 input of
// the scale study (LFR seed 1, average degree 10, edge probability 0.08,
// ten seeds per process), best of three runs each. Only 2.8% of the 5·10⁷
// pairs co-occur there, so the walk must be at least 5× faster (7–9× on a
// 2-vCPU VM), and the build must choose it by itself. The popcount side
// takes about half a second per run, so -short and the race detector skip
// the test.
func TestSparseIMIBeatsDenseAtScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("wall-clock comparison at n=10⁴")
	}
	const n, beta = 10000, 256
	rng := rand.New(rand.NewSource(1))
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
	if view := NewScorer(sm); chooseStep(view, cascadeOffsets(view)) != walkStep {
		t.Fatal("the build does not choose the walk at n=10⁴, β=256")
	}
	ctx := context.Background()
	best := func(step countStep) (*SparseIMI, time.Duration) {
		var s *SparseIMI
		d := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			built, err := buildSparse(ctx, NewScorer(sm), false, 0, step, nil)
			if err != nil {
				t.Fatal(err)
			}
			s, d = built, min(d, time.Since(start))
		}
		return s, d
	}
	sp, walk := best(walkStep)
	_, popcount := best(popcountStep)
	speedup := float64(popcount) / float64(walk)
	t.Logf("n=10000 β=256: co-pairs %d of %d, walk %v, popcount %v, speedup %.1f×", sp.CoPairs(), sp.TotalPairs(), walk, popcount, speedup)
	if speedup < 5 {
		t.Fatalf("the walk's build %v is only %.1f× faster than popcount's %v, want ≥5×", walk, speedup, popcount)
	}
}
