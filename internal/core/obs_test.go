package core

import (
	"context"
	"math/rand"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/lfr"
	"tends/internal/obs"
)

// randomStatuses builds a beta×n status matrix with ~half the bits set.
func randomStatuses(n, beta int, seed int64) *diffusion.StatusMatrix {
	rng := rand.New(rand.NewSource(seed))
	sm := diffusion.NewStatusMatrix(beta, n)
	for p := 0; p < beta; p++ {
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				sm.Set(p, v, true)
			}
		}
	}
	return sm
}

// TestIMINoopObsAllocsIndependentOfSize pins the no-op recorder guarantee on
// the IMI hot loop: without a recorder in the context, the telemetry calls
// must not allocate, so ComputeIMIContext's allocation count is a small
// constant independent of the node count. A per-row or per-pair allocation
// anywhere in the loop would make the larger matrix allocate more.
func TestIMINoopObsAllocsIndependentOfSize(t *testing.T) {
	ctx := context.Background()
	small := randomStatuses(16, 64, 1)
	large := randomStatuses(64, 64, 2)
	measure := func(sm *diffusion.StatusMatrix) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := ComputeIMIContext(ctx, sm, false, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := measure(small), measure(large)
	if a != b {
		t.Fatalf("allocation count scales with matrix size: n=16 → %.1f, n=64 → %.1f", a, b)
	}
}

// TestInferRecordsTelemetry runs inference with a recorder attached and
// checks the spans and counters the core stage promises.
func TestInferRecordsTelemetry(t *testing.T) {
	sm := statusesFromChain(t, 16, 80, 3)
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	res, err := InferContext(ctx, sm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Snapshot()
	n := int64(sm.N())
	if got := s.Counters["core/imi/rows"]; got != n-1 {
		t.Fatalf("core/imi/rows = %d, want %d", got, n-1)
	}
	if got := s.Counters["core/imi/pairs"]; got != n*(n-1)/2 {
		t.Fatalf("core/imi/pairs = %d, want %d", got, n*(n-1)/2)
	}
	if s.Counters["core/search/combos"] == 0 {
		t.Fatal("no combinations counted")
	}
	if res.Graph.NumEdges() > 0 && s.Counters["core/search/merges"] == 0 {
		t.Fatal("edges inferred but no greedy merges counted")
	}
	if res.Graph.NumEdges() > 0 && s.Counters["core/search/probes"] == 0 {
		t.Fatal("edges inferred but no merge probes counted")
	}
	for _, span := range []string{"core/infer", "core/imi", "core/threshold", "core/search"} {
		ts, ok := s.Timings[span]
		if !ok || ts.Count == 0 {
			t.Fatalf("span %q not recorded (timings: %v)", span, s.Timings)
		}
	}
	// The sub-phases are nested inside core/infer and cannot exceed it.
	total := s.Timings["core/infer"].TotalNS
	sub := s.Timings["core/imi"].TotalNS + s.Timings["core/threshold"].TotalNS + s.Timings["core/search"].TotalNS
	if sub > total {
		t.Fatalf("nested spans (%d ns) exceed the enclosing core/infer span (%d ns)", sub, total)
	}
}

// TestInferIdenticalWithAndWithoutRecorder guards the side-channel-only
// promise: attaching a recorder must not change the inferred topology.
func TestInferIdenticalWithAndWithoutRecorder(t *testing.T) {
	sm := statusesFromChain(t, 14, 70, 5)
	plain, err := Infer(sm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	instrumented, err := InferContext(obs.With(context.Background(), rec), sm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Graph.Equal(instrumented.Graph) {
		t.Fatal("recorder changed the inferred graph")
	}
	if plain.Threshold != instrumented.Threshold || plain.Score != instrumented.Score {
		t.Fatalf("recorder changed diagnostics: %v/%v vs %v/%v",
			plain.Threshold, plain.Score, instrumented.Threshold, instrumented.Score)
	}
}

// statusesFromChain simulates a symmetric chain workload, the cheap standard
// instance of the core tests.
func statusesFromChain(t *testing.T, n, beta int, seed int64) *diffusion.StatusMatrix {
	t.Helper()
	g := graph.Chain(n)
	g.Symmetrize()
	rng := rand.New(rand.NewSource(seed))
	ep := diffusion.NewEdgeProbs(g, 0.4, 0.05, rng)
	res, err := diffusion.Simulate(ep, diffusion.Config{Alpha: 0.15, Beta: beta}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return res.Statuses
}

// dependentStatus builds β observations over n nodes in which node 0 is
// infected, with probability 0.9, whenever any of nodes 1..4 is, plus 2%
// background noise; every other node is an independent coin of weight 0.15.
func dependentStatus(beta, n int, seed int64) *diffusion.StatusMatrix {
	rng := rand.New(rand.NewSource(seed))
	sm := diffusion.NewStatusMatrix(beta, n)
	for p := 0; p < beta; p++ {
		hit := false
		for v := 1; v < n; v++ {
			if rng.Float64() < 0.15 {
				sm.Set(p, v, true)
				hit = hit || v <= 4
			}
		}
		if (hit && rng.Float64() < 0.9) || rng.Float64() < 0.02 {
			sm.Set(p, 0, true)
		}
	}
	return sm
}

// TestSearchParentsAllocsConstant pins the search's reuse of its scratch:
// once a worker's scratch has grown, one node's search allocates only its
// returned parent set, whatever β and however many merge probes it runs. A
// per-combination or per-probe allocation would make the larger search
// allocate more.
func TestSearchParentsAllocsConstant(t *testing.T) {
	ctx := context.Background()
	opt := Options{}.withDefaults()
	measure := func(beta, nCands int) (allocs float64, probes int64) {
		s := NewScorer(dependentStatus(beta, 16, int64(beta)))
		cands := make([]int, nCands)
		for i := range cands {
			cands[i] = i + 1
		}
		sc := s.newScratch()
		rec := obs.New()
		parents, reason := searchParents(ctx, s, 0, cands, opt, coreTel{probes: rec.Counter("probes")}, sc)
		if len(parents) == 0 || reason != DegradeNone {
			t.Fatalf("β=%d: search found parents %v (%v); the input should yield some", beta, parents, reason)
		}
		allocs = testing.AllocsPerRun(20, func() {
			searchParents(ctx, s, 0, cands, opt, coreTel{}, sc)
		})
		return allocs, rec.Counter("probes").Value()
	}
	smallAllocs, smallProbes := measure(256, 6)
	largeAllocs, largeProbes := measure(1024, 15)
	if smallProbes >= largeProbes {
		t.Fatalf("probe counts %d (β=256) and %d (β=1024) do not grow; the test needs them to", smallProbes, largeProbes)
	}
	if smallAllocs != largeAllocs || largeAllocs > 1 {
		t.Fatalf("searchParents allocates %.1f times at β=256 (%d probes) and %.1f at β=1024 (%d probes); want the same, at most 1",
			smallAllocs, smallProbes, largeAllocs, largeProbes)
	}
}

// TestSearchCountersPinned gates the search on its counters rather than a
// clock. On one seeded LFR instance, at 1 and 4 workers, the combinations
// enumerated, merges accepted and round tallies built are pinned, and the
// probes computed plus the probes the greedy round's memo answered equal
// the probe count the search had before the memo (1743), with fewer of
// them computed.
func TestSearchCountersPinned(t *testing.T) {
	const wantCombos, wantMerges, wantProbesBeforeMemo, wantTallies = 1587, 272, 1743, 392
	net, err := lfr.GenerateBenchmark(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sm := simulateOn(t, net.Graph, 0.3, 0.15, 1000, 11)
	for _, workers := range []int{1, 4} {
		rec := obs.New()
		if _, err := InferContext(obs.With(context.Background(), rec), sm, Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		c := rec.Snapshot().Counters
		combos, merges := c["core/search/combos"], c["core/search/merges"]
		probes, hits := c["core/search/probes"], c["core/search/probe_hits"]
		if tallies := c["core/search/tallies"]; tallies != wantTallies {
			t.Fatalf("workers=%d: tallies=%d, want %d", workers, tallies, wantTallies)
		}
		if combos != wantCombos || merges != wantMerges {
			t.Fatalf("workers=%d: combos=%d merges=%d, want %d and %d", workers, combos, merges, wantCombos, wantMerges)
		}
		if probes+hits != wantProbesBeforeMemo || probes >= wantProbesBeforeMemo {
			t.Fatalf("workers=%d: probes=%d probe_hits=%d; want them to sum to %d with probes below it",
				workers, probes, hits, wantProbesBeforeMemo)
		}
	}
}

// TestPairCountersPinned gates the pairwise stages on their counters, at 1
// and 4 workers: on the instance of TestSearchCountersPinned the dense
// engine's pairs (all n(n−1)/2 of them), and on the same network under
// sparse diffusions, where only some pairs co-occur, the sparse engine's
// co-occurring and kept pairs are pinned exactly.
func TestPairCountersPinned(t *testing.T) {
	const wantDense, wantCoPairs, wantKept = 11175, 2364, 202
	net, err := lfr.GenerateBenchmark(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	dense := simulateOn(t, net.Graph, 0.3, 0.15, 1000, 11)
	sparse := simulateOn(t, net.Graph, 0.2, 0.01, 100, 11)
	counters := func(sm *diffusion.StatusMatrix, opt Options, step countStep) map[string]int64 {
		rec := obs.New()
		if _, err := infer(obs.With(context.Background(), rec), sm, opt, step); err != nil {
			t.Fatal(err)
		}
		return rec.Snapshot().Counters
	}
	for _, workers := range []int{1, 4} {
		if pairs := counters(dense, Options{Workers: workers}, popcountStep)["core/imi/pairs"]; pairs != wantDense {
			t.Fatalf("workers=%d: core/imi/pairs=%d, want %d", workers, pairs, wantDense)
		}
		c := counters(sparse, Options{Workers: workers}, walkStep)
		if coPairs, kept := c["core/sparse/pairs"], c["core/sparse/kept"]; coPairs != wantCoPairs || kept != wantKept {
			t.Fatalf("workers=%d: core/sparse/pairs=%d kept=%d, want %d and %d", workers, coPairs, kept, wantCoPairs, wantKept)
		}
	}
}
