package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/lfr"
	"tends/internal/obs"
)

// sparseRandomStatus builds a β×n matrix where each cell is infected with
// probability density — the workload family for the dense/sparse parity
// property tests.
func sparseRandomStatus(n, beta int, density float64, seed int64) *diffusion.StatusMatrix {
	rng := rand.New(rand.NewSource(seed))
	sm := diffusion.NewStatusMatrix(beta, n)
	for p := 0; p < beta; p++ {
		for v := 0; v < n; v++ {
			if rng.Float64() < density {
				sm.Set(p, v, true)
			}
		}
	}
	return sm
}

// TestSparseDenseValuesBitIdentical checks that the popcount and walk
// builds agree in At on EVERY pair (not just co-occurring ones) across
// random shapes, densities, both MI modes, and worker counts — the
// engine's bit-identity contract.
func TestSparseDenseValuesBitIdentical(t *testing.T) {
	cases := []struct {
		n, beta int
		density float64
	}{
		{12, 7, 0.05},
		{25, 40, 0.15},
		{40, 64, 0.3},
		{17, 130, 0.5},
		{30, 96, 0.02}, // very sparse: most pairs never co-occur
		{8, 16, 0.9},   // saturated: almost everything co-occurs
	}
	for ci, tc := range cases {
		for _, traditional := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				sm := sparseRandomStatus(tc.n, tc.beta, tc.density, int64(100+ci))
				dense := denseIMI(sm, traditional, workers)
				sp := sparseIMI(sm, traditional, workers)
				for i := 0; i < tc.n; i++ {
					for j := 0; j < tc.n; j++ {
						if i == j {
							continue
						}
						dv, sv := dense.At(i, j), sp.At(i, j)
						if dv != sv && !(math.IsNaN(dv) && math.IsNaN(sv)) {
							t.Fatalf("case %d (trad=%v workers=%d): At(%d,%d) dense=%v sparse=%v",
								ci, traditional, workers, i, j, dv, sv)
						}
					}
				}
			}
		}
	}
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSparseDenseCandidatesAndPools checks that the τ-selected candidate
// sets agree at the auto-selected thresholds and a spread of fixed ones
// (including negative, which exercises the sparse marginal-class path), and
// that the two engines reduce to bit-identical value pools.
func TestSparseDenseCandidatesAndPools(t *testing.T) {
	for ci, tc := range []struct {
		n, beta int
		density float64
	}{
		{20, 30, 0.1},
		{35, 50, 0.25},
		{15, 80, 0.04},
	} {
		for _, traditional := range []bool{false, true} {
			sm := sparseRandomStatus(tc.n, tc.beta, tc.density, int64(200+ci))
			dense := denseIMI(sm, traditional, 2)
			sp := sparseIMI(sm, traditional, 0)

			dp, spp := dense.valuePool(), sp.valuePool()
			if dp.total != spp.total || dp.zeros != spp.zeros || dp.maxAll != spp.maxAll {
				t.Fatalf("case %d trad=%v: pool scalars differ: dense{total=%d zeros=%d max=%v} sparse{total=%d zeros=%d max=%v}",
					ci, traditional, dp.total, dp.zeros, dp.maxAll, spp.total, spp.zeros, spp.maxAll)
			}
			if len(dp.pos) != len(spp.pos) {
				t.Fatalf("case %d trad=%v: pool run counts differ: %d vs %d", ci, traditional, len(dp.pos), len(spp.pos))
			}
			for r := range dp.pos {
				if dp.pos[r] != spp.pos[r] || dp.posCnt[r] != spp.posCnt[r] {
					t.Fatalf("case %d trad=%v: pool run %d differs: (%v,%d) vs (%v,%d)",
						ci, traditional, r, dp.pos[r], dp.posCnt[r], spp.pos[r], spp.posCnt[r])
				}
			}

			taus := []float64{
				dp.twoMeansTau(),
				dp.fdrTau(tc.beta, 0.2),
				0, 0.001, -0.05, -1, 0.5,
			}
			for _, tau := range taus {
				for i := 0; i < tc.n; i++ {
					dc := dense.Candidates(i, tau)
					sc := sp.Candidates(i, tau)
					if !equalIntSlices(dc, sc) {
						t.Fatalf("case %d trad=%v: Candidates(%d, %v) dense=%v sparse=%v",
							ci, traditional, i, tau, dc, sc)
					}
				}
			}

			for i := 0; i < tc.n; i++ {
				if d, s := dense.nodePool(i).twoMeansTau(), sp.nodePool(i).twoMeansTau(); d != s {
					t.Fatalf("case %d trad=%v: node %d per-node tau dense=%v sparse=%v", ci, traditional, i, d, s)
				}
			}
		}
	}
}

// evictingStatus simulates cascades over a random 400-node network: its
// co-pairs carry about 2000 distinct (n11, ni, nj) keys, so a worker's
// value table grows several times mid-walk, and every threshold method
// selects a τ that keeps edges.
func evictingStatus(t *testing.T) *diffusion.StatusMatrix {
	return simulateOn(t, graph.GNM(400, 800, newTestRand(3)), 0.3, 0.02, 256, 4)
}

// TestSparseDenseInferIdentical runs the full pipeline both ways across
// threshold methods, scales, worker counts and shards and requires
// identical graphs, thresholds, and scores. The second input has enough
// distinct pair keys to grow the build's value tables; on it the
// global methods must run the filtered build (fewer pairs kept than
// co-occur), while the per-node method keeps every pair.
func TestSparseDenseInferIdentical(t *testing.T) {
	inputs := []*diffusion.StatusMatrix{
		sparseRandomStatus(30, 60, 0.12, 42),
		evictingStatus(t),
	}
	methods := []ThresholdMethod{ThresholdAuto, ThresholdKMeans, ThresholdKMeansPerNode, ThresholdFDR}
	for si, sm := range inputs {
		for _, method := range methods {
			for _, scale := range []float64{0, 0.5} {
				for _, workers := range []int{1, 4} {
					base := Options{ThresholdMethod: method, ThresholdScale: scale, Workers: workers}
					name := fmt.Sprintf("input %d method=%d scale=%v workers=%d", si, method, scale, workers)
					dr, err := infer(context.Background(), sm, base, popcountStep)
					if err != nil {
						t.Fatalf("%s: dense: %v", name, err)
					}
					rec := obs.New()
					sr, err := infer(obs.With(context.Background(), rec), sm, base, walkStep)
					if err != nil {
						t.Fatalf("%s: sparse: %v", name, err)
					}
					if !dr.Graph.Equal(sr.Graph) {
						t.Fatalf("%s: graphs differ", name)
					}
					if dr.Threshold != sr.Threshold || dr.AutoTau != sr.AutoTau {
						t.Fatalf("%s: thresholds differ: dense (%v,%v) sparse (%v,%v)",
							name, dr.Threshold, dr.AutoTau, sr.Threshold, sr.AutoTau)
					}
					if dr.Score != sr.Score {
						t.Fatalf("%s: scores differ: %v vs %v", name, dr.Score, sr.Score)
					}
					c := rec.Snapshot().Counters
					kept, pairs := c["core/sparse/kept"], c["core/sparse/pairs"]
					if si == 1 && (kept < pairs) == (method == ThresholdKMeansPerNode) {
						t.Fatalf("%s: kept %d of %d co-pairs", name, kept, pairs)
					}
					if si == 0 || scale != 0 || method == ThresholdKMeansPerNode {
						continue
					}
					for _, k := range []int{2, 4} {
						merged := make([][]int, sm.N())
						for shard := 0; shard < k; shard++ {
							opt := base
							opt.ShardIndex, opt.ShardCount = shard, k
							res, err := infer(context.Background(), sm, opt, walkStep)
							if err != nil {
								t.Fatalf("%s shard %d/%d: %v", name, shard, k, err)
							}
							for i := shard; i < sm.N(); i += k {
								merged[i] = res.Parents[i]
							}
						}
						for i := range merged {
							if !equalIntSlices(merged[i], dr.Parents[i]) {
								t.Fatalf("%s k=%d: node %d parents %v, dense %v", name, k, i, merged[i], dr.Parents[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestSparseShardMergeIdentical splits the search across k shards and
// checks the union of parent sets reproduces the unsharded topology for
// k ∈ {1, 2, 4}, dense and sparse.
func TestSparseShardMergeIdentical(t *testing.T) {
	sm := sparseRandomStatus(26, 48, 0.15, 7)
	for _, step := range []countStep{popcountStep, walkStep} {
		full, err := infer(context.Background(), sm, Options{}, step)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 4} {
			merged := make([][]int, sm.N())
			for shard := 0; shard < k; shard++ {
				res, err := infer(context.Background(), sm, Options{ShardIndex: shard, ShardCount: k}, step)
				if err != nil {
					t.Fatalf("shard %d/%d: %v", shard, k, err)
				}
				if res.Threshold != full.Threshold {
					t.Fatalf("shard %d/%d: threshold %v != %v", shard, k, res.Threshold, full.Threshold)
				}
				for i, parents := range res.Parents {
					if i%k != shard {
						if len(parents) != 0 {
							t.Fatalf("shard %d/%d: node %d outside shard has parents %v", shard, k, i, parents)
						}
						continue
					}
					merged[i] = parents
				}
			}
			for i := range merged {
				if !equalIntSlices(merged[i], full.Parents[i]) {
					t.Fatalf("%v k=%d: node %d parents %v != %v", step, k, i, merged[i], full.Parents[i])
				}
			}
		}
	}
}

// TestShardOptionsValidation pins the Options validation for sharding.
func TestShardOptionsValidation(t *testing.T) {
	sm := sparseRandomStatus(6, 8, 0.3, 1)
	for _, opt := range []Options{
		{ShardCount: -1},
		{ShardCount: 2, ShardIndex: 2},
		{ShardCount: 2, ShardIndex: -1},
		{ShardIndex: 1},
	} {
		if _, err := Infer(sm, opt); err == nil {
			t.Fatalf("Infer(%+v) succeeded, want error", opt)
		}
	}
	if _, err := Infer(sm, Options{ShardCount: 1, ShardIndex: 0}); err != nil {
		t.Fatalf("ShardCount=1 should be valid: %v", err)
	}
}

// TestSparseFixedAndScaledThresholds covers the fixed/scaled threshold
// paths through the walk, on a small input and on one with enough distinct
// pair keys to grow the build's value tables.
func TestSparseFixedAndScaledThresholds(t *testing.T) {
	for si, sm := range []*diffusion.StatusMatrix{
		sparseRandomStatus(18, 40, 0.2, 11),
		evictingStatus(t),
	} {
		fixed := 0.01
		// Negative fixed threshold: every pair (including never-co-occurring
		// ones, whose IMI is ≤ 0) can become a candidate, up to the fixed
		// cap; the engine must fall back to its marginal-class enumeration.
		neg := -10.0
		for _, opt := range []Options{
			{FixedThreshold: &fixed},
			{ThresholdScale: 2},
			{ThresholdScale: 0.5},
			{TraditionalMI: true},
			{FixedThreshold: &neg},
		} {
			dr, err := infer(context.Background(), sm, opt, popcountStep)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := infer(context.Background(), sm, opt, walkStep)
			if err != nil {
				t.Fatal(err)
			}
			if !dr.Graph.Equal(sr.Graph) {
				t.Fatalf("input %d opts %+v: graphs differ", si, opt)
			}
			if dr.Threshold != sr.Threshold || dr.AutoTau != sr.AutoTau {
				t.Fatalf("input %d opts %+v: thresholds differ: dense (%v,%v) sparse (%v,%v)",
					si, opt, dr.Threshold, dr.AutoTau, sr.Threshold, sr.AutoTau)
			}
		}
	}
}

// TestSparseObsCounters checks the engine's savings are observable.
func TestSparseObsCounters(t *testing.T) {
	sm := sparseRandomStatus(20, 30, 0.1, 3)
	sp := sparseIMI(sm, false, 0)
	if sp.TotalPairs() != 20*19/2 {
		t.Fatalf("TotalPairs = %d", sp.TotalPairs())
	}
	if sp.CoPairs() <= 0 || sp.CoPairs() > sp.TotalPairs() {
		t.Fatalf("CoPairs = %d out of range", sp.CoPairs())
	}
	// Count co-occurring pairs by brute force.
	var want int64
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			if c := sm.JointCounts(i, j); c[1][1] > 0 {
				want++
			}
		}
	}
	if sp.CoPairs() != want {
		t.Fatalf("CoPairs = %d, want %d", sp.CoPairs(), want)
	}

	// core/sparse/lookups, the build walks' value-table lookups, is pinned
	// on the sparse diffusions of TestPairCountersPinned at β = 200, where
	// no single-cascade pair clears τ. Walk 1 looks up each row's
	// single-cascade pairs once per distinct marginal count and every other
	// upper-triangle pair once; walk 2 looks up only the pairs whose joint
	// count can clear τ. Looking every co-pair up in either walk breaks the
	// pin.
	const wantLookups = 4167
	net, err := lfr.GenerateBenchmark(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sm = simulateOn(t, net.Graph, 0.2, 0.01, 200, 11)
	for _, workers := range []int{1, 4} {
		rec := obs.New()
		var need int32
		if _, err := buildSparse(obs.With(context.Background(), rec), NewScorer(sm), false, workers, walkStep, func(s *SparseIMI) float64 {
			_, tau := selectThreshold(context.Background(), s, sm.Beta(), Options{}.withDefaults())
			floor := s.keepFloor(tau, false)
			need = s.minKeptJoint(floor)
			return floor
		}); err != nil {
			t.Fatal(err)
		}
		if need < 2 {
			t.Fatalf("workers=%d: minKeptJoint = %d, want ≥ 2", workers, need)
		}
		if got := rec.Snapshot().Counters["core/sparse/lookups"]; got != wantLookups {
			t.Fatalf("workers=%d: core/sparse/lookups = %d, want %d", workers, got, wantLookups)
		}
		// The pin, counted pair by pair.
		var counted int64
		for i := 0; i < sm.N(); i++ {
			singles := map[int]bool{}
			for j := i + 1; j < sm.N(); j++ {
				switch n11 := sm.JointCounts(i, j)[1][1]; {
				case n11 == 1:
					singles[sm.CountInfected(j)] = true
				case n11 >= 2:
					counted++
					if n11 >= int(need) {
						counted++
					}
				}
			}
			counted += int64(len(singles))
		}
		if counted != wantLookups {
			t.Fatalf("workers=%d: the pairs give %d lookups, pinned %d", workers, counted, wantLookups)
		}
	}
}

// TestSparseEmptyAndDegenerate covers n=0/1 and all-zero observations.
func TestSparseEmptyAndDegenerate(t *testing.T) {
	if sp := sparseIMI(diffusion.NewStatusMatrix(4, 0), false, 0); sp.N() != 0 {
		t.Fatal("n=0")
	}
	sp := sparseIMI(diffusion.NewStatusMatrix(4, 1), false, 0)
	if sp.Candidates(0, 0) != nil {
		t.Fatal("single node should have no candidates")
	}
	// All-zero statuses: every value is 0, nothing co-occurs.
	sm := diffusion.NewStatusMatrix(5, 6)
	sp = sparseIMI(sm, false, 0)
	dense := denseIMI(sm, false, 0)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if sp.At(i, j) != dense.At(i, j) {
				t.Fatalf("all-zero At(%d,%d): %v vs %v", i, j, sp.At(i, j), dense.At(i, j))
			}
		}
	}
	if sp.CoPairs() != 0 {
		t.Fatalf("all-zero CoPairs = %d", sp.CoPairs())
	}
}

// TestSparseRecordsTelemetry checks the walk's observability contract:
// row/pair/skip counters that account for the full triangle. The walk
// counts n11 during its index walk and popcounts no pair, so it records no
// popcount-step pairs (the popcount step's tests require them).
func TestSparseRecordsTelemetry(t *testing.T) {
	sm := sparseRandomStatus(24, 40, 0.1, 8)
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	sp, err := buildSparse(ctx, NewScorer(sm), false, 2, walkStep, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Snapshot()
	if got := s.Counters["core/sparse/rows"]; got != 24 {
		t.Fatalf("core/sparse/rows = %d, want 24", got)
	}
	pairs, skipped := s.Counters["core/sparse/pairs"], s.Counters["core/sparse/pairs_skipped"]
	if pairs != sp.CoPairs() {
		t.Fatalf("core/sparse/pairs = %d, want %d", pairs, sp.CoPairs())
	}
	if pairs+skipped != sp.TotalPairs() {
		t.Fatalf("pairs %d + skipped %d != total %d", pairs, skipped, sp.TotalPairs())
	}
	if got := s.Counters["core/sparse/kept"]; got != pairs {
		t.Fatalf("core/sparse/kept = %d on the full build, want every co-pair (%d)", got, pairs)
	}
	if got := s.Counters["core/imi/pairs"]; got != 0 {
		t.Fatalf("core/imi/pairs = %d on the walk, want 0", got)
	}
}

// samePool reports the first field in which two value pools differ, bit
// for bit, or "" when they are identical.
func samePool(a, b *valuePool) string {
	switch {
	case a.total != b.total:
		return fmt.Sprintf("total %d vs %d", a.total, b.total)
	case a.zeros != b.zeros:
		return fmt.Sprintf("zeros %d vs %d", a.zeros, b.zeros)
	case math.Float64bits(a.maxAll) != math.Float64bits(b.maxAll):
		return fmt.Sprintf("maxAll %v vs %v", a.maxAll, b.maxAll)
	case len(a.pos) != len(b.pos) || len(a.posCnt) != len(b.posCnt):
		return fmt.Sprintf("run counts %d/%d vs %d/%d", len(a.pos), len(a.posCnt), len(b.pos), len(b.posCnt))
	}
	for r := range a.pos {
		if math.Float64bits(a.pos[r]) != math.Float64bits(b.pos[r]) || a.posCnt[r] != b.posCnt[r] {
			return fmt.Sprintf("run %d (%v,%d) vs (%v,%d)", r, a.pos[r], a.posCnt[r], b.pos[r], b.posCnt[r])
		}
	}
	return ""
}

// referencePool derives a full engine's value pool and marginal maxima
// from its CSR rows: the co-occurring values one by one, and the co-pairs
// of each class pair counted row by row. The build takes both from its
// walk-1 tallies instead.
func referencePool(s *SparseIMI) (*valuePool, []float64) {
	nc := len(s.classVals)
	co := make([]int64, nc*nc)
	var b valueTally
	for v := 0; v < s.n; v++ {
		for k := s.rowStart[v]; k < s.rowStart[v+1]; k++ {
			if j := s.nbr[k]; int(j) > v {
				b.add(s.val[k], 1)
				a, c := s.classOf[v], s.classOf[j]
				co[min(a, c)*int32(nc)+max(a, c)]++
			}
		}
	}
	maxMarginal := make([]float64, nc)
	for a := range maxMarginal {
		maxMarginal[a] = math.Inf(-1)
	}
	for a := 0; a < nc; a++ {
		for c := a; c < nc; c++ {
			tot := s.classSize[a] * s.classSize[c]
			if a == c {
				tot = s.classSize[a] * (s.classSize[a] - 1) / 2
			}
			zp := tot - co[a*nc+c]
			if zp <= 0 {
				continue
			}
			mv := pairValue(s.mt, s.traditional, s.beta, 0, int(s.classVals[a]), int(s.classVals[c]))
			b.add(mv, zp)
			maxMarginal[a] = max(maxMarginal[a], mv)
			maxMarginal[c] = max(maxMarginal[c], mv)
		}
	}
	return b.finish(), maxMarginal
}

// sameRows reports the first difference between two engines' CSR rows, bit
// for bit, or "" when they are identical.
func sameRows(a, b *SparseIMI) string {
	if !slices.Equal(a.rowStart, b.rowStart) {
		return "row extents differ"
	}
	for k := range a.nbr {
		if a.nbr[k] != b.nbr[k] || math.Float64bits(a.val[k]) != math.Float64bits(b.val[k]) {
			return fmt.Sprintf("entry %d: (%d,%v) vs (%d,%v)", k, a.nbr[k], a.val[k], b.nbr[k], b.val[k])
		}
	}
	return ""
}

// TestPoolsAgreeDenseSparseIncremental checks that the three builds of the
// pairwise engine reduce to the same value pool: the popcount build, the
// cascade walk, and IncrementalCounts.Source over the same rows appended
// one at a time. Each engine's pool and marginal maxima, which come from
// its walk-1 tallies, must also equal the ones its own rows give, and the
// filtered walk 2 that inference runs, at a floor that drops nothing, must
// scatter the full build's rows exactly.
func TestPoolsAgreeDenseSparseIncremental(t *testing.T) {
	for _, beta := range []int{1, 63, 64, 65, 130} {
		for di, density := range []float64{0.02, 0.1, 0.35, 0.6, 0.9} {
			n := 7 + (beta+di*11)%37
			sm := sparseRandomStatus(n, beta, density, int64(beta*10+di))
			inc := NewIncrementalCounts(n, false)
			incTrad := NewIncrementalCounts(n, true)
			for p := 0; p < beta; p++ {
				var row []int
				for v := 0; v < n; v++ {
					if sm.Get(p, v) {
						row = append(row, v)
					}
				}
				if err := inc.AppendRow(row); err != nil {
					t.Fatal(err)
				}
				if err := incTrad.AppendRow(row); err != nil {
					t.Fatal(err)
				}
			}
			for _, traditional := range []bool{false, true} {
				counts := inc
				if traditional {
					counts = incTrad
				}
				for _, workers := range []int{1, 4} {
					dense := denseIMI(sm, traditional, workers).valuePool()
					sp := sparseIMI(sm, traditional, workers)
					name := fmt.Sprintf("β=%d density=%v n=%d trad=%v workers=%d", beta, density, n, traditional, workers)
					if d := samePool(dense, sp.pool); d != "" {
						t.Fatalf("%s: dense vs sparse pool: %s", name, d)
					}
					src := counts.source(workers)
					if d := samePool(dense, src.pool); d != "" {
						t.Fatalf("%s: dense vs incremental pool: %s", name, d)
					}
					// The same rows scattered from the upper-triangle walks
					// that inference runs, at a floor that drops nothing.
					up, err := buildSparse(context.Background(), NewScorer(sm), traditional, workers, walkStep, func(*SparseIMI) float64 { return math.Inf(-1) })
					if err != nil {
						t.Fatal(err)
					}
					if d := sameRows(sp, up); d != "" {
						t.Fatalf("%s: full vs scattered rows: %s", name, d)
					}
					for _, e := range []struct {
						name string
						s    *SparseIMI
					}{{"sparse", sp}, {"scattered", up}, {"incremental", src}} {
						pool, maxMarginal := referencePool(e.s)
						if d := samePool(pool, e.s.pool); d != "" {
							t.Fatalf("%s: %s pool vs its rows: %s", name, e.name, d)
						}
						for a := range maxMarginal {
							if math.Float64bits(maxMarginal[a]) != math.Float64bits(e.s.maxMarginal[a]) {
								t.Fatalf("%s: %s maxMarginal[%d] = %v, rows give %v", name, e.name, a, e.s.maxMarginal[a], maxMarginal[a])
							}
						}
					}
				}
			}
		}
	}
}

// TestValueCacheKeysExact runs the row stage at β = 2²² over pairs whose
// counts agree below bit 21, where packing three counts into one 64-bit
// word would alias their keys: every CSR value and the pool must match
// pairValue computed pair by pair.
func TestValueCacheKeysExact(t *testing.T) {
	const beta = 1 << 22
	counts := []int32{1, 1<<21 - 1, 1 << 21, 1<<21 + 1, beta - 1, beta}
	var ones []int32
	for rep := 0; rep < 4; rep++ {
		ones = append(ones, counts...)
	}
	n := len(ones)
	// n11 gives every pair a joint count that is valid for its marginals
	// and varies with the pair, so equal marginals meet several n11.
	n11 := func(v, j int) int32 {
		a, b := ones[v], ones[j]
		return min(max(counts[(v+j)%len(counts)], 1, a+b-beta), a, b)
	}
	s := newSparseIMI(n, beta, false, ones)
	gather := func(v int, sc *sparseScratch, row []int32) []int32 {
		for j := v + 1; j < n; j++ {
			row = append(row, int32(j))
			sc.cnt[j] = n11(v, j)
		}
		return row
	}
	for v := 0; v < n; v++ {
		s.rowStart[v+1] = s.rowStart[v] + int64(n-1)
	}
	scs := newScratches(n, 1)
	if err := s.fillRows(context.Background(), scs, true, gather); err != nil {
		t.Fatal(err)
	}
	s.finishTally(scs)
	var want valueTally
	for v := 0; v < n; v++ {
		for k := s.rowStart[v]; k < s.rowStart[v+1]; k++ {
			j := int(s.nbr[k])
			val := pairValue(s.mt, false, beta, int(n11(v, j)), int(ones[v]), int(ones[j]))
			if math.Float64bits(s.val[k]) != math.Float64bits(val) {
				t.Fatalf("pair (%d,%d) counts (%d,%d,%d): value %v, want %v", v, j, n11(v, j), ones[v], ones[j], s.val[k], val)
			}
			if j > v {
				want.add(val, 1)
			}
		}
	}
	// Every pair co-occurs, so the pool holds no marginal runs.
	if d := samePool(want.finish(), s.pool); d != "" {
		t.Fatalf("pool: %s", d)
	}
}

// TestSparseBuildAllocsBounded keeps the sparse build's memory at the size
// of its output: the CSR (a 4-byte neighbor and an 8-byte value per
// direction of every co-occurring pair) plus O(n + β). Anything that grows
// per pair beyond the CSR — a per-pair value pool, a per-pair n11 buffer —
// breaks the bound.
func TestSparseBuildAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20k-node engine")
	}
	const n, beta = 20000, 64
	sm := sparseRandomStatus(n, beta, 0.01, 5)
	for _, workers := range []int{1, 4} {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp, err := buildSparse(context.Background(), NewScorer(sm), false, workers, walkStep, nil)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		csr := 12 * 2 * sp.CoPairs()
		alloc := int64(m1.TotalAlloc - m0.TotalAlloc)
		limit := csr*11/10 + 128*(n+beta) + 1<<16
		t.Logf("workers=%d co-pairs=%d CSR=%d B allocated=%d B (%.3f× CSR) limit=%d B",
			workers, sp.CoPairs(), csr, alloc, float64(alloc)/float64(csr), limit)
		if alloc > limit {
			t.Fatalf("workers=%d: build allocated %d B, over the %d B bound (CSR %d B)", workers, alloc, limit, csr)
		}
	}
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestFilteredEngineGuards checks that an engine whose walk 2 kept only the
// pairs above τ refuses every question it can no longer answer — the value
// of a dropped pair, candidates below its floor, a per-node pool — and
// answers the rest like the full engine, while an engine built at a floor
// of −Inf still agrees with the popcount build on every pair.
func TestFilteredEngineGuards(t *testing.T) {
	ctx := context.Background()
	sm := evictingStatus(t)
	full := sparseIMI(sm, false, 0)
	_, tau := selectThreshold(ctx, full, sm.Beta(), Options{}.withDefaults())
	filt, err := buildSparse(ctx, NewScorer(sm), false, 2, walkStep, func(s *SparseIMI) float64 { return s.keepFloor(tau, false) })
	if err != nil {
		t.Fatal(err)
	}
	if filt.floor != tau || filt.kept() >= filt.CoPairs() || filt.CoPairs() != full.CoPairs() {
		t.Fatalf("floor %v (τ %v), kept %d of %d co-pairs (full engine: %d)", filt.floor, tau, filt.kept(), filt.CoPairs(), full.CoPairs())
	}
	if d := samePool(full.pool, filt.pool); d != "" {
		t.Fatalf("pool: %s", d)
	}
	dropped := false
	for i := 0; i < sm.N(); i++ {
		if !slices.Equal(full.Candidates(i, tau), filt.Candidates(i, tau)) {
			t.Fatalf("Candidates(%d, τ) differ", i)
		}
		for k := full.rowStart[i]; k < full.rowStart[i+1]; k++ {
			j := int(full.nbr[k])
			if full.val[k] > tau {
				if filt.At(i, j) != full.val[k] {
					t.Fatalf("At(%d,%d) = %v, full engine %v", i, j, filt.At(i, j), full.val[k])
				}
			} else if !dropped {
				dropped = true
				mustPanic(t, fmt.Sprintf("At(%d,%d) on a dropped pair", i, j), func() { filt.At(i, j) })
			}
		}
	}
	if !dropped {
		t.Fatal("no co-pair was dropped")
	}
	mustPanic(t, "Candidates below the floor", func() { filt.Candidates(0, math.Nextafter(tau, math.Inf(-1))) })
	mustPanic(t, "nodePool", func() { filt.nodePool(0) })

	all, err := buildSparse(ctx, NewScorer(sm), false, 2, walkStep, func(*SparseIMI) float64 { return math.Inf(-1) })
	if err != nil {
		t.Fatal(err)
	}
	dense := denseIMI(sm, false, 0)
	for i := 0; i < sm.N(); i++ {
		for j := 0; j < sm.N(); j++ {
			if i != j && math.Float64bits(all.At(i, j)) != math.Float64bits(dense.At(i, j)) {
				t.Fatalf("floor −Inf: At(%d,%d) = %v, dense %v", i, j, all.At(i, j), dense.At(i, j))
			}
		}
	}
}

// TestSparseInferAllocsBounded keeps sparse inference's memory off the
// co-pairs: walk 2 stores only the pairs above τ, so the whole inference
// allocates under a quarter of the full CSR (a 4-byte neighbor and an
// 8-byte value per direction of every co-occurring pair) plus O(n + β).
// Storing every co-pair, as the full build does, breaks the bound.
func TestSparseInferAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("infers over a 20k-node engine")
	}
	const n, beta = 20000, 64
	sm := sparseRandomStatus(n, beta, 0.01, 5)
	csr := 12 * 2 * sparseIMI(sm, false, 0).CoPairs()
	for _, workers := range []int{1, 4} {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := infer(context.Background(), sm, Options{Workers: workers}, walkStep)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		alloc := int64(m1.TotalAlloc - m0.TotalAlloc)
		limit := csr/4 + 128*(n+beta) + 1<<16
		t.Logf("workers=%d CSR=%d B allocated=%d B (%.3f× CSR) limit=%d B edges=%d τ=%v",
			workers, csr, alloc, float64(alloc)/float64(csr), limit, res.Graph.NumEdges(), res.Threshold)
		if alloc > limit {
			t.Fatalf("workers=%d: inference allocated %d B, over the %d B bound (CSR %d B)", workers, alloc, limit, csr)
		}
	}
}
