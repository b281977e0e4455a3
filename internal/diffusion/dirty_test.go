package diffusion

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// dirtyFixture simulates a clean mid-size workload for the dirty-stage tests.
func dirtyFixture(t *testing.T) *Result {
	t.Helper()
	ep := scenarioNetwork(t, 91, 92)
	res, err := Simulate(ep, Config{Alpha: 0.15, Beta: 40}, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMissingZeroIsIdentity: rate 0 returns the input result itself (no
// copy) with an all-clear mask and consumes no RNG draws.
func TestMissingZeroIsIdentity(t *testing.T) {
	res := dirtyFixture(t)
	rng := rand.New(rand.NewSource(1))
	before := rng.Int63()
	rng = rand.New(rand.NewSource(1))
	out, mask, err := Missing(res, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out != res {
		t.Fatal("rate 0 should return the input result unchanged")
	}
	for p := 0; p < mask.Beta(); p++ {
		for v := 0; v < mask.N(); v++ {
			if mask.Get(p, v) {
				t.Fatalf("rate 0 masked cell (%d,%d)", p, v)
			}
		}
	}
	if got := rng.Int63(); got != before {
		t.Fatal("rate 0 consumed RNG draws")
	}
}

// TestMissingOneIsTotal: rate 1 masks every cell — empty statuses, empty
// cascades, full mask.
func TestMissingOneIsTotal(t *testing.T) {
	res := dirtyFixture(t)
	out, mask, err := Missing(res, 1, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < mask.Beta(); p++ {
		for v := 0; v < mask.N(); v++ {
			if !mask.Get(p, v) {
				t.Fatalf("rate 1 left cell (%d,%d) unmasked", p, v)
			}
			if out.Statuses.Get(p, v) {
				t.Fatalf("rate 1 left cell (%d,%d) infected", p, v)
			}
		}
	}
	for p, c := range out.Cascades {
		if len(c.Seeds) != 0 || len(c.Infections) != 0 {
			t.Fatalf("rate 1 left trace content in process %d", p)
		}
	}
}

// TestMissingMasksConsistently: a masked cell is cleared everywhere
// (statuses, seeds, infections); an unmasked cell is untouched.
func TestMissingMasksConsistently(t *testing.T) {
	res := dirtyFixture(t)
	out, mask, err := Missing(res, 0.3, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Statuses.Beta() != res.Statuses.Beta() || out.Statuses.N() != res.Statuses.N() {
		t.Fatal("dimensions changed")
	}
	masked, kept := 0, 0
	for p := 0; p < res.Statuses.Beta(); p++ {
		for v := 0; v < res.Statuses.N(); v++ {
			if mask.Get(p, v) {
				masked++
				if out.Statuses.Get(p, v) {
					t.Fatalf("masked cell (%d,%d) still infected", p, v)
				}
			} else {
				kept++
				if out.Statuses.Get(p, v) != res.Statuses.Get(p, v) {
					t.Fatalf("unmasked cell (%d,%d) changed", p, v)
				}
			}
		}
	}
	if masked == 0 || kept == 0 {
		t.Fatalf("degenerate mask: %d masked, %d kept", masked, kept)
	}
	for p, c := range out.Cascades {
		for _, s := range c.Seeds {
			if mask.Get(p, s) {
				t.Fatalf("process %d: masked seed %d survived", p, s)
			}
		}
		for _, inf := range c.Infections {
			if mask.Get(p, inf.Node) {
				t.Fatalf("process %d: masked infection %d survived", p, inf.Node)
			}
		}
		// Surviving entries match the original trace in order.
		j := 0
		for _, inf := range res.Cascades[p].Infections {
			if mask.Get(p, inf.Node) {
				continue
			}
			if j >= len(c.Infections) || c.Infections[j] != inf {
				t.Fatalf("process %d: surviving trace diverges at %d", p, j)
			}
			j++
		}
		if j != len(c.Infections) {
			t.Fatalf("process %d: extra trace entries", p)
		}
	}
}

// TestUncertainZeroIsIdentity: rate 0 returns the input result, a nil
// probs slice, and consumes no draws.
func TestUncertainZeroIsIdentity(t *testing.T) {
	res := dirtyFixture(t)
	rng := rand.New(rand.NewSource(4))
	before := rng.Int63()
	rng = rand.New(rand.NewSource(4))
	out, probs, err := Uncertain(res, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out != res || probs != nil {
		t.Fatal("rate 0 should be the identity with nil probs")
	}
	if got := rng.Int63(); got != before {
		t.Fatal("rate 0 consumed RNG draws")
	}
}

// TestUncertainReports: report probabilities respect the overlap windows,
// the binarized statuses match the q ≥ 0.5 rule, and cascades agree with
// the binarized statuses.
func TestUncertainReports(t *testing.T) {
	res := dirtyFixture(t)
	for _, rate := range []float64{0.3, 1} {
		out, probs, err := Uncertain(res, rate, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		beta, n := res.Statuses.Beta(), res.Statuses.N()
		if len(probs) != beta*n {
			t.Fatalf("rate %v: probs length %d, want %d", rate, len(probs), beta*n)
		}
		uncertainCells := 0
		for p := 0; p < beta; p++ {
			for v := 0; v < n; v++ {
				q := probs[p*n+v]
				truth := res.Statuses.Get(p, v)
				switch {
				case q == 1 || q == 0:
					// Certain report must match the truth — and at rate 1
					// exact 1s are impossible (the infected window is
					// half-open below 1).
					if q == 1 && !truth {
						t.Fatalf("rate %v cell (%d,%d): certain-infected report for uninfected node", rate, p, v)
					}
					if rate == 1 && q == 1 {
						t.Fatalf("rate 1 produced a certain report at (%d,%d)", p, v)
					}
				default:
					uncertainCells++
					if q < 0 || q >= 1 {
						t.Fatalf("report %v outside [0,1)", q)
					}
					if truth && q < uncertainLo {
						t.Fatalf("infected report %v below window", q)
					}
					if !truth && q >= uncertainHi {
						t.Fatalf("uninfected report %v above window", q)
					}
				}
				if out.Statuses.Get(p, v) != (q >= 0.5) {
					t.Fatalf("cell (%d,%d): status %v disagrees with report %v", p, v, out.Statuses.Get(p, v), q)
				}
			}
		}
		if uncertainCells == 0 {
			t.Fatalf("rate %v produced no uncertain cells", rate)
		}
		for p, c := range out.Cascades {
			for _, inf := range c.Infections {
				if !out.Statuses.Get(p, inf.Node) {
					t.Fatalf("process %d: trace entry for node %d reported uninfected", p, inf.Node)
				}
			}
		}
	}
}

// TestScenarioDirtyComposition: running the same seed with and without
// dirty stages shows the pipeline order — the simulation draws are
// untouched (the clean prefix is reproduced), uncertain fires before
// missing, and a missing cell is unreported no matter what the uncertain
// stage said.
func TestScenarioDirtyComposition(t *testing.T) {
	ep := scenarioNetwork(t, 95, 96)
	cfg := Config{Alpha: 0.15, Beta: 30}
	clean, err := SimulateScenario(ep, cfg, Scenario{}, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := SimulateScenario(ep, cfg, Scenario{Missing: 0.3, Uncertain: 0.4}, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	if dirty.MissingMask == nil || dirty.Probs == nil {
		t.Fatal("dirty run missing its side channels")
	}
	// Reproduce the dirty stages by hand on the clean result, drawing from
	// the stream where the clean simulation left it.
	s := newStream(rand.NewSource(17))
	if _, err := simulateStream(context.Background(), ep, cfg, Scenario{}, s); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(s)
	wantUnc, wantProbs, err := Uncertain(clean.Result, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, wantMask, err := Missing(wantUnc, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, dirty.Result, wantRes)
	beta, n := clean.Statuses.Beta(), clean.Statuses.N()
	for p := 0; p < beta; p++ {
		for v := 0; v < n; v++ {
			if dirty.MissingMask.Get(p, v) != wantMask.Get(p, v) {
				t.Fatalf("mask (%d,%d) differs from manual composition", p, v)
			}
			if math.Float64bits(dirty.Probs[p*n+v]) != math.Float64bits(wantProbs[p*n+v]) {
				t.Fatalf("probs (%d,%d) differ from manual composition", p, v)
			}
			if dirty.MissingMask.Get(p, v) && dirty.Statuses.Get(p, v) {
				t.Fatalf("missing cell (%d,%d) reported infected", p, v)
			}
		}
	}
}

func TestDirtyRateErrors(t *testing.T) {
	res := dirtyFixture(t)
	rng := rand.New(rand.NewSource(6))
	for _, rate := range []float64{-0.1, 1.1, math.NaN()} {
		if _, _, err := Missing(res, rate, rng); err == nil {
			t.Fatalf("Missing accepted rate %v", rate)
		}
		if _, _, err := Uncertain(res, rate, rng); err == nil {
			t.Fatalf("Uncertain accepted rate %v", rate)
		}
	}
}

// TestCorruptMaskedMatchesCorrupt: status noise with a zero-rate Missing
// stage after it is the noise stage alone, byte for byte, and the empty
// mask stage draws nothing after it. Both runs draw from streams, which
// simulateStream leaves positioned after its last draw.
func TestCorruptMaskedMatchesCorrupt(t *testing.T) {
	ep := scenarioNetwork(t, 95, 96)
	cfg := Config{Alpha: 0.15, Beta: 30}
	s := newStream(rand.NewSource(7))
	got, err := simulateStream(context.Background(), ep, cfg, Scenario{Uncertain: 0.25}, s)
	if err != nil {
		t.Fatal(err)
	}
	after := s.Int63()
	manual := newStream(rand.NewSource(7))
	clean, err := simulateStream(context.Background(), ep, cfg, Scenario{}, manual)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Uncertain(clean.Result, 0.25, rand.New(manual))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got.Result, want)
	if got.MissingMask != nil {
		t.Fatal("zero missing rate produced a mask")
	}
	if manual.Int63() != after {
		t.Fatal("zero-rate missing stage consumed RNG draws")
	}
}

// TestCorruptMaskedComposition: noise never resurrects a missing cell, and
// the noise pattern on reported cells is the same with or without the
// Missing stage after it (it draws after the noise stage, never inside it).
func TestCorruptMaskedComposition(t *testing.T) {
	ep := scenarioNetwork(t, 95, 96)
	cfg := Config{Alpha: 0.15, Beta: 30}
	noisy, err := SimulateScenario(ep, cfg, Scenario{Uncertain: 0.3}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := SimulateScenario(ep, cfg, Scenario{Uncertain: 0.3, Missing: 0.4}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	hidden := 0
	for p := 0; p < got.Statuses.Beta(); p++ {
		for v := 0; v < got.Statuses.N(); v++ {
			if got.MissingMask.Get(p, v) {
				if got.Statuses.Get(p, v) {
					t.Fatalf("masked cell (%d,%d) reported infected", p, v)
				}
				if noisy.Statuses.Get(p, v) {
					hidden++
				}
				continue
			}
			if got.Statuses.Get(p, v) != noisy.Statuses.Get(p, v) {
				t.Fatalf("reported cell (%d,%d): noise pattern depends on the mask", p, v)
			}
		}
	}
	if hidden == 0 {
		t.Fatal("fixture too small: no masked cell was reported infected by the noise stage")
	}
}
