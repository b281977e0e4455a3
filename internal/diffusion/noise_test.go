package diffusion

import (
	"math"
	"math/rand"
	"testing"
)

// The status-noise models of the retired robustness sweeps are the
// scenario's dirty stages: a status flip at rate f is the Uncertain stage at
// rate f/0.375 (Fig. 13), and an erased infected cell is the Missing stage
// (Fig. 12). These tests pin both equivalences and the stages' rate checks.

// randomResult is a β×n result with uniformly random statuses and no
// cascades.
func randomResult(beta, n int, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	res := &Result{N: n, Statuses: NewStatusMatrix(beta, n)}
	for p := 0; p < beta; p++ {
		for v := 0; v < n; v++ {
			res.Statuses.Set(p, v, rng.Intn(2) == 0)
		}
	}
	return res
}

// TestCorruptFlipRate: the Uncertain stage at rate ρ flips an infected and
// an uninfected status alike with probability 0.375ρ — the probability
// that a report drawn from the overlapping windows lands across 0.5.
func TestCorruptFlipRate(t *testing.T) {
	res := randomResult(200, 50, 1)
	const rate = 0.4
	out, _, err := Uncertain(res, rate, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	var flipped, total [2]int
	for p := 0; p < 200; p++ {
		for v := 0; v < 50; v++ {
			s := 0
			if res.Statuses.Get(p, v) {
				s = 1
			}
			total[s]++
			if out.Statuses.Get(p, v) != res.Statuses.Get(p, v) {
				flipped[s]++
			}
		}
	}
	want := (0.5 - uncertainLo) / (1 - uncertainLo) * rate
	for s := range total {
		if got := float64(flipped[s]) / float64(total[s]); math.Abs(got-want) > 0.02 {
			t.Fatalf("status %d: flip rate %.3f, want ~%.3f", s, got, want)
		}
	}
}

// TestCorruptZeroIsIdentity: status noise at rate 0 changes no cell, both
// as the bare Uncertain stage on random statuses and as a scenario whose
// dirty stages are all explicitly zero, which must be Simulate byte for
// byte at the same seed.
func TestCorruptZeroIsIdentity(t *testing.T) {
	res := randomResult(10, 5, 1)
	out, _, err := Uncertain(res, 0, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 10; p++ {
		for v := 0; v < 5; v++ {
			if out.Statuses.Get(p, v) != res.Statuses.Get(p, v) {
				t.Fatalf("rate 0 changed cell (%d,%d)", p, v)
			}
		}
	}

	ep := scenarioNetwork(t, 5, 6)
	cfg := Config{Alpha: 0.1, Beta: 20}
	want, err := Simulate(ep, cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Missing: 0, Uncertain: 0, TimestampNoise: 0}
	got, err := SimulateScenario(ep, cfg, sc, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got.Result, want)
}

func TestCorruptErrors(t *testing.T) {
	ep := scenarioNetwork(t, 1, 2)
	for _, rate := range []float64{-0.1, 1.0001, 2} {
		if _, err := SimulateScenario(ep, Config{Alpha: 0.1, Beta: 2}, Scenario{Uncertain: rate}, rand.New(rand.NewSource(1))); err == nil {
			t.Fatalf("uncertain rate %v should fail", rate)
		}
	}
}

// TestMaskOnlyErases: the Missing stage never creates an infection and
// erases an infected cell with probability ρ.
func TestMaskOnlyErases(t *testing.T) {
	res := randomResult(100, 20, 3)
	out, _, err := Missing(res, 0.3, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	infected, erased := 0, 0
	for p := 0; p < 100; p++ {
		for v := 0; v < 20; v++ {
			switch {
			case res.Statuses.Get(p, v):
				infected++
				if !out.Statuses.Get(p, v) {
					erased++
				}
			case out.Statuses.Get(p, v):
				t.Fatalf("Missing created an infection at (%d,%d)", p, v)
			}
		}
	}
	if got := float64(erased) / float64(infected); math.Abs(got-0.3) > 0.04 {
		t.Fatalf("erased %.3f of infected cells, want ~0.3", got)
	}
}

func TestMaskErrors(t *testing.T) {
	ep := scenarioNetwork(t, 1, 2)
	for _, rate := range []float64{-0.5, 1.5, math.NaN()} {
		if _, err := SimulateScenario(ep, Config{Alpha: 0.1, Beta: 2}, Scenario{Missing: rate}, rand.New(rand.NewSource(1))); err == nil {
			t.Fatalf("missing rate %v should fail", rate)
		}
	}
}
