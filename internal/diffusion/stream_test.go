package diffusion

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tends/internal/obs"
)

// checkSameDraws drives a and b through every draw the simulator makes,
// rounds times, and fails on the first value that differs.
func checkSameDraws(t *testing.T, a, b *rand.Rand, rounds int, what string) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("%s round %d: Int63 %d, want %d", what, i, y, x)
		}
		for _, f := range []func(*rand.Rand) float64{
			(*rand.Rand).Float64, (*rand.Rand).ExpFloat64, (*rand.Rand).NormFloat64,
		} {
			if x, y := f(a), f(b); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("%s round %d: float %v, want %v", what, i, y, x)
			}
		}
		if x, y := a.Intn(1000), b.Intn(1000); x != y {
			t.Fatalf("%s round %d: Intn %d, want %d", what, i, y, x)
		}
		if x, y := a.Int31n(7), b.Int31n(7); x != y {
			t.Fatalf("%s round %d: Int31n %d, want %d", what, i, y, x)
		}
		if i%100 == 0 {
			x, y := a.Perm(50), b.Perm(50)
			for j := range x {
				if x[j] != y[j] {
					t.Fatalf("%s round %d: Perm %v, want %v", what, i, y, x)
				}
			}
		}
	}
}

// TestStreamMatchesSource: rand.New over a stream equals rand.New over the
// stream's source on every draw the simulator makes, across many block
// refills, on the generated path for Go's generator and on the fallback
// for a source that is not.
func TestStreamMatchesSource(t *testing.T) {
	const rounds = 3000 // ≥ 7 values a round: five blocks and more
	for _, seed := range []int64{0, 1, 2, 42, -7, 1 << 40} {
		s := newStream(rand.New(rand.NewSource(seed)))
		checkSameDraws(t, rand.New(rand.NewSource(seed)), rand.New(s), rounds, "seeded")
		if s.fallback {
			t.Fatalf("seed %d: Go's generator failed the recurrence check", seed)
		}

		sa := &scriptedSource{src: rand.NewSource(seed)}
		ss := newStream(&scriptedSource{src: rand.NewSource(seed)})
		checkSameDraws(t, rand.New(sa), rand.New(ss), rounds, "scripted")
		if !ss.fallback {
			t.Fatalf("seed %d: scripted source passed the recurrence check", seed)
		}
		if sa.calls < 3*blockLen {
			t.Fatalf("seed %d: %d draws cross fewer than three refills", seed, sa.calls)
		}
	}
}

// TestSimulateFallbackCounter: diffusion/rng/fallback reads 0 after a
// seeded run and 1 after a run on scriptedSource, and a seeded run forced
// onto the fallback after the check gives the same result as the
// generated path.
func TestSimulateFallbackCounter(t *testing.T) {
	ep := scenarioNetwork(t, 95, 96)
	cfg := Config{Alpha: 0.15, Beta: 30}
	sc := Scenario{Uncertain: 0.2, TimestampNoise: 0.1}
	for _, c := range []struct {
		name string
		rng  *rand.Rand
		want int64
	}{
		{"seeded", rand.New(rand.NewSource(3)), 0},
		{"scripted", rand.New(&scriptedSource{src: rand.NewSource(3)}), 1},
	} {
		rec := obs.New()
		if _, err := SimulateScenarioContext(obs.With(context.Background(), rec), ep, cfg, sc, c.rng); err != nil {
			t.Fatal(err)
		}
		got, ok := rec.Snapshot().Counters["diffusion/rng/fallback"]
		if !ok || got != c.want {
			t.Fatalf("%s: diffusion/rng/fallback = %d (present %v), want %d", c.name, got, ok, c.want)
		}
	}

	fast, err := SimulateScenario(ep, cfg, sc, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(rand.New(rand.NewSource(3)))
	s.refill()
	s.fallback = true
	slow, err := simulateStream(context.Background(), ep, cfg, sc, s)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, slow.Result, fast.Result)
	for i := range fast.Probs {
		if math.Float64bits(fast.Probs[i]) != math.Float64bits(slow.Probs[i]) {
			t.Fatalf("probs[%d]: fallback %v, generated %v", i, slow.Probs[i], fast.Probs[i])
		}
	}
}
