package diffusion

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tends/internal/graph"
)

func TestPerturbTimestamps(t *testing.T) {
	g := graph.Chain(12)
	ep := UniformEdgeProbs(g, 0.8)
	res, err := Simulate(ep, Config{Alpha: 0.1, Beta: 30}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := PerturbTimestamps(res, 1.0, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Statuses != res.Statuses {
		t.Fatal("statuses should be shared; they are untouched by timestamp noise")
	}
	changed := 0
	for ci, c := range noisy.Cascades {
		orig := res.Cascades[ci]
		if len(c.Infections) != len(orig.Infections) {
			t.Fatal("infection count changed")
		}
		for j, inf := range c.Infections {
			if inf.Node != orig.Infections[j].Node || inf.Parent != orig.Infections[j].Parent {
				t.Fatal("identity fields changed")
			}
			if inf.Parent == -1 {
				if inf.Time != 0 {
					t.Fatalf("seed time perturbed to %v", inf.Time)
				}
				continue
			}
			if inf.Time <= 0 {
				t.Fatalf("non-positive perturbed time %v", inf.Time)
			}
			if inf.Time != orig.Infections[j].Time {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Fatal("sigma=1 perturbed no timestamps")
	}
	// Original must be untouched (deep copy of cascades).
	for ci, c := range res.Cascades {
		for j, inf := range c.Infections {
			if inf.Parent != -1 && noisy.Cascades[ci].Infections[j].Time == inf.Time {
				continue
			}
		}
	}
}

func TestPerturbTimestampsZeroSigma(t *testing.T) {
	g := graph.Chain(5)
	ep := UniformEdgeProbs(g, 0.9)
	res, err := Simulate(ep, Config{Alpha: 0.2, Beta: 10}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	same, err := PerturbTimestamps(res, 0, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range same.Cascades {
		for j, inf := range c.Infections {
			if inf.Time != res.Cascades[ci].Infections[j].Time {
				t.Fatal("sigma=0 changed a timestamp")
			}
		}
	}
}

func TestPerturbTimestampsErrors(t *testing.T) {
	for _, sigma := range []float64{-1, math.NaN()} {
		if _, err := PerturbTimestamps(&Result{}, sigma, rand.New(rand.NewSource(1))); err == nil {
			t.Fatalf("sigma %v should fail", sigma)
		}
	}
}

// TestScenarioTimestampNoise: the timestamp stage at σ=0 draws nothing and
// leaves the simulation as it is; at σ>0 it keeps the status matrix bit
// for bit and moves only non-seed infection times.
func TestScenarioTimestampNoise(t *testing.T) {
	ep := scenarioNetwork(t, 41, 42)
	cfg := Config{Alpha: 0.15, Beta: 30}
	cleanRng, zeroRng := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	clean, err := SimulateScenario(ep, cfg, Scenario{}, cleanRng)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := SimulateScenario(ep, cfg, Scenario{TimestampNoise: 0}, zeroRng)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, zero.Result, clean.Result)
	if cleanRng.Int63() != zeroRng.Int63() {
		t.Fatal("σ=0 consumed RNG draws")
	}

	noisy, err := SimulateScenario(ep, cfg, Scenario{TimestampNoise: 2}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(noisy.Statuses.ColumnData(), clean.Statuses.ColumnData()) {
		t.Fatal("timestamp noise changed the status matrix")
	}
	moved := 0
	for p, c := range noisy.Cascades {
		want := clean.Cascades[p]
		if !slices.Equal(c.Seeds, want.Seeds) || len(c.Infections) != len(want.Infections) {
			t.Fatalf("process %d: trace shape changed", p)
		}
		for j, inf := range c.Infections {
			w := want.Infections[j]
			if inf.Node != w.Node || inf.Parent != w.Parent || inf.Round != w.Round {
				t.Fatalf("process %d entry %d: identity changed", p, j)
			}
			if inf.Time != w.Time {
				if w.Parent == -1 {
					t.Fatalf("process %d: seed %d moved to t=%v", p, w.Node, inf.Time)
				}
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("σ=2 moved no infection time")
	}
	for _, sigma := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := SimulateScenario(ep, cfg, Scenario{TimestampNoise: sigma}, rand.New(rand.NewSource(5))); err == nil {
			t.Fatalf("timestamp noise %v accepted", sigma)
		}
	}
}
