package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/graph"
)

// scenarioFigure is a fixed sweep that touches every scenario family —
// each diffusion model, the non-exponential delay laws, and both dirty
// stages — on a small seeded workload. Like goldenFigure, its CSV is a
// byte-exact regression surface: any change to a simulator's draw order,
// a delay sampler, the dirty pipeline, or the scenario plumbing through
// the harness shows up as a fixture diff.
func scenarioFigure() Figure {
	chain := func(seed int64) (*graph.Directed, error) {
		g := graph.Chain(20)
		g.Symmetrize()
		return g, nil
	}
	scenarios := []struct {
		label string
		sc    diffusion.Scenario
	}{
		{"ic", diffusion.Scenario{}},
		{"lt", diffusion.Scenario{Model: diffusion.ModelLT}},
		{"sir", diffusion.Scenario{Model: diffusion.ModelSIR, Recovery: 0.4}},
		{"sis", diffusion.Scenario{Model: diffusion.ModelSIS, Recovery: 0.4, Reinfection: 0.5}},
		{"rayleigh", diffusion.Scenario{Delay: diffusion.DelayRayleigh}},
		{"powerlaw", diffusion.Scenario{Delay: diffusion.DelayPowerLaw}},
		{"missing", diffusion.Scenario{Missing: 0.3}},
		{"uncertain", diffusion.Scenario{Uncertain: 0.3}},
	}
	fig := Figure{
		ID:         "FigScenario",
		Title:      "scenario regression",
		Algorithms: []Algorithm{AlgoTENDS, AlgoNetRate},
	}
	for _, s := range scenarios {
		fig.Points = append(fig.Points, Point{
			Label: s.label,
			Workload: Workload{
				Network: chain,
				Mu:      0.4, Alpha: 0.1, Beta: 80,
				Scenario: s.sc,
			},
		})
	}
	return fig
}

func scenarioCSV(t *testing.T, ms []Measurement) []byte {
	t.Helper()
	normalizeRuntime(ms)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ms); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScenarioGoldenCSV: every model family and dirty stage run at two
// worker counts produce byte-identical CSV, matching the committed
// fixture. Refresh with `go test -run ScenarioGoldenCSV -update` after an
// intentional change.
func TestScenarioGoldenCSV(t *testing.T) {
	goldenPath := filepath.Join("testdata", "golden_scenarios.csv")
	fig := scenarioFigure()
	var runs [][]byte
	for _, workers := range []int{1, 4} {
		ms, err := Run(fig, Config{Seed: 11, Repeats: 2, Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, scenarioCSV(t, ms))
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatalf("CSV differs between worker counts:\nworkers=1:\n%s\nworkers=4:\n%s", runs[0], runs[1])
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, runs[0], 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if !bytes.Equal(runs[0], want) {
		t.Fatalf("CSV drifted from golden fixture %s:\ngot:\n%s\nwant:\n%s\n(re-run with -update if the change is intentional)",
			goldenPath, runs[0], want)
	}
}

// TestScenarioResumeIdentity: a scenario run checkpointed, partially
// dropped, and resumed reproduces the uninterrupted CSV byte for byte —
// the journal round-trips the scenario identity columns.
func TestScenarioResumeIdentity(t *testing.T) {
	fig := scenarioFigure()
	cfg := Config{Seed: 11, Repeats: 2, Workers: 2}

	j, path := newTestJournal(t, cfg.Seed, cfg.Repeats)
	jcfg := cfg
	jcfg.Checkpoint = j
	full, err := Run(fig, jcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullCSV := scenarioCSV(t, full)

	_, cells, warn, err := loadJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if warn != nil {
		t.Fatalf("clean journal produced a warning: %v", warn)
	}
	// Drop one SIS cell and one dirty-stage cell so both a model family and
	// the missing pipeline re-execute while everything else restores.
	delete(cells, CellKey{Figure: fig.ID, PointIndex: 3, Algorithm: AlgoTENDS})
	delete(cells, CellKey{Figure: fig.ID, PointIndex: 6, Algorithm: AlgoNetRate})
	rcfg := cfg
	rcfg.Resume = cells
	resumed, err := Run(fig, rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := scenarioCSV(t, resumed); !bytes.Equal(got, fullCSV) {
		t.Fatalf("resumed CSV differs:\nresumed:\n%s\nfull:\n%s", got, fullCSV)
	}
}

func TestApplyScenario(t *testing.T) {
	keep := ScenarioOverride{DelayParam: -1, Recovery: -1, Reinfect: -1, Missing: -1, Uncertain: -1}

	t.Run("zero override is identity", func(t *testing.T) {
		fig := Fig12Missing()
		got, err := ApplyScenario(fig, keep)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fig.Points {
			if got.Points[i].Workload.Scenario != fig.Points[i].Workload.Scenario {
				t.Fatalf("point %d scenario changed", i)
			}
		}
	})

	t.Run("swept dimension is preserved", func(t *testing.T) {
		ov := keep
		ov.Model = "sir"
		ov.Recovery = 0.5
		ov.Missing = 0.9 // must NOT flatten Fig12's own sweep
		got, err := ApplyScenario(Fig12Missing(), ov)
		if err != nil {
			t.Fatal(err)
		}
		wantMissing := []float64{0, 0.1, 0.2, 0.3, 0.4}
		for i, pt := range got.Points {
			sc := pt.Workload.Scenario
			if sc.Missing != wantMissing[i] {
				t.Fatalf("point %d missing = %v, want %v", i, sc.Missing, wantMissing[i])
			}
			if sc.Model != diffusion.ModelSIR || sc.Recovery != 0.5 {
				t.Fatalf("point %d model/recovery = %v/%v", i, sc.Model, sc.Recovery)
			}
		}
	})

	t.Run("recovery applies only to sir and sis points", func(t *testing.T) {
		ov := keep
		ov.Recovery = 0.7
		ov.Reinfect = 0.6
		got, err := ApplyScenario(Fig14Models(), ov)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range got.Points {
			sc := pt.Workload.Scenario
			switch sc.Model {
			case diffusion.ModelSIR:
				if sc.Recovery != 0.7 || sc.Reinfection != 0 {
					t.Fatalf("sir point: %+v", sc)
				}
			case diffusion.ModelSIS:
				if sc.Recovery != 0.7 || sc.Reinfection != 0.6 {
					t.Fatalf("sis point: %+v", sc)
				}
			default:
				if sc.Recovery != 0 || sc.Reinfection != 0 {
					t.Fatalf("%s point picked up recovery: %+v", sc.Model, sc)
				}
			}
		}
	})

	t.Run("override composes onto a clean figure", func(t *testing.T) {
		ov := keep
		ov.Model = "sis"
		ov.Recovery = 0.3
		ov.Reinfect = 0.2
		ov.Delay = "rayleigh"
		ov.Missing = 0.1
		got, err := ApplyScenario(Fig4AlphaNetSci(), ov)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range got.Points {
			want := diffusion.Scenario{
				Model: diffusion.ModelSIS, Delay: diffusion.DelayRayleigh,
				Recovery: 0.3, Reinfection: 0.2, Missing: 0.1,
			}
			if pt.Workload.Scenario != want {
				t.Fatalf("scenario = %+v, want %+v", pt.Workload.Scenario, want)
			}
		}
	})

	t.Run("invalid flags are rejected", func(t *testing.T) {
		bad := keep
		bad.Model = "seir"
		if _, err := ApplyScenario(Fig4AlphaNetSci(), bad); err == nil {
			t.Fatal("unknown model accepted")
		}
		bad = keep
		bad.Delay = "weibull"
		if _, err := ApplyScenario(Fig4AlphaNetSci(), bad); err == nil {
			t.Fatal("unknown delay accepted")
		}
		bad = keep
		bad.Missing = 1.5
		if _, err := ApplyScenario(Fig4AlphaNetSci(), bad); err == nil {
			t.Fatal("out-of-range missing rate accepted")
		}
	})

	t.Run("does not mutate the input figure", func(t *testing.T) {
		fig := Fig4AlphaNetSci()
		ov := keep
		ov.Model = "sir"
		ov.Recovery = 0.5
		if _, err := ApplyScenario(fig, ov); err != nil {
			t.Fatal(err)
		}
		for i, pt := range fig.Points {
			if pt.Workload.Scenario != (diffusion.Scenario{}) {
				t.Fatalf("input figure point %d mutated: %+v", i, pt.Workload.Scenario)
			}
		}
	})
}
