package experiments

import (
	"context"
	"strings"
	"testing"

	"tends/internal/graph"
)

// chainOf returns a network source for a symmetrized n-node chain.
func chainOf(n int) func(int64) (*graph.Directed, error) {
	return func(int64) (*graph.Directed, error) {
		g := graph.Chain(n)
		g.Symmetrize()
		return g, nil
	}
}

// onChain moves every point of fig onto the symmetrized n-node chain with
// the given diffusion settings, keeping each point's scenario and options.
func onChain(fig Figure, n int, mu, alpha float64, beta int) Figure {
	points := make([]Point, len(fig.Points))
	for i, pt := range fig.Points {
		pt.Workload.Network = chainOf(n)
		pt.Workload.Mu, pt.Workload.Alpha, pt.Workload.Beta = mu, alpha, beta
		points[i] = pt
	}
	fig.Points = points
	return fig
}

// studyOnChain is a study on the 20-node chain instance (μ=0.35, α=0.1,
// β=200) the ablations have always been checked on.
func studyOnChain(t *testing.T, name string) Figure {
	t.Helper()
	fig, ok := Studies()[name]
	if !ok {
		t.Fatalf("no study %q", name)
	}
	return onChain(fig, 20, 0.35, 0.1, 200)
}

// runFig runs fig serially and fails the test on a run error.
func runFig(t *testing.T, fig Figure, seed int64) []Measurement {
	t.Helper()
	ms, _, err := RunContext(context.Background(), fig, Config{Seed: seed, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// fByAlgo maps a one-point run's measurements to F by algorithm, failing
// on any cell error.
func fByAlgo(t *testing.T, ms []Measurement) map[Algorithm]float64 {
	t.Helper()
	out := make(map[Algorithm]float64, len(ms))
	for _, m := range ms {
		if m.Err != nil {
			t.Fatalf("%s %s: %v", m.Point, m.Algorithm, m.Err)
		}
		out[m.Algorithm] = m.F
	}
	return out
}

func TestStudiesDeterministicAcrossWorkers(t *testing.T) {
	for _, name := range StudyNames() {
		fig := studyOnChain(t, name)
		var runs [2][]Measurement
		for i, workers := range []int{1, 4} {
			ms, _, err := RunContext(context.Background(), fig, Config{Seed: 3, Repeats: 2, Workers: workers}, nil)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", name, workers, err)
			}
			runs[i] = ms
		}
		sameMeasurements(t, runs[0], runs[1])
		for _, m := range runs[0] {
			if m.Err != nil {
				t.Fatalf("%s %s %s: %v", name, m.Point, m.Algorithm, m.Err)
			}
		}
	}
}

// The default TENDS of every ablation and the σ=0 point of the timestamp
// study are the clean NetSci point of Fig. 12: one protocol, one seed
// stream, one F.
func TestStudiesShareFigureProtocol(t *testing.T) {
	fig12 := SelectAlgorithms(Fig12Missing(), AlgoTENDS)
	fig12.Points = fig12.Points[:1]
	want := runFig(t, fig12, 1)[0].F
	for _, name := range []string{"threshold", "greedy", "penalty", "timestamps"} {
		fig := SelectAlgorithms(Studies()[name], AlgoTENDS)
		fig.Points = fig.Points[:1]
		if got := runFig(t, fig, 1)[0].F; got != want {
			t.Fatalf("%s: default TENDS F = %v, Fig12 miss=0.0 F = %v", name, got, want)
		}
	}
}

func TestThresholdAblation(t *testing.T) {
	ms := runFig(t, studyOnChain(t, "threshold"), 3)
	if len(ms) != 4 {
		t.Fatalf("variants = %d, want 4", len(ms))
	}
	for _, m := range ms {
		if m.Err != nil || m.F <= 0 {
			t.Fatalf("%s: F = %v (%v) on an easy instance", m.Algorithm, m.F, m.Err)
		}
		if m.Runtime <= 0 {
			t.Fatalf("%s: runtime not measured", m.Algorithm)
		}
	}
}

func TestGreedyAblation(t *testing.T) {
	ms := runFig(t, studyOnChain(t, "greedy"), 3)
	if len(ms) != 6 {
		t.Fatalf("variants = %d, want 6", len(ms))
	}
	f := fByAlgo(t, ms)
	// The adaptive default should not be (much) worse than the static
	// literal reading on an easy instance.
	if adaptive, static := f[AlgoTENDS], f["TENDS-STAT"]; adaptive < static-0.2 {
		t.Fatalf("adaptive greedy F=%.3f far below static F=%.3f", adaptive, static)
	}
}

// The pruning ablation is Fig. 10's threshold sweep plus its
// traditional-MI point.
func TestPruningAblation(t *testing.T) {
	ms := runFig(t, onChain(Fig10PruningNetSci(), 20, 0.35, 0.1, 200), 3)
	if len(ms) != 8 {
		t.Fatalf("points = %d, want 8", len(ms))
	}
	for _, m := range ms {
		if m.Err != nil || m.F <= 0 {
			t.Fatalf("%s: F = %v (%v)", m.Point, m.F, m.Err)
		}
	}
}

func TestTreeModelAblation(t *testing.T) {
	ms := runFig(t, studyOnChain(t, "treemodel"), 3)
	if len(ms) != 2 {
		t.Fatalf("variants = %d, want 2", len(ms))
	}
	for algo, f := range fByAlgo(t, ms) {
		if f <= 0.2 {
			t.Fatalf("%s: F = %.3f on a chain, too low", algo, f)
		}
	}
}

// scenarioOnChain runs a scenario figure's TENDS column on the 30-node
// chain at the paper's defaults and returns F per point.
func scenarioOnChain(t *testing.T, fig Figure, seed int64) []float64 {
	t.Helper()
	fig = SelectAlgorithms(onChain(fig, 30, DefaultMu, DefaultAlpha, DefaultBeta), AlgoTENDS)
	var fs []float64
	for _, m := range runFig(t, fig, seed) {
		if m.Err != nil {
			t.Fatalf("%s: %v", m.Point, m.Err)
		}
		fs = append(fs, m.F)
	}
	return fs
}

// The status-noise sweep is Fig. 13: Uncertain at rate ρ flips a status
// with probability 0.375ρ, so its points run from 0 to 15% flips.
func TestNoiseRobustnessDegradesGracefully(t *testing.T) {
	fs := scenarioOnChain(t, Fig13Uncertain(), 1)
	clean, light, heavy := fs[0], fs[1], fs[len(fs)-1]
	if clean < 0.5 {
		t.Fatalf("clean F = %.3f too low for a chain", clean)
	}
	if light < clean-0.35 {
		t.Fatalf("light noise collapsed F: %.3f -> %.3f", clean, light)
	}
	if heavy > clean+0.05 {
		// Heavy noise must not *help*; it may degrade arbitrarily.
		t.Fatalf("heavy noise improved F: %.3f -> %.3f", clean, heavy)
	}
}

// The erased-observation sweep is Fig. 12.
func TestMissingRobustness(t *testing.T) {
	fs := scenarioOnChain(t, Fig12Missing(), 2)
	if fs[0] < 0.5 {
		t.Fatalf("clean F = %.3f", fs[0])
	}
	if fs[1] <= 0 {
		t.Fatal("10% missing data should not zero out inference")
	}
}

// The model-mismatch study is Fig. 14's IC and LT points.
func TestModelMismatch(t *testing.T) {
	fs := scenarioOnChain(t, Fig14Models(), 3)
	ic, lt := fs[0], fs[1]
	if ic < 0.5 {
		t.Fatalf("IC F = %.3f too low", ic)
	}
	if lt < 0.3 {
		t.Fatalf("LT F = %.3f — TENDS should survive the model swap", lt)
	}
}

// Two one-point figures with the same seed, σ=0 and σ=2, see the same
// statuses: TENDS, which never reads timestamps, scores bit-identically,
// while MulTree degrades.
func TestTimestampNoise(t *testing.T) {
	study := onChain(Studies()["timestamps"], 30, DefaultMu, DefaultAlpha, DefaultBeta)
	study = SelectAlgorithms(study, AlgoTENDS, AlgoMulTree)
	at := func(i int) map[Algorithm]float64 {
		fig := study
		fig.Points = []Point{study.Points[i]}
		return fByAlgo(t, runFig(t, fig, 4))
	}
	clean, noisy := at(0), at(len(study.Points)-1)
	if clean[AlgoTENDS] != noisy[AlgoTENDS] {
		t.Fatalf("TENDS changed under timestamp noise: %v vs %v", clean[AlgoTENDS], noisy[AlgoTENDS])
	}
	if noisy[AlgoMulTree] >= clean[AlgoMulTree] {
		t.Fatalf("MulTree unaffected by timestamp noise: %v -> %v", clean[AlgoMulTree], noisy[AlgoMulTree])
	}
}

// A failing network and an invalid timestamp noise fail the extension
// study's cells, not the run.
func TestExtensionErrors(t *testing.T) {
	fig := SelectAlgorithms(Studies()["timestamps"], AlgoTENDS)
	fig.Points = fig.Points[:1]
	fig.Points[0].Workload.Network = failOnSeeds(cellSeed(1, 0, 0))
	if ms := runFig(t, fig, 1); ms[0].Completed != 0 || ms[0].Err == nil || !strings.Contains(ms[0].Err.Error(), "network") {
		t.Fatalf("network error should fail the cell: %+v", ms[0])
	}
	fig = onChain(fig, 30, DefaultMu, DefaultAlpha, DefaultBeta)
	fig.Points[0].Workload.Scenario.TimestampNoise = -1
	if ms := runFig(t, fig, 1); ms[0].Err == nil || !strings.Contains(ms[0].Err.Error(), "timestamp noise") {
		t.Fatalf("negative timestamp noise should fail the cell: %+v", ms[0])
	}
}
