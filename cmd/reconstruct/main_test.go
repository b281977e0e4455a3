package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/graph"
)

// fixture simulates a workload and writes truth/status/cascade files.
func fixture(t *testing.T) (dir, truth, status, cascades string, m int) {
	t.Helper()
	dir = t.TempDir()
	g := graph.Chain(12)
	g.Symmetrize()
	rng := rand.New(rand.NewSource(5))
	ep := diffusion.NewEdgeProbs(g, 0.5, 0.05, rng)
	res, err := diffusion.Simulate(ep, diffusion.Config{Alpha: 0.1, Beta: 200}, rng)
	if err != nil {
		t.Fatal(err)
	}
	truth = filepath.Join(dir, "truth.txt")
	f, err := os.Create(truth)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Write(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	status = filepath.Join(dir, "status.txt")
	f, err = os.Create(status)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Statuses.WriteStatus(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cascades = filepath.Join(dir, "cascades.txt")
	f, err = os.Create(cascades)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffusion.WriteCascades(f, res); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return dir, truth, status, cascades, g.NumEdges()
}

func baseOpts() runOpts {
	return runOpts{minRate: 0.01, samples: 200, risEps: 0.02, selector: "ris", seed: 1}
}

func TestRunAllAlgorithms(t *testing.T) {
	dir, truth, status, cascades, m := fixture(t)
	ctx := context.Background()
	for _, algo := range []string{"tends", "netrate", "multree", "netinf", "lift", "path"} {
		out := filepath.Join(dir, algo+".txt")
		o := baseOpts()
		o.algo = algo
		o.outPath = out
		o.truthPath = truth
		if algo == "tends" {
			o.statusPath = status
		} else {
			o.cascadePath = cascades
			o.m = m
		}
		if err := run(ctx, o); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s output unparseable: %v", algo, err)
		}
		if g.NumNodes() != 12 {
			t.Fatalf("%s: nodes = %d", algo, g.NumNodes())
		}
		if algo != "lift" && g.NumEdges() == 0 {
			t.Fatalf("%s inferred nothing on an easy instance", algo)
		}
	}
}

func TestRunFusedPipeline(t *testing.T) {
	dir, truth, status, _, _ := fixture(t)
	ctx := context.Background()
	for _, selector := range []string{"ris", "celf"} {
		o := baseOpts()
		o.algo = "tends"
		o.statusPath = status
		o.truthPath = truth
		o.outPath = filepath.Join(dir, "g_"+selector+".txt")
		o.reportPath = filepath.Join(dir, "report_"+selector+".json")
		o.selector = selector
		o.k = 2
		o.immunize = 1
		if err := run(ctx, o); err != nil {
			t.Fatalf("fused pipeline (%s): %v", selector, err)
		}
		raw, err := os.ReadFile(o.reportPath)
		if err != nil {
			t.Fatal(err)
		}
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("report not valid JSON: %v", err)
		}
		if rep.Algo != "tends" || rep.Nodes != 12 {
			t.Fatalf("report header wrong: %+v", rep)
		}
		if rep.Truth == nil || rep.Truth.F <= 0 {
			t.Fatalf("truth scoring missing from report: %+v", rep.Truth)
		}
		if rep.Probest == nil || rep.Probest.Edges == 0 || rep.Probest.MeanProb <= 0 {
			t.Fatalf("probest summary missing: %+v", rep.Probest)
		}
		if rep.Influence == nil || len(rep.Influence.Seeds) != 2 || rep.Influence.MCSpread <= 0 {
			t.Fatalf("influence summary wrong: %+v", rep.Influence)
		}
		if selector == "ris" && rep.Influence.Sketches == 0 {
			t.Fatal("RIS selector reported zero sketches")
		}
		if rep.Immunize == nil || len(rep.Immunize.Blocked) != 1 {
			t.Fatalf("immunize summary wrong: %+v", rep.Immunize)
		}
		for _, ph := range []string{"infer", "probest", "influence", "immunize"} {
			if rep.PhaseMS[ph] < 0 {
				t.Fatalf("phase %s has negative wall time", ph)
			}
			if _, ok := rep.PhaseMS[ph]; !ok {
				t.Fatalf("phase %s missing from report", ph)
			}
		}
		if len(rep.Counters) == 0 {
			t.Fatal("no observability counters in report")
		}
		if selector == "ris" {
			if rep.Counters["influence/sketches"] == 0 {
				t.Fatal("influence/sketches counter missing")
			}
		}
		if n, ok := rep.Counters["probest/unconverged"]; !ok || n != 0 {
			t.Fatalf("probest/unconverged counter = %d (present %v), want 0", n, ok)
		}
		if rep.Counters["probest/nodes"] != 12 {
			t.Fatalf("probest/nodes counter = %d, want 12", rep.Counters["probest/nodes"])
		}
	}
}

func TestRunFusedPipelineCancellation(t *testing.T) {
	_, _, status, _, _ := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := baseOpts()
	o.algo = "tends"
	o.statusPath = status
	o.k = 2
	if err := run(ctx, o); err == nil {
		t.Fatal("cancelled context should abort the pipeline")
	}
}

// A truth graph over a different node set is refused with both counts named,
// instead of panicking inside the scorer.
func TestRunTruthNodeCountMismatch(t *testing.T) {
	dir, _, status, _, _ := fixture(t)
	for _, n := range []int{5, 50} {
		small := filepath.Join(dir, "other.txt")
		f, err := os.Create(small)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.Write(f, graph.Chain(n)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		o := baseOpts()
		o.algo = "tends"
		o.statusPath = status
		o.truthPath = small
		err = run(context.Background(), o)
		if err == nil {
			t.Fatalf("truth with %d nodes: expected error", n)
		}
		for _, want := range []string{fmt.Sprintf("%d nodes", n), "has 12"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %q", err, want)
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	_, truth, status, cascades, _ := fixture(t)
	ctx := context.Background()
	mk := func(mod func(*runOpts)) func() error {
		return func() error {
			o := baseOpts()
			mod(&o)
			return run(ctx, o)
		}
	}
	cases := []struct {
		name string
		err  func() error
	}{
		{"no algo", mk(func(o *runOpts) { o.statusPath = status; o.cascadePath = cascades })},
		{"unknown algo", mk(func(o *runOpts) { o.algo = "bogus" })},
		{"tends without status", mk(func(o *runOpts) { o.algo = "tends"; o.cascadePath = cascades })},
		{"multree without cascades", mk(func(o *runOpts) { o.algo = "multree"; o.statusPath = status; o.m = 5 })},
		{"multree without budget", mk(func(o *runOpts) { o.algo = "multree"; o.cascadePath = cascades })},
		{"missing truth file", mk(func(o *runOpts) { o.algo = "tends"; o.statusPath = status; o.truthPath = truth + ".nope" })},
		{"missing status file", mk(func(o *runOpts) { o.algo = "tends"; o.statusPath = status + ".nope" })},
		{"bad selector", mk(func(o *runOpts) { o.algo = "tends"; o.statusPath = status; o.k = 1; o.selector = "bogus" })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err() == nil {
				t.Fatal("expected error")
			}
		})
	}
}
