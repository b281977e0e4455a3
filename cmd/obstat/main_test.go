package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/graph"
)

func writeFixtures(t *testing.T) (statusPath, graphPath string) {
	t.Helper()
	dir := t.TempDir()
	g := graph.Chain(15)
	g.Symmetrize()
	rng := rand.New(rand.NewSource(1))
	ep := diffusion.NewEdgeProbs(g, 0.4, 0.05, rng)
	res, err := diffusion.Simulate(ep, diffusion.Config{Alpha: 0.1, Beta: 60}, rng)
	if err != nil {
		t.Fatal(err)
	}
	statusPath = filepath.Join(dir, "s.txt")
	f, err := os.Create(statusPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Statuses.WriteStatus(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	graphPath = filepath.Join(dir, "g.txt")
	f, err = os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Write(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return statusPath, graphPath
}

// TestProfileStatus pins the whole profile of the chain fixture, byte for
// byte.
func TestProfileStatus(t *testing.T) {
	statusPath, _ := writeFixtures(t)
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := profileStatus(out, statusPath); err != nil {
		t.Fatalf("profileStatus: %v", err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	const want = "observations: 60 processes x 15 nodes\n" +
		"prevalence per process: min=0.13 median=0.27 max=0.67\n" +
		"constant-status nodes: 0 / 15\n" +
		"pairwise IMI: 45 positive of 105 pairs, max=0.2925\n" +
		"thresholds: kmeans=0.0998 fdr=0.0569 auto=0.0998\n" +
		"candidate pairs above auto threshold: 13 (1.7 per node)\n"
	if string(data) != want {
		t.Fatalf("profile:\n%s\nwant:\n%s", data, want)
	}
}

func TestProfileGraph(t *testing.T) {
	_, graphPath := writeFixtures(t)
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := profileGraph(out, graphPath); err != nil {
		t.Fatalf("profileGraph: %v", err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"graph: 15 nodes, 28 directed edges", "reciprocity: 1.000", "weak components: 1"} {
		if !containsStr(string(data), want) {
			t.Fatalf("output missing %q:\n%s", want, data)
		}
	}
}

func TestProfileErrors(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := profileStatus(out, "/nonexistent/file"); err == nil {
		t.Fatal("missing status file should fail")
	}
	if err := profileGraph(out, "/nonexistent/file"); err == nil {
		t.Fatal("missing graph file should fail")
	}
}

func containsStr(haystack, needle string) bool { return strings.Contains(haystack, needle) }
