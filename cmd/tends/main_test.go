package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/graph"
)

func writeStatusFile(t *testing.T, dir string, beta, n int, fill func(p, v int) bool) string {
	t.Helper()
	m := diffusion.NewStatusMatrix(beta, n)
	for p := 0; p < beta; p++ {
		for v := 0; v < n; v++ {
			m.Set(p, v, fill(p, v))
		}
	}
	path := filepath.Join(dir, "statuses.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := m.WriteStatus(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	// Node 1 copies node 0 with high fidelity; node 2 independent.
	in := writeStatusFile(t, dir, 200, 3, func(p, v int) bool {
		switch v {
		case 0:
			return p%2 == 0
		case 1:
			return p%2 == 0 && p%10 != 4
		default:
			return p%3 == 0
		}
	})
	out := filepath.Join(dir, "graph.txt")
	if err := run(context.Background(), in, out, 0, 0, -1, false, true, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.Read(f)
	if err != nil {
		t.Fatalf("output not parseable: %v", err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("output nodes = %d", g.NumNodes())
	}
	// The correlated pair must be linked; the independent node must not be.
	if !g.HasEdge(0, 1) && !g.HasEdge(1, 0) {
		t.Fatal("correlated pair not linked")
	}
	for _, e := range g.Edges() {
		if e.From == 2 || e.To == 2 {
			t.Fatalf("independent node linked: %v", e)
		}
	}
}

func TestRunFixedThresholdAndMI(t *testing.T) {
	dir := t.TempDir()
	in := writeStatusFile(t, dir, 50, 2, func(p, v int) bool { return p%2 == 0 })
	out := filepath.Join(dir, "g.txt")
	// A fixed threshold above the binary-MI maximum of 1: no edges.
	if err := run(context.Background(), in, out, 1, 0, 1.5, false, false, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != "nodes 2" {
		t.Fatalf("expected empty graph, got %q", data)
	}
	// Traditional-MI mode must also run cleanly.
	if err := run(context.Background(), in, out, 1, 1, -1, true, false, 0); err != nil {
		t.Fatalf("run with -mi: %v", err)
	}
}

func TestEstimateProbs(t *testing.T) {
	dir := t.TempDir()
	in := writeStatusFile(t, dir, 400, 2, func(p, v int) bool {
		if v == 0 {
			return p%2 == 0
		}
		return p%2 == 0 && p%5 != 0 // node 1 follows node 0 at ~0.8
	})
	out := filepath.Join(dir, "g.txt")
	if err := run(context.Background(), in, out, 0, 0, -1, false, false, 0); err != nil {
		t.Fatal(err)
	}
	probs := filepath.Join(dir, "p.txt")
	if err := estimateProbs(in, out, probs); err != nil {
		t.Fatalf("estimateProbs: %v", err)
	}
	data, err := os.ReadFile(probs)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.TrimSpace(string(data))) == 0 {
		t.Fatal("probability file empty despite inferred edges")
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if len(strings.Fields(line)) != 3 {
			t.Fatalf("bad probability line %q", line)
		}
	}
	// -probs without -out must fail cleanly.
	if err := estimateProbs(in, "", probs); err == nil {
		t.Fatal("estimateProbs without graph path should fail")
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), filepath.Join(dir, "missing.txt"), "", 0, 0, -1, false, false, 0); err == nil {
		t.Fatal("missing input should fail")
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("not a status file\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), bad, "", 0, 0, -1, false, false, 0); err == nil {
		t.Fatal("malformed input should fail")
	}
	good := writeStatusFile(t, dir, 10, 2, func(p, v int) bool { return false })
	if err := run(context.Background(), good, "", -5, 0, -1, false, false, 0); err == nil {
		t.Fatal("invalid combo size should fail")
	}
	if err := run(context.Background(), good, filepath.Join(dir, "nodir", "x.txt"), 0, 0, -1, false, false, 0); err == nil {
		t.Fatal("unwritable output should fail")
	}
}
