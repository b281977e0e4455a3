package main

import (
	"os"
	"path/filepath"
	"testing"

	"tends/internal/graph"
)

func TestRunIndex(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "lfr1.txt")
	if err := run(1, false, 0, 4, 2, 0.1, 7, out); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.Read(f)
	if err != nil {
		t.Fatalf("output unreadable: %v", err)
	}
	if g.NumNodes() != 100 {
		t.Fatalf("LFR1 nodes = %d, want 100", g.NumNodes())
	}
}

func TestRunCustom(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "custom.txt")
	if err := run(0, false, 120, 4, 2, 0.1, 3, out); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 120 {
		t.Fatalf("custom nodes = %d, want 120", g.NumNodes())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(0, false, 0, 4, 2, 0.1, 1, ""); err == nil {
		t.Fatal("no mode selected should fail")
	}
	if err := run(1, false, 50, 4, 2, 0.1, 1, ""); err == nil {
		t.Fatal("both -index and -n should fail")
	}
	if err := run(99, false, 0, 4, 2, 0.1, 1, ""); err == nil {
		t.Fatal("bad index should fail")
	}
	if err := run(0, false, 10, 0, 2, 0.1, 1, ""); err == nil {
		t.Fatal("bad custom params should fail")
	}
	// A full device fails the write (or the close) of -out: the error
	// reaches the caller instead of a silent exit 0.
	t.Run("full device", func(t *testing.T) {
		if _, err := os.Stat("/dev/full"); err != nil {
			t.Skip("/dev/full not available")
		}
		if err := run(1, false, 0, 4, 2, 0.1, 1, "/dev/full"); err == nil {
			t.Fatal("writing -out to a full device should fail")
		}
	})
}
