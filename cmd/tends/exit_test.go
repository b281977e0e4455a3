package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test drive the command's real main: a test binary
// re-executed with TENDS_RUN_MAIN=1 acts as the tends command itself.
func TestMain(m *testing.M) {
	if os.Getenv("TENDS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs main in a subprocess with the given arguments and returns its
// exit code and stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TENDS_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestMainRejectsNonFiniteScale: a NaN or +Inf -scale used to prune every
// edge and exit 0 with an empty graph file.
func TestMainRejectsNonFiniteScale(t *testing.T) {
	dir := t.TempDir()
	in := writeStatusFile(t, dir, 40, 4, func(p, v int) bool { return (p+v)%3 == 0 })
	for _, scale := range []string{"NaN", "+Inf"} {
		out := filepath.Join(dir, "graph-"+scale+".txt")
		code, stderr := runMain(t, "-in", in, "-out", out, "-scale", scale)
		if code != 1 {
			t.Fatalf("-scale %s: exit %d, want 1 (stderr %q)", scale, code, stderr)
		}
	}
	if code, stderr := runMain(t, "-in", in, "-out", filepath.Join(dir, "ok.txt")); code != 0 {
		t.Fatalf("default -scale: exit %d (stderr %q)", code, stderr)
	}
}

// TestMainRejectsNaNThreshold: -threshold NaN used to fail the ">= 0" test,
// fall back to the automatic τ and exit 0. ±Inf stay legal: +Inf is a fixed
// threshold that keeps no edge, and -Inf, being negative, selects τ.
func TestMainRejectsNaNThreshold(t *testing.T) {
	dir := t.TempDir()
	in := writeStatusFile(t, dir, 40, 4, func(p, v int) bool { return (p+v)%3 == 0 })
	for _, tc := range []struct {
		threshold string
		want      int
	}{
		{"NaN", 1},
		{"+Inf", 0},
		{"-Inf", 0},
		{"0.5", 0},
	} {
		out := filepath.Join(dir, "graph-"+tc.threshold+".txt")
		if code, stderr := runMain(t, "-in", in, "-out", out, "-threshold", tc.threshold); code != tc.want {
			t.Errorf("-threshold %s: exit %d, want %d (stderr %q)", tc.threshold, code, tc.want, stderr)
		}
	}
}

// writeFollowerStatus writes a status file in which node 1 follows node 0
// and node 3 follows node 2, each with a little noise, so the search has
// parents to find.
func writeFollowerStatus(t *testing.T, dir string) string {
	t.Helper()
	return writeStatusFile(t, dir, 300, 5, func(p, v int) bool {
		switch v {
		case 0:
			return p%2 == 0
		case 1:
			return p%2 == 0 && p%10 != 4
		case 2:
			return p%3 == 0
		case 3:
			return p%3 == 0 && p%14 != 6
		default:
			return p%5 == 1
		}
	})
}

// TestMainProbsWriteError: -probs used to ignore every write error, so a
// full disk left the file empty and the command exited 0.
func TestMainProbsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	dir := t.TempDir()
	in, out := writeFollowerStatus(t, dir), filepath.Join(dir, "g.txt")
	code, stderr := runMain(t, "-in", in, "-out", out, "-probs", "/dev/full")
	if code != 1 {
		t.Fatalf("-probs /dev/full: exit %d, want 1 (stderr %q)", code, stderr)
	}
	g, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(g), "\n"); lines < 2 {
		t.Fatalf("the inferred graph has no edge (%q); the test needs a line to write", g)
	}
}

// TestMainVerboseReportsSearch reads -verbose's search line: it is printed
// with or without -sparse, and since both engines hand the search the same
// candidates, its counts agree between them.
func TestMainVerboseReportsSearch(t *testing.T) {
	dir := t.TempDir()
	// Node 1 follows node 0 and node 3 follows node 2, each with a little
	// noise, so the search has parents to find.
	in := writeFollowerStatus(t, dir)
	var lines []string
	for _, extra := range [][]string{nil, {"-sparse"}} {
		args := append([]string{"-in", in, "-out", filepath.Join(dir, "g.txt"), "-verbose"}, extra...)
		code, stderr := runMain(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d (stderr %q)", extra, code, stderr)
		}
		var line string
		for _, l := range strings.Split(stderr, "\n") {
			if strings.HasPrefix(l, "search: ") {
				line = l
			}
		}
		var combos, merges, probes, hits int
		if _, err := fmt.Sscanf(line, "search: combos=%d merges=%d probes=%d probe_hits=%d", &combos, &merges, &probes, &hits); err != nil {
			t.Fatalf("%v: no search line in stderr %q: %v", extra, stderr, err)
		}
		if combos == 0 || merges == 0 || probes == 0 {
			t.Fatalf("%v: search line %q reports no work", extra, line)
		}
		lines = append(lines, line)
	}
	if lines[0] != lines[1] {
		t.Fatalf("dense and sparse search lines differ: %q vs %q", lines[0], lines[1])
	}
}
