package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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
