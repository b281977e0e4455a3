package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test drive the command's real main: a test binary
// re-executed with RECONSTRUCT_RUN_MAIN=1 acts as the reconstruct command.
func TestMain(m *testing.M) {
	if os.Getenv("RECONSTRUCT_RUN_MAIN") == "1" {
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
	cmd.Env = append(os.Environ(), "RECONSTRUCT_RUN_MAIN=1")
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

// TestMainRejectsNegativeRISEps: a negative -ris-eps used to run the sketch
// pool to its 2²⁰ cap instead of failing.
func TestMainRejectsNegativeRISEps(t *testing.T) {
	dir, _, status, _, _ := fixture(t)
	out := filepath.Join(dir, "recon.txt")
	code, stderr := runMain(t, "-algo", "tends", "-status", status, "-k", "2", "-samples", "50", "-ris-eps", "-1", "-out", out)
	if code != 1 || !strings.Contains(stderr, "Eps") {
		t.Fatalf("-ris-eps -1: exit %d, stderr %q; want exit 1 naming Eps", code, stderr)
	}
	code, stderr = runMain(t, "-algo", "tends", "-status", status, "-k", "2", "-samples", "50", "-out", out)
	if code != 0 {
		t.Fatalf("default -ris-eps: exit %d (stderr %q)", code, stderr)
	}
}
