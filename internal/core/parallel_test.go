package core

import (
	"testing"

	"tends/internal/graph"
	"tends/internal/lfr"
)

// Parallel inference must produce bit-identical results to serial
// inference for every worker count.
func TestInferParallelDeterministic(t *testing.T) {
	g := graph.Chain(40)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.35, 0.1, 300, 21)
	serial, err := Infer(sm, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 100} {
		par, err := Infer(sm, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !serial.Graph.Equal(par.Graph) {
			t.Fatalf("workers=%d produced a different topology", workers)
		}
		if serial.Score != par.Score {
			t.Fatalf("workers=%d score %v != serial %v", workers, par.Score, serial.Score)
		}
		for i := range serial.Parents {
			if len(serial.Parents[i]) != len(par.Parents[i]) {
				t.Fatalf("workers=%d: parent set of node %d differs", workers, i)
			}
			for j := range serial.Parents[i] {
				if serial.Parents[i][j] != par.Parents[i][j] {
					t.Fatalf("workers=%d: parent set of node %d differs", workers, i)
				}
			}
		}
	}
}

// The IMI matrix must be bit-identical for every worker count, for both
// statistics, on a real LFR workload.
func TestComputeIMIWorkersDeterministic(t *testing.T) {
	res, err := lfr.GenerateBenchmark(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	sm := simulateOn(t, res.Graph, 0.3, 0.15, 150, 17)
	for _, traditional := range []bool{false, true} {
		serial := denseIMI(sm, traditional, 1)
		for _, workers := range []int{0, 2, 4, 16} {
			par := denseIMI(sm, traditional, workers)
			if par.N() != serial.N() {
				t.Fatalf("workers=%d: n=%d, want %d", workers, par.N(), serial.N())
			}
			for i := 0; i < serial.N(); i++ {
				for j := i + 1; j < serial.N(); j++ {
					if par.At(i, j) != serial.At(i, j) {
						t.Fatalf("traditional=%v workers=%d: IMI(%d,%d)=%v, serial %v",
							traditional, workers, i, j, par.At(i, j), serial.At(i, j))
					}
				}
			}
		}
	}
}

func TestInferDefaultWorkers(t *testing.T) {
	g := graph.Star(10)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.1, 200, 22)
	// Workers=0 (default: GOMAXPROCS) must run and agree with serial.
	def, err := Infer(sm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Infer(sm, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !def.Graph.Equal(serial.Graph) {
		t.Fatal("default worker count changed the result")
	}
}
