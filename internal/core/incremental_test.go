package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tends/internal/diffusion"
)

// randomRows draws beta random infected lists over n nodes, mixing empty,
// sparse, and dense rows so marginal count classes and co-occurrence rows
// both get exercised.
func randomRows(rng *rand.Rand, beta, n int) [][]int {
	rows := make([][]int, beta)
	for r := range rows {
		var density float64
		switch r % 4 {
		case 0:
			density = 0 // empty row: beta advances, no counts move
		case 1:
			density = 0.05
		case 2:
			density = 0.3
		default:
			density = 0.8
		}
		for v := 0; v < n; v++ {
			if rng.Float64() < density {
				rows[r] = append(rows[r], v)
			}
		}
	}
	return rows
}

func matrixFromRows(t *testing.T, rows [][]int, n int) *diffusion.StatusMatrix {
	t.Helper()
	sm := diffusion.NewStatusMatrix(len(rows), n)
	for p, row := range rows {
		for _, v := range row {
			sm.Set(p, v, true)
		}
	}
	return sm
}

// TestIncrementalCountsBitIdentical is the streaming-fold correctness
// guard: appending cascades one at a time must yield bit-identical IMI pair
// values — and bit-identical inferred topologies — to from-scratch batch
// builds over the concatenated status matrix, by popcount and by the
// cascade walk at Workers 1 and 4. Any
// drift between the streaming fold and the batch path breaks the service's
// crash-recovery byte-identity, so every comparison here is exact (float
// bits, not tolerances).
func TestIncrementalCountsBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name        string
		n, beta     int
		traditional bool
		seed        int64
	}{
		{name: "imi_small", n: 18, beta: 24, seed: 1},
		{name: "imi_wide", n: 40, beta: 17, seed: 2},
		{name: "traditional", n: 18, beta: 24, traditional: true, seed: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			rows := randomRows(rng, tc.beta, tc.n)
			inc := NewIncrementalCounts(tc.n, tc.traditional)
			for r, row := range rows {
				if err := inc.AppendRow(row); err != nil {
					t.Fatalf("append row %d: %v", r, err)
				}
				// Check the fold against the batch engines at a few stream
				// prefixes, not only the final state: mid-stream drift is
				// exactly what a recompute between ingest batches would see.
				if r != 4 && r != tc.beta/2 && r != len(rows)-1 {
					continue
				}
				sm := matrixFromRows(t, rows[:r+1], tc.n)
				src := inc.Source()
				for _, workers := range []int{1, 4} {
					dense := denseIMI(sm, tc.traditional, workers)
					sparse := sparseIMI(sm, tc.traditional, workers)
					for i := 0; i < tc.n; i++ {
						for j := i + 1; j < tc.n; j++ {
							dv, sv, iv := dense.At(i, j), sparse.At(i, j), src.At(i, j)
							if math.Float64bits(dv) != math.Float64bits(iv) {
								t.Fatalf("rows=%d workers=%d pair (%d,%d): incremental %v != dense %v", r+1, workers, i, j, iv, dv)
							}
							if math.Float64bits(sv) != math.Float64bits(iv) {
								t.Fatalf("rows=%d workers=%d pair (%d,%d): incremental %v != sparse %v", r+1, workers, i, j, iv, sv)
							}
						}
					}
				}
			}

			// Full inference: the incremental path must reproduce the batch
			// topology, threshold bits included, at both worker counts and
			// against both batch engines.
			sm := matrixFromRows(t, rows, tc.n)
			for _, workers := range []int{1, 4} {
				for _, step := range []countStep{popcountStep, walkStep} {
					opt := Options{TraditionalMI: tc.traditional, Workers: workers}
					batch, err := infer(context.Background(), sm, opt, step)
					if err != nil {
						t.Fatalf("batch infer (%v): %v", step, err)
					}
					incRes, err := InferFromSource(context.Background(), sm, inc.Source(), opt)
					if err != nil {
						t.Fatalf("incremental infer: %v", err)
					}
					if math.Float64bits(batch.Threshold) != math.Float64bits(incRes.Threshold) {
						t.Fatalf("workers=%d %v: threshold %v != %v", workers, step, incRes.Threshold, batch.Threshold)
					}
					if math.Float64bits(batch.Score) != math.Float64bits(incRes.Score) {
						t.Fatalf("workers=%d %v: score %v != %v", workers, step, incRes.Score, batch.Score)
					}
					if !batch.Graph.Equal(incRes.Graph) {
						t.Fatalf("workers=%d %v: topology differs from batch", workers, step)
					}
				}
			}
		})
	}
}

func TestIncrementalCountsRejectsDirtyRows(t *testing.T) {
	inc := NewIncrementalCounts(5, false)
	if err := inc.AppendRow([]int{0, 2}); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	if err := inc.AppendRow([]int{1, 5}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := inc.AppendRow([]int{-1}); err == nil {
		t.Fatal("negative node accepted")
	}
	if err := inc.AppendRow([]int{3, 3}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	// Rejected rows must leave the counts untouched: β and the marginals
	// still describe exactly one applied row.
	if inc.Beta() != 1 {
		t.Fatalf("beta = %d after rejected rows, want 1", inc.Beta())
	}
	if got := inc.CoPairs(); got != 1 {
		t.Fatalf("coPairs = %d, want 1", got)
	}
	if nodes := inc.ActiveNodes(); len(nodes) != 2 || nodes[0] != 0 || nodes[1] != 2 {
		t.Fatalf("active nodes = %v, want [0 2]", nodes)
	}
	if src := inc.Source(); !slices.Equal(src.nbr[src.rowStart[0]:src.rowStart[1]], []int32{2}) {
		t.Fatalf("neighbors(0) = %v, want [2]", src.nbr[src.rowStart[0]:src.rowStart[1]])
	}
}

func TestInferFromCountsValidation(t *testing.T) {
	sm := matrixFromRows(t, [][]int{{0, 1}, {1, 2}}, 3)
	inc := NewIncrementalCounts(3, false)
	if err := inc.AppendRow([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	// β mismatch: counts hold one row, the matrix two.
	if _, err := InferFromSource(context.Background(), sm, inc.Source(), Options{}); err == nil {
		t.Fatal("beta mismatch accepted")
	}
	if err := inc.AppendRow([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := InferFromSource(context.Background(), sm, inc.Source(), Options{}); err != nil {
		t.Fatalf("matched counts rejected: %v", err)
	}
	// MI-mode mismatch between the counts and the options.
	if _, err := InferFromSource(context.Background(), sm, inc.Source(), Options{TraditionalMI: true}); err == nil {
		t.Fatal("traditional-MI mismatch accepted")
	}
}
