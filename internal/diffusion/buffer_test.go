package diffusion

import (
	"math/rand"
	"testing"
)

// checkTailBits fails t unless every column's bits at or past β are zero.
// Readers of Column and ColumnData count whole words without masking the
// last one, so no bit past the last process may ever be set.
func checkTailBits(t *testing.T, m *StatusMatrix) {
	t.Helper()
	r := m.Beta() % 64
	if r == 0 {
		return // no column has bits past β
	}
	for v := 0; v < m.N(); v++ {
		if col := m.Column(v); col[len(col)-1]>>r != 0 {
			t.Fatalf("column %d has bits set at or past β=%d: last word %#x", v, m.Beta(), col[len(col)-1])
		}
	}
}

func TestStatusBufferMatchesMatrix(t *testing.T) {
	const n, beta = 23, 40
	rng := rand.New(rand.NewSource(11))
	buf := NewStatusBuffer(n)
	want := NewStatusMatrix(beta, n)
	for p := 0; p < beta; p++ {
		var row []int32
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				row = append(row, int32(v))
				want.Set(p, v, true)
			}
		}
		// Shuffle: Append must canonicalize order itself.
		rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
		if err := buf.Append(row); err != nil {
			t.Fatalf("append row %d: %v", p, err)
		}
	}
	got := buf.Matrix()
	if got.Beta() != beta || got.N() != n {
		t.Fatalf("matrix dims %dx%d, want %dx%d", got.Beta(), got.N(), beta, n)
	}
	for p := 0; p < beta; p++ {
		for v := 0; v < n; v++ {
			if got.Get(p, v) != want.Get(p, v) {
				t.Fatalf("bit (%d,%d) = %v, want %v", p, v, got.Get(p, v), want.Get(p, v))
			}
		}
	}
	checkTailBits(t, got)
}

func TestStatusBufferRejectsDirtyRows(t *testing.T) {
	buf := NewStatusBuffer(4)
	if err := buf.Append([]int32{3, 0}); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	if err := buf.Append([]int32{4}); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if err := buf.Append([]int32{-1}); err == nil {
		t.Fatal("negative id accepted")
	}
	if err := buf.Append([]int32{1, 1}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if buf.Beta() != 1 || buf.TotalInfected() != 2 {
		t.Fatalf("beta=%d total=%d after rejects, want 1/2", buf.Beta(), buf.TotalInfected())
	}
	if row := buf.Row(0); len(row) != 2 || row[0] != 0 || row[1] != 3 {
		t.Fatalf("row 0 = %v, want [0 3]", row)
	}
}
