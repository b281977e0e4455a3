package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tends/internal/diffusion"
)

// FuzzPartitionProbe drives one node's partition through a fuzzed sequence
// of probes and accepts over a fuzzed status matrix, and checks every score
// against LocalScoreParts from scratch, to the bit.
//
// The input's first bytes set β (never a multiple of 64, so the last column
// word is partial), the node count n ≤ 32 and the number of operations.
// Each operation is two bytes: an add of one to three nodes not yet in F,
// picked by rotating through the remaining pool, and whether to accept it.
// The bytes after the operations are XORed over a matrix drawn from a
// generator seeded by the whole input, whose columns range from empty to
// full. Every add is probed through probe; one- and two-node adds also from
// the round tallies, with node ids as candidate positions. After an accept,
// F's own score and the score re-keyed to sorted-parent order are checked.
func FuzzPartitionProbe(f *testing.F) {
	f.Add([]byte{0, 0, 8, 6, 0x81, 3, 0x02, 5, 0x80, 1, 0x01, 2, 0x82, 7, 0x00, 4, 0xff, 0x0f})
	f.Add([]byte{62, 0, 20, 12, 0x81, 9, 0x01, 4, 0x82, 2, 0x00, 11, 0x80, 5, 0x81, 3, 0x02, 8, 0x80, 6, 0x01, 1, 0x81, 0, 0x82, 2, 0x80, 9})
	f.Add([]byte{129, 0, 31, 9, 0x80, 1, 0x81, 2, 0x82, 3, 0x80, 4, 0x81, 5, 0x82, 6, 0x80, 7, 0x01, 8, 0x02, 9, 0xaa, 0x55})
	f.Add([]byte{200, 2, 16, 10, 0x01, 0, 0x02, 1, 0x80, 2, 0x81, 3, 0x00, 4, 0x82, 5, 0x01, 6, 0x80, 7, 0x81, 8, 0x82, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		beta := 1 + (int(data[0])|int(data[1])<<8)%700
		if beta%64 == 0 {
			beta++
		}
		n := 3 + int(data[2])%30
		ops := data[4:]
		ops = ops[:min(len(ops), 2*(int(data[3])%48))]
		s := NewScorer(fuzzStatus(beta, n, data, data[4+len(ops):]))

		const child = 0
		pool := make([]int, n-1)
		for i := range pool {
			pool[i] = i + 1
		}
		pt := &partition{}
		pt.reset(s, child)
		var order []int // F in merge order
		for ; len(ops) >= 2 && len(pool) > 0; ops = ops[2:] {
			m := min(1+int(ops[0]&0x7f)%3, len(pool))
			start := int(ops[1]) % len(pool)
			pool = append(pool[start:], pool[:start]...)
			add := sortedCopy(pool[:m])
			union := slices.Concat(order, add)
			want := s.LocalScoreParts(child, union)
			if got := pt.probe(s, add); !sameBits(got, want) {
				t.Fatalf("β=%d n=%d F=%v add=%v: probe %+v, LocalScoreParts %+v", beta, n, order, add, got, want)
			}
			if m <= 2 {
				var pos uint64
				for _, v := range add {
					pos |= 1 << uint(v)
				}
				if got := pt.probeTallied(s, pos, add); !sameBits(got, want) {
					t.Fatalf("β=%d n=%d F=%v add=%v: tallied probe %+v, LocalScoreParts %+v", beta, n, order, add, got, want)
				}
			}
			if ops[0]&0x80 == 0 {
				continue
			}
			pt.accept(s, add)
			order, pool = union, slices.Clone(pool[m:])
			if got := pt.score(s); !sameBits(got, want) {
				t.Fatalf("β=%d n=%d F=%v: partition %+v, LocalScoreParts %+v", beta, n, order, got, want)
			}
			sorted := sortedCopy(order)
			if got, want := pt.sortedScore(s, order), s.LocalScoreParts(child, sorted); !sameBits(got, want) {
				t.Fatalf("β=%d n=%d F=%v: sorted score %+v, LocalScoreParts(%v) %+v", beta, n, order, got, sorted, want)
			}
		}
	})
}

// fuzzStatus builds a β×n status matrix from a generator seeded by data,
// each column at its own density (every fifth empty, every fifth full),
// with the bytes of over XORed onto its bits in process-major order.
func fuzzStatus(beta, n int, data, over []byte) *diffusion.StatusMatrix {
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	density := make([]float64, n)
	for v := range density {
		switch v % 5 {
		case 0:
			density[v] = 0
		case 1:
			density[v] = 1
		default:
			density[v] = rng.Float64()
		}
	}
	m := diffusion.NewStatusMatrix(beta, n)
	for p := 0; p < beta; p++ {
		for v := 0; v < n; v++ {
			bit := rng.Float64() < density[v]
			if i := p*n + v; i/8 < len(over) && over[i/8]>>uint(i%8)&1 != 0 {
				bit = !bit
			}
			m.Set(p, v, bit)
		}
	}
	return m
}

// FuzzSparseFilteredBuild checks the filtered builds that inference runs
// against the full builds, and the two counting steps against each other.
// The input's first bytes set β ≤ 96 (small enough that single-cascade
// pairs can clear τ), the node count n ≤ 41, the worker count, the IMI
// variant and a floor pick; the rest shapes a fuzzStatus matrix. The full
// builds by popcount and by the cascade walk must store the same rows,
// neighbors and value bits, and the same pool. At the inference floor
// (keepFloor of the selected τ) and at a floor picked from the value pool,
// including one above every value, the filtered build by either step must
// keep exactly the full engine's rows filtered at that floor, neighbors
// and value bits. Every build's pool must equal the full walk's, and both
// filtered builds must select its τ bit for bit.
func FuzzSparseFilteredBuild(f *testing.F) {
	f.Add([]byte{40, 20, 0, 3, 0x5a, 0xa5})
	f.Add([]byte{7, 12, 1, 0, 0xff, 0x00, 0x0f})
	f.Add([]byte{95, 40, 0x83, 9, 0x11, 0x22, 0x33, 0x44})
	f.Add([]byte{63, 33, 2, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		beta, n := 1+int(data[0])%96, 2+int(data[1])%40
		workers, traditional := 1+int(data[2]&0x7f)%4, data[2]&0x80 != 0
		sm := fuzzStatus(beta, n, data, data[4:])
		ctx := context.Background()
		opt := Options{TraditionalMI: traditional}.withDefaults()
		name := fmt.Sprintf("β=%d n=%d trad=%v workers=%d", beta, n, traditional, workers)
		full, err := buildSparse(ctx, NewScorer(sm), traditional, workers, walkStep, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, fullTau := selectThreshold(ctx, full, beta, opt)
		popped, err := buildSparse(ctx, NewScorer(sm), traditional, workers, popcountStep, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameRows(full, popped); d != "" {
			t.Fatalf("%s: full builds, walk vs popcount: %s", name, d)
		}
		if d := samePool(full.pool, popped.pool); d != "" {
			t.Fatalf("%s: full builds' pools, walk vs popcount: %s", name, d)
		}
		check := func(what string, selectFloor func(*SparseIMI) float64) {
			for _, step := range []countStep{walkStep, popcountStep} {
				filt, err := buildSparse(ctx, NewScorer(sm), traditional, workers, step, selectFloor)
				if err != nil {
					t.Fatal(err)
				}
				if d := keptRowsMatch(full, filt); d != "" {
					t.Fatalf("%s %v, %s floor %v (n11 ≥ %d): %s",
						name, step, what, filt.floor, filt.minKeptJoint(filt.floor), d)
				}
				if d := samePool(full.pool, filt.pool); d != "" {
					t.Fatalf("%s %v: %s build's pool vs the full walk's: %s", name, step, what, d)
				}
			}
		}
		var taus []float64
		check("inference", func(s *SparseIMI) float64 {
			_, tau := selectThreshold(ctx, s, beta, opt)
			taus = append(taus, tau)
			return s.keepFloor(tau, false)
		})
		for _, tau := range taus {
			if math.Float64bits(tau) != math.Float64bits(fullTau) {
				t.Fatalf("%s: filtered builds' τ %v, full walk's τ %v", name, taus, fullTau)
			}
		}
		pos := full.pool.pos
		floor := full.pool.maxAll
		if k := int(data[3]) % (len(pos) + 1); k < len(pos) {
			floor = pos[k]
		}
		check("picked", func(*SparseIMI) float64 { return floor })
	})
}

// keptRowsMatch reports the first row in which filt differs from full's
// row filtered at filt's floor, or "" when every row matches.
func keptRowsMatch(full, filt *SparseIMI) string {
	for v := 0; v < full.n; v++ {
		var nbr []int32
		var val []float64
		for k := full.rowStart[v]; k < full.rowStart[v+1]; k++ {
			if full.val[k] > filt.floor {
				nbr, val = append(nbr, full.nbr[k]), append(val, full.val[k])
			}
		}
		lo, hi := filt.rowStart[v], filt.rowStart[v+1]
		if !slices.Equal(nbr, filt.nbr[lo:hi]) || !slices.EqualFunc(val, filt.val[lo:hi], func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			return fmt.Sprintf("row %d: kept %v %v, want %v %v", v, filt.nbr[lo:hi], filt.val[lo:hi], nbr, val)
		}
	}
	return ""
}

// TestPopcountReplaySaturates runs the filtered popcount build where joint
// counts pass the 255 its walk-2 bytes hold, at β = 700: over columns from
// empty to full, whose joint counts run from 0 to 700, and over dense
// columns, whose joint counts all pass 255. At every floor picked from the
// full walk's value pool, which together need joint counts on both sides
// of 255, the filtered build must keep exactly the full build's rows cut
// at that floor, under IMI and traditional MI, at 1 and 3 workers.
func TestPopcountReplaySaturates(t *testing.T) {
	const beta = 700
	ctx := context.Background()
	for _, traditional := range []bool{false, true} {
		var below, above bool
		for _, sm := range []*diffusion.StatusMatrix{
			fuzzStatus(beta, 15, []byte{7, 0, 255}, nil),
			sparseRandomStatus(12, beta, 0.85, 9),
		} {
			full, err := buildSparse(ctx, NewScorer(sm), traditional, 1, walkStep, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				for _, floor := range full.pool.pos {
					filt, err := buildSparse(ctx, NewScorer(sm), traditional, workers, popcountStep, func(*SparseIMI) float64 { return floor })
					if err != nil {
						t.Fatal(err)
					}
					need := filt.minKeptJoint(floor)
					if d := keptRowsMatch(full, filt); d != "" {
						t.Fatalf("trad=%v workers=%d floor %v (n11 ≥ %d): %s", traditional, workers, floor, need, d)
					}
					below, above = below || need <= 255, above || (need > 255 && need < math.MaxInt32)
				}
			}
		}
		if !below || !above {
			t.Fatalf("trad=%v: floors needed joint counts ≤ 255: %v, > 255: %v; the test needs both", traditional, below, above)
		}
	}
}
