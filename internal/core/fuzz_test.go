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

// FuzzSparseFilteredBuild checks the filtered sparse build that inference
// runs against the full sparse build and the dense engine. The input's
// first bytes set β ≤ 96 (small enough that single-cascade pairs can clear
// τ), the node count n ≤ 41, the worker count, the IMI variant and a floor
// pick; the rest shapes a fuzzStatus matrix. At the inference floor
// (keepFloor of the selected τ) and at a floor picked from the value pool,
// including one above every value, the filtered build must keep exactly the
// full engine's rows filtered at that floor, neighbors and value bits. Its
// pool must equal the dense engine's and give the dense τ bit for bit.
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
		dense := ComputeIMI(sm, traditional)
		_, denseTau := selectThreshold(ctx, dense, beta, opt)
		full, err := ComputeSparseIMIContext(ctx, sm, traditional, workers)
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, selectFloor func(*SparseIMI) float64) {
			filt, err := buildSparse(ctx, NewScorer(sm), traditional, workers, selectFloor)
			if err != nil {
				t.Fatal(err)
			}
			if d := keptRowsMatch(full, filt); d != "" {
				t.Fatalf("β=%d n=%d trad=%v workers=%d, %s floor %v (n11 ≥ %d): %s",
					beta, n, traditional, workers, what, filt.floor, filt.minKeptJoint(filt.floor), d)
			}
			if d := samePool(dense.valuePool(), filt.pool); d != "" {
				t.Fatalf("β=%d n=%d trad=%v: %s build's pool vs dense: %s", beta, n, traditional, what, d)
			}
		}
		var tau float64
		check("inference", func(s *SparseIMI) float64 {
			_, tau = selectThreshold(ctx, s, beta, opt)
			return s.keepFloor(tau, false)
		})
		if math.Float64bits(tau) != math.Float64bits(denseTau) {
			t.Fatalf("β=%d n=%d trad=%v: filtered build's τ %v, dense τ %v", beta, n, traditional, tau, denseTau)
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
