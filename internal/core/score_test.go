package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tends/internal/diffusion"
)

// randomStatus builds a random beta×n status matrix from a seed.
func randomStatus(beta, n int, seed int64) *diffusion.StatusMatrix {
	rng := rand.New(rand.NewSource(seed))
	m := diffusion.NewStatusMatrix(beta, n)
	for p := 0; p < beta; p++ {
		for v := 0; v < n; v++ {
			m.Set(p, v, rng.Intn(2) == 1)
		}
	}
	return m
}

// Lemma 1: (b/a)^b <= (b1/a1)^b1 * (b2/a2)^b2 for non-negative integers
// with a=a1+a2, b=b1+b2. Verified in log space with the 0·log0 convention.
func TestLemma1Property(t *testing.T) {
	logTerm := func(b, a int) float64 {
		if b == 0 {
			return 0
		}
		return float64(b) * math.Log2(float64(b)/float64(a))
	}
	f := func(a1Raw, a2Raw, b1Raw, b2Raw uint8) bool {
		a1, a2 := int(a1Raw%50)+1, int(a2Raw%50)+1
		b1, b2 := int(b1Raw)%(a1+1), int(b2Raw)%(a2+1)
		lhs := logTerm(b1+b2, a1+a2)
		rhs := logTerm(b1, a1) + logTerm(b2, a2)
		return lhs <= rhs+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 1: adding any node to a parent set never decreases the
// log-likelihood part of the local score.
func TestTheorem1LikelihoodMonotone(t *testing.T) {
	f := func(seed int64, childRaw, extraRaw uint8) bool {
		const n = 6
		m := randomStatus(40, n, seed)
		s := NewScorer(m)
		child := int(childRaw) % n
		extra := int(extraRaw) % n
		if extra == child {
			extra = (extra + 1) % n
		}
		base := []int{(child + 1) % n}
		if base[0] == extra {
			base[0] = (extra + 1) % n
			if base[0] == child {
				base[0] = (base[0] + 1) % n
			}
		}
		withExtra := append(append([]int(nil), base...), extra)
		l0 := s.LocalScoreParts(child, base).LogLikelihood
		l1 := s.LocalScoreParts(child, withExtra).LogLikelihood
		return l1 >= l0-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The empty-set score must match Eq. (18) exactly.
func TestEmptySetScoreEq18(t *testing.T) {
	m := randomStatus(100, 3, 3)
	s := NewScorer(m)
	for child := 0; child < 3; child++ {
		n2 := 0
		for p := 0; p < 100; p++ {
			if m.Get(p, child) {
				n2++
			}
		}
		n1 := 100 - n2
		want := -0.5 * math.Log2(101)
		if n1 > 0 {
			want += float64(n1) * math.Log2(float64(n1)/100)
		}
		if n2 > 0 {
			want += float64(n2) * math.Log2(float64(n2)/100)
		}
		if got := s.LocalScore(child, nil); math.Abs(got-want) > 1e-9 {
			t.Fatalf("child %d: empty score = %v, want %v", child, got, want)
		}
	}
}

func TestDeltaFormula(t *testing.T) {
	// β=150, N2=75: δ = 2·75·1 + 2·75·1 + log2(151)
	want := 300 + math.Log2(151)
	if got := delta(150, 75); math.Abs(got-want) > 1e-9 {
		t.Fatalf("delta(150,75) = %v, want %v", got, want)
	}
	// Degenerate columns: only the log term remains.
	if got := delta(150, 0); math.Abs(got-math.Log2(151)) > 1e-9 {
		t.Fatalf("delta(150,0) = %v, want %v", got, math.Log2(151))
	}
	if got := delta(150, 150); math.Abs(got-math.Log2(151)) > 1e-9 {
		t.Fatalf("delta(150,150) = %v, want %v", got, math.Log2(151))
	}
}

// NewScorer reads the matrix's columns in place: a column is the matrix's
// own storage, and building a scorer over four times the nodes costs no
// more allocations, so no per-node copy is made.
func TestNewScorerAliasesMatrix(t *testing.T) {
	const beta = 150
	m := randomStatus(beta, 64, 1)
	s := NewScorer(m)
	for v := 0; v < m.N(); v++ {
		if &s.col(v)[0] != &m.Column(v)[0] {
			t.Fatalf("column %d is a copy, not the matrix's storage", v)
		}
	}
	allocs := func(n int) float64 {
		m := randomStatus(beta, n, 2)
		return testing.AllocsPerRun(10, func() { NewScorer(m) })
	}
	if small, large := allocs(64), allocs(1024); small != large {
		t.Fatalf("NewScorer allocates %v times at n=64 but %v at n=1024, want the same", small, large)
	}
}

// naiveScoreParts recomputes the local score components directly from the
// definition, bucketing processes by parent-status combination.
func naiveScoreParts(m *diffusion.StatusMatrix, child int, parents []int) ScoreParts {
	counts := map[uint64][2]int{}
	for p := 0; p < m.Beta(); p++ {
		var key uint64
		for bi, par := range parents {
			if m.Get(p, par) {
				key |= 1 << uint(bi)
			}
		}
		cc := counts[key]
		if m.Get(p, child) {
			cc[1]++
		} else {
			cc[0]++
		}
		counts[key] = cc
	}
	var parts ScoreParts
	for _, cc := range counts {
		parts.addCombo(cc[0], cc[1])
	}
	parts.Phi = math.Exp2(float64(len(parents))) - float64(parts.Observed)
	return parts
}

// Both scoring paths (packed masks for small parent sets, the sorted
// partition for large ones) must agree with the naive definition.
func TestScorePartsMatchNaive(t *testing.T) {
	f := func(seed int64, betaRaw uint8, parentCount uint8) bool {
		const n = 9
		beta := int(betaRaw%120) + 1
		m := randomStatus(beta, n, seed)
		s := NewScorer(m)
		k := int(parentCount % 8)
		parents := make([]int, 0, k)
		for j := 1; j <= k; j++ {
			parents = append(parents, j)
		}
		got := s.LocalScoreParts(0, parents)
		want := naiveScoreParts(m, 0, parents)
		return math.Abs(got.LogLikelihood-want.LogLikelihood) < 1e-9 &&
			math.Abs(got.Penalty-want.Penalty) < 1e-9 &&
			got.Observed == want.Observed &&
			got.Phi == want.Phi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// tableAddCombo is the scorer's table-backed fold in its branching form: it
// skips empty combinations and count-0 terms instead of adding ±0 for them.
// The oracle below folds through it, so the scoring paths' branch-free fold
// is held to it bit for bit.
func tableAddCombo(s *Scorer, parts *ScoreParts, k0, k1 int) {
	nij := k0 + k1
	if nij == 0 {
		return
	}
	ln := s.logs[nij]
	if k0 > 0 {
		parts.LogLikelihood += float64(k0) * (s.logs[k0] - ln)
	}
	if k1 > 0 {
		parts.LogLikelihood += float64(k1) * (s.logs[k1] - ln)
	}
	parts.Penalty += 0.5 * s.logs[nij+1]
	parts.Observed++
}

// referenceCombos is the per-process bucketing scorer the partition path
// replaced: one map entry per observed parent-status key over all β
// processes, folded in sorted-key order through tableAddCombo. It is the
// oracle the exact paths are held to bit for bit.
func referenceCombos(s *Scorer, child int, parents []int, parts *ScoreParts) {
	counts := make(map[uint64][2]int)
	childCol := s.col(child)
	for p := 0; p < s.beta; p++ {
		w, b := p/64, uint(p%64)
		var key uint64
		for i, par := range parents {
			if s.col(par)[w]&(1<<b) != 0 {
				key |= 1 << uint(i)
			}
		}
		cc := counts[key]
		if childCol[w]&(1<<b) != 0 {
			cc[1]++
		} else {
			cc[0]++
		}
		counts[key] = cc
	}
	keys := make([]uint64, 0, len(counts))
	for key := range counts {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		tableAddCombo(s, parts, counts[key][0], counts[key][1])
	}
}

// referenceParts is LocalScoreParts computed through referenceCombos.
func referenceParts(s *Scorer, child int, parents []int) ScoreParts {
	var parts ScoreParts
	referenceCombos(s, child, parents, &parts)
	s.finishParts(len(parents), &parts)
	return parts
}

// sameBits reports whether two evaluations agree to the bit.
func sameBits(a, b ScoreParts) bool {
	return math.Float64bits(a.LogLikelihood) == math.Float64bits(b.LogLikelihood) &&
		math.Float64bits(a.Penalty) == math.Float64bits(b.Penalty) &&
		a.Observed == b.Observed &&
		math.Float64bits(a.Phi) == math.Float64bits(b.Phi)
}

// densityStatus builds a beta×n status matrix whose columns span densities
// from empty to saturated: every fifth column is empty, every fifth full,
// and the rest sparse, half-set, or of a random density.
func densityStatus(beta, n int, rng *rand.Rand) *diffusion.StatusMatrix {
	m := diffusion.NewStatusMatrix(beta, n)
	for v := 0; v < n; v++ {
		var d float64
		switch v % 5 {
		case 0:
			d = 0
		case 1:
			d = 1
		case 2:
			d = 0.03
		case 3:
			d = 0.5
		default:
			d = rng.Float64()
		}
		for p := 0; p < beta; p++ {
			if rng.Float64() < d {
				m.Set(p, v, true)
			}
		}
	}
	return m
}

var oracleBetas = []int{1, 63, 64, 65, 130, 1024}

// Force both internal paths explicitly across the word boundary (beta > 64)
// and check they agree with each other and with the reference to the bit.
func TestScorePathsAgreeAcrossWordBoundary(t *testing.T) {
	for _, beta := range []int{63, 64, 65, 128, 130} {
		m := randomStatus(beta, 10, int64(beta))
		s := NewScorer(m)
		sc := s.newScratch()
		for k := 0; k <= 6; k++ {
			parents := make([]int, 0, k)
			for j := 1; j <= k; j++ {
				parents = append(parents, j)
			}
			packed := s.parts(s.packedCombos(0, parents, sc), k)
			generic := s.parts(s.genericCombos(0, parents, sc), k)
			ref := referenceParts(s, 0, parents)
			if !sameBits(packed, generic) || !sameBits(packed, ref) {
				t.Fatalf("beta=%d k=%d: packed=%+v generic=%+v reference=%+v", beta, k, packed, generic, ref)
			}
		}
	}
}

// LocalScoreParts must equal the map-based reference to the bit for every
// parent-set size from 0 to 20 and columns from empty to saturated.
func TestLocalScorePartsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 30
	for _, beta := range oracleBetas {
		s := NewScorer(densityStatus(beta, n, rng))
		for trial := 0; trial < 40; trial++ {
			perm := rng.Perm(n)
			child := perm[0]
			for k := 0; k <= 20; k++ {
				parents := perm[1 : 1+k]
				got := s.LocalScoreParts(child, parents)
				if want := referenceParts(s, child, parents); !sameBits(got, want) {
					t.Fatalf("beta=%d child=%d parents=%v: got %+v, reference %+v", beta, child, parents, got, want)
				}
			}
		}
	}
}

// Random probe/accept sequences over one node's partition: every probe of
// F ∪ W, with W adding up to four nodes, and every committed F must score
// exactly as LocalScoreParts does from scratch, through both of the probe's
// orderings (slot counting and sorting).
//
// One- and two-node adds are also probed from the round tallies, with each
// node's id as its candidate position, as the merge probes them: the nodes
// in ascending order. Every such add is probed twice, so later probes of a
// round read tallies earlier ones built, and after each accept the tallies
// must be dropped with the count buffers zero again.
func TestPartitionProbesMatchLocalScoreParts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 40
	var reused int
	for _, beta := range oracleBetas {
		s := NewScorer(densityStatus(beta, n, rng))
		sc := s.newScratch()
		for trial := 0; trial < 12; trial++ {
			perm := rng.Perm(n)
			child, pool := perm[0], perm[1:]
			pt := &sc.part
			pt.reset(s, child)
			var f []int
			for len(pool) > 0 {
				if got, want := pt.score(s), s.LocalScoreParts(child, f); !sameBits(got, want) {
					t.Fatalf("beta=%d child=%d F=%v: partition %+v, LocalScoreParts %+v", beta, child, f, got, want)
				}
				w := min(1+rng.Intn(4), len(pool))
				add := pool[:w]
				union := slices.Concat(f, add)
				want := s.LocalScoreParts(child, union)
				for i, probe := range []func(*Scorer, []int) ScoreParts{pt.probe, pt.probeCounted, pt.probeSorted} {
					if got := probe(s, add); !sameBits(got, want) {
						t.Fatalf("beta=%d child=%d probe path %d, F∪W=%v: partition %+v, LocalScoreParts %+v", beta, child, i, union, got, want)
					}
				}
				if w <= 2 {
					tadd := sortedCopy(add)
					want := s.LocalScoreParts(child, slices.Concat(f, tadd))
					var pos uint64
					for _, v := range tadd {
						pos |= 1 << uint(v)
					}
					for rep := 0; rep < 2; rep++ {
						before := pt.built
						if got := pt.probeTallied(s, pos, tadd); !sameBits(got, want) {
							t.Fatalf("beta=%d child=%d tallied probe %d, F∪W=%v: partition %+v, LocalScoreParts %+v",
								beta, child, rep, slices.Concat(f, tadd), got, want)
						}
						if pt.built == before {
							reused++
						}
					}
				}
				if rng.Intn(3) == 0 {
					pt.accept(s, add)
					f, pool = union, pool[w:]
					zero := func(c int32) bool { return c == 0 }
					if pt.live != 0 || len(pt.tallies) != 0 || !allOf(pt.cnt, zero) ||
						!allOf(pt.seen, func(x uint64) bool { return x == 0 }) {
						t.Fatalf("beta=%d child=%d: accept of %v left tallies live or buffers nonzero", beta, child, add)
					}
				} else {
					rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
				}
			}
		}
	}
	if reused == 0 {
		t.Fatal("no tallied probe reused a tally; the test needs some to")
	}
}

// TestSortedScoreMatchesLocalScoreParts builds partitions by accepting
// nodes in shuffled orders, one to four at a time, and checks after every
// accept that the score read from the classes re-keyed to ascending-node
// order equals LocalScoreParts on the sorted parents to the bit.
func TestSortedScoreMatchesLocalScoreParts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 48
	for _, beta := range oracleBetas {
		s := NewScorer(densityStatus(beta, n, rng))
		pt := &partition{}
		for trial := 0; trial < 10; trial++ {
			perm := rng.Perm(n)
			child, pool := perm[0], perm[1:min(n, 1+rng.Intn(24))]
			pt.reset(s, child)
			var order []int
			for len(pool) > 0 {
				w := min(1+rng.Intn(4), len(pool))
				pt.accept(s, pool[:w])
				order, pool = slices.Concat(order, pool[:w]), pool[w:]
				sorted := sortedCopy(order)
				if got, want := pt.sortedScore(s, order), s.LocalScoreParts(child, sorted); !sameBits(got, want) {
					t.Fatalf("beta=%d child=%d merge order %v: partition %+v, LocalScoreParts %+v", beta, child, order, got, want)
				}
			}
		}
	}
}

// TestAcceptPathsAgree commits random adds to one node's partition: one-node
// and multi-node adds, adds that empty classes, and adds that accept puts in
// key order by sorting (16 or more nodes, or more slots than the probe's
// budget). Each add is committed through accept, through acceptSorted, and
// through acceptCounted where its slots fit. After every commit the classes
// (key, k0, k1) and procSlot must equal the partition rebuilt from scratch
// for F, and the count buffers must be zero again.
func TestAcceptPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 80
	var counted, multi, emptied, sortedWide, sortedBudget int
	for _, beta := range []int{1, 63, 64, 65, 130, 700} {
		s := NewScorer(densityStatus(beta, n, rng))
		for trial := 0; trial < 10; trial++ {
			perm := rng.Perm(n)
			child, pool := perm[0], perm[1:]
			pt := &partition{}
			pt.reset(s, child)
			var f []int
			for len(pool) > 0 && len(f) < 63 {
				m := 1
				switch r := rng.Intn(8); {
				case r == 0:
					m = 16 + rng.Intn(4)
				case r >= 4:
					m = 2 + rng.Intn(5)
				}
				m = min(m, len(pool), 63-len(f))
				add := pool[:m]
				f, pool = slices.Concat(f, add), pool[m:]
				wantClasses, wantSlots := rebuiltPartition(s, child, f)
				check := func(path string, got *partition) {
					t.Helper()
					if got.f != len(f) || !slices.Equal(got.classes, wantClasses) || !slices.Equal(got.procSlot, wantSlots) {
						t.Fatalf("beta=%d child=%d %s of %v onto %v: f=%d classes %v procSlot %v; rebuilt classes %v procSlot %v",
							beta, child, path, add, f[:len(f)-m], got.f, got.classes, got.procSlot, wantClasses, wantSlots)
					}
					zero := func(x uint64) bool { return x == 0 }
					if !allOf(got.cnt, func(c int32) bool { return c == 0 }) || !allOf(got.seen, zero) || !allOf(got.newBits, zero) {
						t.Fatalf("beta=%d child=%d %s of %v left count buffers nonzero", beta, child, path, add)
					}
				}
				if m > 1 {
					multi++
				}
				if keptAll := allOf(pt.classes, func(c class) bool {
					_, found := slices.BinarySearchFunc(wantClasses, c.key, func(w class, key uint64) int { return cmp.Compare(w.key, key) })
					return found
				}); !keptAll {
					emptied++
				}
				switch {
				case pt.counted(s, add):
					counted++
				case m >= 16:
					sortedWide++
				default:
					sortedBudget++
				}
				sorted := clonePartition(pt)
				sorted.acceptSorted(s, add)
				check("acceptSorted", sorted)
				if m < 16 && (1<<m-1)*len(pt.classes) <= 1<<16 {
					byCount := clonePartition(pt)
					byCount.acceptCounted(s, add)
					check("acceptCounted", byCount)
				}
				pt.accept(s, add)
				check("accept", pt)
			}
		}
	}
	t.Logf("adds: %d counted, %d multi-node, %d emptied a class, %d sorted with 16+ nodes, %d sorted over the slot budget",
		counted, multi, emptied, sortedWide, sortedBudget)
	if counted == 0 || multi == 0 || emptied == 0 || sortedWide == 0 || sortedBudget == 0 {
		t.Fatal("the random adds missed a path; the test needs every one")
	}
}

// rebuiltPartition builds the classes and procSlot of child's partition under
// F from scratch: each process keyed by which of F's nodes infect it (f[i]
// at bit i), the distinct keys ascending.
func rebuiltPartition(s *Scorer, child int, f []int) ([]class, []int32) {
	keys := make([]uint64, s.beta)
	for i, v := range f {
		for _, p := range s.infected(v) {
			keys[p] |= 1 << uint(i)
		}
	}
	distinct := slices.Clone(keys)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	classes := make([]class, len(distinct))
	procSlot := make([]int32, s.beta)
	for p, key := range keys {
		c, _ := slices.BinarySearch(distinct, key)
		classes[c].key = key
		bit := int32(s.col(child)[p/64] >> uint(p%64) & 1)
		if bit != 0 {
			classes[c].k1++
		} else {
			classes[c].k0++
		}
		procSlot[p] = int32(c)<<1 | bit
	}
	return classes, procSlot
}

// clonePartition copies a partition's state into fresh working buffers.
func clonePartition(pt *partition) *partition {
	return &partition{
		f:        pt.f,
		classes:  slices.Clone(pt.classes),
		procSlot: slices.Clone(pt.procSlot),
		newKey:   make([]uint64, len(pt.procSlot)),
		newBits:  make([]uint64, len(pt.procSlot)),
	}
}

// sortedCopy returns xs sorted, leaving xs as it is.
func sortedCopy(xs []int) []int {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// allOf reports whether pred holds for every element of xs.
func allOf[T any](xs []T, pred func(T) bool) bool {
	return !slices.ContainsFunc(xs, func(x T) bool { return !pred(x) })
}

// Decomposability: g(T) equals the sum of local scores.
func TestTotalScoreDecomposable(t *testing.T) {
	m := randomStatus(60, 5, 7)
	s := NewScorer(m)
	parents := [][]int{{1}, {0, 2}, nil, {4}, {0}}
	var sum float64
	for i, f := range parents {
		sum += s.LocalScore(i, f)
	}
	if got := s.TotalScore(parents); math.Abs(got-sum) > 1e-9 {
		t.Fatalf("TotalScore = %v, want %v", got, sum)
	}
}

// Penalty controls overfitting in the regime the algorithm actually
// explores: adding an independent (bogus) parent to a small set loses to
// the smaller set, because the likelihood gain is negligible while the
// combination count — and so the penalty — doubles.
func TestPenaltyControlsOverfit(t *testing.T) {
	// All columns independent coin flips: no real parents exist.
	m := randomStatus(200, 8, 9)
	s := NewScorer(m)
	child := 0
	empty := s.LocalScore(child, nil)
	one := s.LocalScore(child, []int{1})
	two := s.LocalScore(child, []int{1, 2})
	if one >= empty {
		t.Fatalf("1 bogus parent scored %v >= empty %v; penalty too weak", one, empty)
	}
	if two >= one {
		t.Fatalf("2 bogus parents scored %v >= one %v; penalty too weak", two, one)
	}
}

// In the memorization regime (2^|F| comparable to β) the likelihood can
// outrun the per-combination penalty; Theorem 2's bound plus IMI pruning —
// not the penalty alone — are what keep inference sparse there. Document
// that end to end: Infer on pure noise stays near-empty even though a huge
// bogus parent set can out-score the empty set locally.
func TestOverfitRegimeHandledByPruning(t *testing.T) {
	m := randomStatus(80, 8, 9)
	s := NewScorer(m)
	if full := s.LocalScore(0, []int{1, 2, 3, 4, 5, 6, 7}); full <= s.LocalScore(0, nil) {
		t.Skip("data did not exhibit the memorization regime; nothing to document")
	}
	res, err := Infer(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumEdges() > 4 {
		t.Fatalf("Infer on pure noise produced %d edges; pruning failed to contain overfitting", res.Graph.NumEdges())
	}
}

// TestBoundHoldsFastPath checks that boundHolds, which decides most sizes
// and arguments without a logarithm, agrees with the plain rule
// k ≤ log₂(arg) at the floats next to every power of two and next to the
// fast path's lower cut-off, for every set size near them, and on random
// sizes and arguments, zero, negative and non-finite ones included.
func TestBoundHoldsFastPath(t *testing.T) {
	plain := func(k int, arg float64) bool { return arg > 0 && float64(k) <= math.Log2(arg) }
	check := func(k int, arg float64) {
		t.Helper()
		if got, want := boundHolds(k, arg), plain(k, arg); got != want {
			t.Fatalf("k=%d arg=%v (%x): boundHolds %v, plain rule %v", k, arg, math.Float64bits(arg), got, want)
		}
	}
	for e := 1; e <= 61; e++ {
		p := math.Ldexp(1, e)
		for _, center := range []float64{p, p * (1 - 1e-9)} {
			for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
				x := center
				for step := 0; step < 4; step++ {
					for k := max(1, e-2); k <= e+2; k++ {
						check(k, x)
					}
					x = math.Nextafter(x, dir)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		k := 1 + rng.Intn(70)
		arg := math.Ldexp(rng.Float64(), rng.Intn(80)-4)
		if rng.Intn(10) == 0 {
			arg = -arg
		}
		check(k, arg)
	}
	for _, arg := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64} {
		for _, k := range []int{1, 2, 63, 999, 1000, 1100} {
			check(k, arg)
		}
	}
}

func TestBoundHolds(t *testing.T) {
	m := randomStatus(150, 4, 11)
	s := NewScorer(m)
	if !s.BoundHolds(0, 0, 0) {
		t.Fatal("empty set must always satisfy the bound")
	}
	// δ for a random balanced column is ≈ 300; a single parent with φ=0
	// needs 1 <= log2(300) ≈ 8.2 — holds.
	if !s.BoundHolds(0, 1, 0) {
		t.Fatal("size-1 bound should hold for balanced data")
	}
	// Astronomically large set with tiny φ+δ must fail.
	if s.BoundHolds(0, 60, -s.Delta(0)+0.5) {
		t.Fatal("bound held for absurd set size")
	}
}

func TestScorerAccessors(t *testing.T) {
	m := randomStatus(33, 4, 13)
	s := NewScorer(m)
	if s.Beta() != 33 || s.N() != 4 {
		t.Fatalf("dims = %d,%d", s.Beta(), s.N())
	}
	for v := 0; v < 4; v++ {
		if s.Delta(v) <= 0 {
			t.Fatalf("delta(%d) = %v, want positive", v, s.Delta(v))
		}
	}
}

func TestLocalScorePartsPhi(t *testing.T) {
	// Construct data where one parent combination never occurs.
	m := diffusion.NewStatusMatrix(10, 3)
	for p := 0; p < 10; p++ {
		m.Set(p, 1, true) // parent 1 always infected
	}
	s := NewScorer(m)
	parts := s.LocalScoreParts(0, []int{1, 2})
	// Parent 2 always 0, parent 1 always 1 → only one combination observed,
	// so φ = 4 - 1 = 3.
	if parts.Observed != 1 || parts.Phi != 3 {
		t.Fatalf("observed=%d phi=%v, want 1 and 3", parts.Observed, parts.Phi)
	}
}

func TestLocalScorePanicsOnHugeParentSet(t *testing.T) {
	m := randomStatus(4, 70, 1)
	s := NewScorer(m)
	parents := make([]int, 64)
	for i := range parents {
		parents[i] = i + 1
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 64 parents")
		}
	}()
	s.LocalScoreParts(0, parents)
}
