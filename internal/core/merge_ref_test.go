package core

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"
	"testing"
	"time"

	"tends/internal/diffusion"
	"tends/internal/lfr"
)

// The reference merges below are the greedy merges as they were before
// probes were memoized: every probe scores F ∪ W on the partition. The
// search must reproduce them probe for probe.

// probeRecord is one merge probe: the union in scoring order and its parts.
type probeRecord struct {
	union []int
	parts ScoreParts
}

// refMergeState is the memo-free merge state: F as a mask or a map.
type refMergeState struct {
	mask    uint64
	inF     map[int]bool
	parents []int
	buf     []int
}

func newRefMergeState(combos []combo) *refMergeState {
	st := &refMergeState{}
	if len(combos) > 0 && combos[0].mask == 0 {
		st.inF = make(map[int]bool)
	}
	return st
}

func (st *refMergeState) result() []int {
	if len(st.parents) == 0 {
		return nil
	}
	out := slices.Clone(st.parents)
	slices.Sort(out)
	return out
}

func (st *refMergeState) probeUnion(c *combo) []int {
	if st.inF == nil {
		um := st.mask | c.mask
		if um == st.mask || bits.OnesCount64(um) > 63 {
			return nil
		}
		st.buf = append(st.buf[:0], st.parents...)
		rem := c.mask
		newBits := c.mask &^ st.mask
		for _, v := range c.nodes {
			bit := rem & (-rem)
			rem &^= bit
			if newBits&bit != 0 {
				st.buf = append(st.buf, v)
			}
		}
		return st.buf
	}
	union := append(st.buf[:0], st.parents...)
	for _, v := range c.nodes {
		if !st.inF[v] {
			union = append(union, v)
		}
	}
	st.buf = union
	if len(union) == len(st.parents) || len(union) > 63 {
		return nil
	}
	return union
}

func (st *refMergeState) accept(c *combo, union []int) {
	st.parents = append(st.parents, union[len(st.parents):]...)
	if st.inF == nil {
		st.mask |= c.mask
	} else {
		for _, v := range st.parents {
			st.inF[v] = true
		}
	}
}

// refProbe scores a union on the partition and records it.
func refProbe(s *Scorer, pt *partition, st *refMergeState, union []int, log *[]probeRecord) ScoreParts {
	parts := pt.probe(s, union[len(st.parents):])
	*log = append(*log, probeRecord{union: slices.Clone(union), parts: parts})
	return parts
}

func refAdaptiveMerge(s *Scorer, child int, combos []combo, opt Options, log *[]probeRecord) []int {
	st, pt := newRefMergeState(combos), &partition{}
	pt.reset(s, child)
	curScore := pt.score(s).Score()
	emptyScore := curScore
	var h comboHeap
	for i := range combos {
		h = append(h, lazyCombo{c: &combos[i], gain: combos[i].score - emptyScore, round: 0})
	}
	h.init()
	round := 0
	for len(h) > 0 {
		top := &h[0]
		if top.gain <= 0 {
			break
		}
		if top.round != round {
			union := st.probeUnion(top.c)
			if union == nil {
				h.pop()
				continue
			}
			parts := refProbe(s, pt, st, union, log)
			if !opt.DisableBound && !s.BoundHolds(child, len(union), parts.Phi) {
				h.pop()
				continue
			}
			top.gain = parts.Score() - curScore
			top.round = round
			if top.gain <= 0 {
				h.pop()
				continue
			}
			h.down(0, len(h))
			continue
		}
		union := st.probeUnion(top.c)
		if union == nil {
			h.pop()
			continue
		}
		curScore += top.gain
		pt.accept(s, union[len(st.parents):])
		st.accept(top.c, union)
		h.pop()
		round++
	}
	return st.result()
}

func refStaticMerge(s *Scorer, child int, combos []combo, opt Options, log *[]probeRecord) []int {
	slices.SortStableFunc(combos, func(a, b combo) int { return cmp.Compare(b.score, a.score) })
	st, pt := newRefMergeState(combos), &partition{}
	pt.reset(s, child)
	for i := range combos {
		c := &combos[i]
		union := st.probeUnion(c)
		if union == nil {
			continue
		}
		parts := refProbe(s, pt, st, union, log)
		if !opt.DisableBound && !s.BoundHolds(child, len(union), parts.Phi) {
			continue
		}
		pt.accept(s, union[len(st.parents):])
		st.accept(c, union)
	}
	return st.result()
}

// refSearchParents is searchParents over the reference merges, without
// deadlines or cancellation.
func refSearchParents(s *Scorer, child int, cands []int, opt Options, log *[]probeRecord) ([]int, DegradeReason) {
	if len(cands) == 0 {
		return nil, DegradeNone
	}
	combos, reason := enumerateCombos(context.Background(), s, child, cands, opt, time.Time{}, s.newScratch())
	if len(combos) == 0 {
		return nil, reason
	}
	var parents []int
	if opt.StaticGreedy {
		parents = refStaticMerge(s, child, combos, opt, log)
	} else {
		parents = refAdaptiveMerge(s, child, combos, opt, log)
	}
	if opt.BackwardPrune && reason == DegradeNone {
		parents = backwardPrune(s, child, parents)
	}
	return parents, reason
}

// TestMergeMatchesReference runs every node's search against the reference
// merges on LFR diffusions and a dense random matrix, across the options
// that change what the merge sees: both membership paths (a candidate mask
// up to 64 candidates, a map beyond), StaticGreedy, BackwardPrune, per-node
// thresholds, a ComboBudget cut, three-node combinations, DisableBound and
// β off a multiple of 64. Parents, degrade reasons, the probe sequence
// (memo hits included) and each probe's score bits must match, each probe
// must score as LocalScoreParts does from scratch, and Infer's Result.Score
// must equal the reference topology's.
func TestMergeMatchesReference(t *testing.T) {
	net, err := lfr.GenerateBenchmark(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	lfrStatus := func(beta int) *diffusion.StatusMatrix { return simulateOn(t, net.Graph, 0.3, 0.15, beta, int64(beta)) }
	all := math.Inf(-1) // every other node is a candidate
	for _, tc := range []struct {
		name string
		sm   *diffusion.StatusMatrix
		opt  Options
		// mapPath marks the cases whose searches must use map membership.
		mapPath bool
	}{
		{"default β=256", lfrStatus(256), Options{}, false},
		{"default β=333", lfrStatus(333), Options{}, false},
		{"StaticGreedy", lfrStatus(333), Options{StaticGreedy: true}, false},
		{"StaticGreedy DisableBound", lfrStatus(200), Options{StaticGreedy: true, DisableBound: true}, false},
		{"BackwardPrune", lfrStatus(333), Options{BackwardPrune: true}, false},
		{"ThresholdKMeansPerNode", lfrStatus(333), Options{ThresholdMethod: ThresholdKMeansPerNode}, false},
		{"ComboBudget", lfrStatus(333), Options{ComboBudget: 4}, false},
		{"MaxComboSize 3", lfrStatus(200), Options{MaxComboSize: 3}, false},
		{"map membership", densityStatus(97, 70, newTestRand(4)), Options{MaxCandidates: -1, FixedThreshold: &all}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt.withDefaults()
			opt.Workers = 1
			ctx := context.Background()
			imi := denseIMI(tc.sm, opt.TraditionalMI, 1)
			_, tau := selectThreshold(ctx, imi, tc.sm.Beta(), opt)
			s := NewScorer(tc.sm)
			sc := s.newScratch()
			var got []probeRecord
			sc.merge.trace = func(union []int, parts ScoreParts) {
				got = append(got, probeRecord{union: slices.Clone(union), parts: parts})
			}
			refParents := make([][]int, tc.sm.N())
			var probes, hits, degraded, mapped int
			for i := 0; i < tc.sm.N(); i++ {
				nodeTau := tau
				if opt.perNode() {
					nodeTau = imi.nodePool(i).twoMeansTau() * opt.ThresholdScale
				}
				cands := nodeCandidates(imi, i, nodeTau, opt)
				if len(cands) > 64 {
					mapped++
				}
				var want []probeRecord
				wantParents, wantReason := refSearchParents(s, i, cands, opt, &want)
				got = got[:0]
				sc.merge.probes, sc.merge.hits = 0, 0
				parents, reason := searchParents(ctx, s, i, cands, opt, coreTel{}, sc)
				probes += sc.merge.probes
				hits += sc.merge.hits
				if reason != DegradeNone {
					degraded++
				}
				if !slices.Equal(parents, wantParents) || reason != wantReason {
					t.Fatalf("node %d: parents %v (%v), reference %v (%v)", i, parents, reason, wantParents, wantReason)
				}
				if len(got) != len(want) {
					t.Fatalf("node %d: %d probes, reference %d", i, len(got), len(want))
				}
				for k := range want {
					if !slices.Equal(got[k].union, want[k].union) || !sameBits(got[k].parts, want[k].parts) {
						t.Fatalf("node %d probe %d: %v → %+v, reference %v → %+v", i, k, got[k].union, got[k].parts, want[k].union, want[k].parts)
					}
					if scratch := s.LocalScoreParts(i, want[k].union); !sameBits(got[k].parts, scratch) {
						t.Fatalf("node %d probe %d: %v → %+v, LocalScoreParts %+v", i, k, got[k].union, got[k].parts, scratch)
					}
				}
				if a, b := s.LocalScore(i, parents), s.LocalScore(i, wantParents); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("node %d: local score %v, reference %v", i, a, b)
				}
				refParents[i] = wantParents
			}
			switch {
			case tc.mapPath && (mapped == 0 || hits != 0):
				t.Fatalf("map path: %d nodes past 64 candidates, %d memo hits; want some and none", mapped, hits)
			case !tc.mapPath && mapped != 0:
				t.Fatalf("%d nodes past 64 candidates; the case means the mask path", mapped)
			case opt.ComboBudget > 0 && degraded == 0:
				t.Fatal("no node hit the combination budget")
			case probes == 0:
				t.Fatal("no probes computed")
			}
			t.Logf("probes=%d memo hits=%d degraded=%d past-64=%d", probes, hits, degraded, mapped)

			res, err := Infer(tc.sm, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := range refParents {
				if !slices.Equal(res.Parents[i], refParents[i]) {
					t.Fatalf("Infer node %d: parents %v, reference %v", i, res.Parents[i], refParents[i])
				}
			}
			if want := s.TotalScore(refParents); math.Float64bits(res.Score) != math.Float64bits(want) {
				t.Fatalf("Infer score %v, reference %v", res.Score, want)
			}
		})
	}
}
