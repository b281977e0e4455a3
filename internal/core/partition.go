package core

import (
	"cmp"
	"math/bits"
	"slices"
)

// scratch is the reusable working memory of score evaluation and of the
// per-node parent search. Each search worker owns one for the whole search
// stage and reuses it node after node; the Scorer pools more for
// LocalScoreParts calls that arrive without one. Once its buffers have grown
// to the workload, neither enumeration nor a merge probe allocates.
type scratch struct {
	mask   []uint64      // packedCombos' working mask, one column long
	keys   []uint64      // key<<1|childBit entries folded by foldRuns
	levels *comboScratch // enumeration mask tree, sized on first use
	combos []combo       // the node's enumerated combinations
	nodes  []int         // arena backing the combinations' node lists
	cur    []int         // enumeration DFS stack
	heap   comboHeap
	merge  mergeState
	part   partition
}

func (s *Scorer) newScratch() *scratch {
	return &scratch{mask: make([]uint64, s.words)}
}

// comboLevels returns the scratch's enumeration mask tree, rebuilt only when
// a search needs deeper packed levels than any before it.
func (sc *scratch) comboLevels(s *Scorer, maxSize int) *comboScratch {
	if sc.levels == nil || sc.levels.packedLimit() < s.packedDepth(maxSize) {
		sc.levels = s.newComboScratch(maxSize)
	}
	return sc.levels
}

// foldRuns folds sorted key<<1|childBit entries into parts, one combination
// per run of equal keys, in ascending key order.
func (s *Scorer) foldRuns(parts *ScoreParts, keys []uint64) {
	for i := 0; i < len(keys); {
		var k0, k1 int
		_, k0, k1, i = nextRun(keys, i)
		s.addCombo(parts, k0, k1)
	}
}

// nextRun reads the run of equal keys that starts at keys[i] in sorted
// key<<1|childBit entries: its key, its even entries (the child's uninfected
// processes, k0), its odd entries (k1), and the index just past it.
func nextRun(keys []uint64, i int) (key uint64, k0, k1, next int) {
	key = keys[i] >> 1
	for ; i < len(keys) && keys[i]>>1 == key; i++ {
		if keys[i]&1 != 0 {
			k1++
		} else {
			k0++
		}
	}
	return key, k0, k1, i
}

// class is one block of a partition: the processes whose parents in F show
// the status pattern key (bit i set ⇔ F[i] infected), split by the child's
// status into k0 uninfected and k1 infected.
type class struct {
	key    uint64
	k0, k1 int
}

// partition keeps the β processes of one child node partitioned by their
// status pattern under the greedy's current parent set F, so that scoring
// F ∪ W costs a pass over the processes W's new columns infect instead of
// one over all β processes. Those columns are sparse, and a process none of
// them infects keeps its class. A probe therefore subtracts the touched
// processes from their classes, folds the untouched classes in their
// existing ascending-key order, then folds the touched processes' new keys
// in ascending order. Every new key has a bit at or above position |F| set,
// so it sorts after every untouched key: the fold visits combinations in the
// same ascending-key order as packedCombos and genericCombos, and the scores
// agree to the bit.
type partition struct {
	child   int
	f       int      // |F|: the number of key bits in use
	classes []class  // ascending key
	procCls []int32  // class index of each process
	newKey  []uint64 // accept's new key per touched process
	remap   []int32  // accept's old → new class index
	addCols [][]uint64
	touched []int32 // processes the last gather moved, in process order
	keys    []uint64
	// cnt holds count's tallies per (new bits, class, child status) slot;
	// probeCounted zeroes what it reads, so the whole backing array is zero
	// between probes.
	cnt []int32
}

// reset makes pt the partition of child under F = ∅: one class holding all
// β processes.
func (pt *partition) reset(s *Scorer, child int) {
	pt.child, pt.f = child, 0
	pt.classes = append(pt.classes[:0], class{k0: s.beta - s.ones[child], k1: s.ones[child]})
	pt.procCls = resize(pt.procCls, s.beta)
	clear(pt.procCls)
	pt.newKey = resize(pt.newKey, s.beta)
}

// resize returns buf with length n, reallocating only when it is too small.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// score returns the score parts of F itself.
func (pt *partition) score(s *Scorer) ScoreParts {
	var parts ScoreParts
	for _, c := range pt.classes {
		s.addCombo(&parts, c.k0, c.k1)
	}
	s.finishParts(pt.f, &parts)
	return parts
}

// setAdd points pt.addCols at the columns of add.
func (pt *partition) setAdd(s *Scorer, add []int) {
	pt.addCols = pt.addCols[:0]
	for _, v := range add {
		pt.addCols = append(pt.addCols, s.cols[v])
	}
}

// gather moves the processes infected in any of add's columns out of their
// classes, recording each in pt.touched and its key under F ∪ add — the old
// class's key plus add[j] at bit |F|+j — as key<<1|childBit in pt.keys.
// The caller either restores the classes (probe) or commits the split
// (accept).
func (pt *partition) gather(s *Scorer, add []int) {
	pt.setAdd(s, add)
	pt.touched, pt.keys = pt.touched[:0], pt.keys[:0]
	childCol := s.cols[pt.child]
	shift := uint(pt.f)
	for w := 0; w < s.words; w++ {
		var u uint64
		for _, col := range pt.addCols {
			u |= col[w]
		}
		for u != 0 {
			b := uint(bits.TrailingZeros64(u))
			u &= u - 1
			var nb uint64
			for j, col := range pt.addCols {
				nb |= (col[w] >> b & 1) << uint(j)
			}
			p := w<<6 | int(b)
			cb := childCol[w] >> b & 1
			cl := &pt.classes[pt.procCls[p]]
			if cb != 0 {
				cl.k1--
			} else {
				cl.k0--
			}
			pt.touched = append(pt.touched, int32(p))
			pt.keys = append(pt.keys, (cl.key|nb<<shift)<<1|cb)
		}
	}
}

// count tallies the processes infected in any of add's columns into pt.cnt
// without moving them: a process with new bits nb (add[j] at bit j) in
// class c lands in slot (nb-1)·C + c, C the class count, split by the
// child's status. The slots ascend with the processes' keys under F ∪ add,
// because the classes ascend by key.
func (pt *partition) count(s *Scorer, add []int) {
	pt.setAdd(s, add)
	nc := len(pt.classes)
	cnt := pt.cnt
	childCol := s.cols[pt.child]
	for w := 0; w < s.words; w++ {
		var u uint64
		for _, col := range pt.addCols {
			u |= col[w]
		}
		for u != 0 {
			b := uint(bits.TrailingZeros64(u))
			u &= u - 1
			var nb int
			for j, col := range pt.addCols {
				nb |= int(col[w]>>b&1) << uint(j)
			}
			slot := (nb-1)*nc + int(pt.procCls[w<<6|int(b)])
			cnt[slot<<1|int(childCol[w]>>b&1)]++
		}
	}
}

// probe returns the score parts of F ∪ add, equal to the bit to
// LocalScoreParts(child, F ∪ add) with add's nodes after F's in key order.
// The partition is left as it was.
//
// The touched processes' new keys are put in order either by counting them
// into slots, whose scan costs a step per (new bits, class) pair, or by
// sorting them; the probe takes whichever is cheaper for this F and add. A
// slot step is a pair of loads, several times cheaper than a sorted key, so
// counting wins until the slots outnumber the touched processes severalfold.
func (pt *partition) probe(s *Scorer, add []int) ScoreParts {
	bound := 0 // at least the number of touched processes
	for _, v := range add {
		bound += s.ones[v]
	}
	if m := len(add); m < 16 && (1<<m-1)*len(pt.classes) <= 8*bound+64 {
		return pt.probeCounted(s, add)
	}
	return pt.probeSorted(s, add)
}

// probeCounted is probe by slot counting.
func (pt *partition) probeCounted(s *Scorer, add []int) ScoreParts {
	nc := len(pt.classes)
	slots := (1<<len(add) - 1) * nc
	pt.cnt = resize(pt.cnt, 2*slots)
	pt.count(s, add)
	cnt := pt.cnt
	var parts ScoreParts
	for c, cl := range pt.classes {
		k0, k1 := cl.k0, cl.k1
		for slot := c; slot < slots; slot += nc {
			k0 -= int(cnt[2*slot])
			k1 -= int(cnt[2*slot+1])
		}
		s.addCombo(&parts, k0, k1)
	}
	for i := 0; i < 2*slots; i += 2 {
		if k0, k1 := int(cnt[i]), int(cnt[i+1]); k0|k1 != 0 {
			s.addCombo(&parts, k0, k1)
			cnt[i], cnt[i+1] = 0, 0
		}
	}
	s.finishParts(pt.f+len(add), &parts)
	return parts
}

// probeSorted is probe by sorting the touched processes' new keys.
func (pt *partition) probeSorted(s *Scorer, add []int) ScoreParts {
	pt.gather(s, add)
	var parts ScoreParts
	for _, c := range pt.classes {
		s.addCombo(&parts, c.k0, c.k1)
	}
	slices.Sort(pt.keys)
	s.foldRuns(&parts, pt.keys)
	childCol := s.cols[pt.child]
	for _, p := range pt.touched {
		cl := &pt.classes[pt.procCls[p]]
		if childCol[p>>6]>>(uint(p)&63)&1 != 0 {
			cl.k1++
		} else {
			cl.k0++
		}
	}
	s.finishParts(pt.f+len(add), &parts)
	return parts
}

// accept commits F ← F ∪ add: the touched processes leave their classes for
// new ones keyed under the grown F, and classes left empty are dropped.
func (pt *partition) accept(s *Scorer, add []int) {
	pt.gather(s, add)
	for i, p := range pt.touched {
		pt.newKey[p] = pt.keys[i] >> 1
	}
	slices.Sort(pt.keys)
	pt.remap = resize(pt.remap, len(pt.classes))
	kept := 0
	for c, cl := range pt.classes {
		pt.remap[c] = -1
		if cl.k0+cl.k1 > 0 {
			pt.remap[c] = int32(kept)
			pt.classes[kept] = cl
			kept++
		}
	}
	pt.classes = pt.classes[:kept]
	for p, c := range pt.procCls {
		pt.procCls[p] = pt.remap[c]
	}
	for i := 0; i < len(pt.keys); {
		var cl class
		cl.key, cl.k0, cl.k1, i = nextRun(pt.keys, i)
		pt.classes = append(pt.classes, cl)
	}
	fresh := pt.classes[kept:]
	for _, p := range pt.touched {
		i, _ := slices.BinarySearchFunc(fresh, pt.newKey[p], func(c class, key uint64) int {
			return cmp.Compare(c.key, key)
		})
		pt.procCls[p] = int32(kept + i)
	}
	pt.f += len(add)
}
