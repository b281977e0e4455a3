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
	mask   []uint64 // packedCombos' working mask, one column long
	keys   []uint64 // key<<1|childBit entries folded by foldRuns
	combos []combo  // the node's enumerated combinations
	nodes  []int    // arena backing the combinations' node lists
	cur    []int    // enumeration DFS stack
	hits   []int    // |cands[k] ∧ child| per candidate position k
	heap   comboHeap
	merge  mergeState
	part   partition
	memo   probeMemo
}

func (s *Scorer) newScratch() *scratch {
	return &scratch{mask: make([]uint64, s.words)}
}

// foldRuns folds sorted key<<1|childBit entries into f, one combination
// per run of equal keys, in ascending key order.
func (s *Scorer) foldRuns(f fold, keys []uint64) fold {
	for i := 0; i < len(keys); {
		var k0, k1 int
		_, k0, k1, i = nextRun(keys, i)
		f = s.fold(f, k0, k1)
	}
	return f
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
// F ∪ W costs a pass over the processes W's new nodes infect, read from the
// scorer's per-node lists, instead of one over all β processes. A process
// none of them infects keeps its class. A probe therefore subtracts the
// touched processes from their classes, folds the untouched classes in their
// existing ascending-key order, then folds the touched processes' new keys
// in ascending order. Every new key has a bit at or above position |F| set,
// so it sorts after every untouched key: the fold visits combinations in the
// same ascending-key order as packedCombos and genericCombos, and the scores
// agree to the bit.
//
// Most probes add one or two nodes, and a greedy round (one F) probes each
// candidate node in many pairs. So the touched processes of such adds are
// not recounted per probe: each node's processes are tallied per class once
// per round, the first time a probe needs the node (tally), and a pair's
// counts follow from the two tallies and the processes both nodes infect by
// inclusion–exclusion (probeTallied). accept drops the tallies, since it
// renumbers the classes. Adds of three or more nodes, and every accept,
// count (count) or sort (gather) the touched processes.
type partition struct {
	f       int     // |F|: the number of key bits in use
	classes []class // ascending key
	// procSlot holds each process's class index c and the child's status
	// in it as c<<1 | childBit: the cnt slot a one-node add moves it to.
	procSlot []int32
	newKey   []uint64 // acceptSorted's new key per touched process
	remap    []int32  // dropEmpty's old → new class index
	// newBits marks, per process, which of add's nodes infect it (add[j]
	// at bit j); count and gather zero each mark as they read it, so the
	// whole array is zero between calls.
	newBits []uint64
	// touched lists the processes the last gather moved, or the last
	// committing count of a multi-node add tallied.
	touched []int32
	keys    []uint64
	// cnt holds count's tallies per (new bits, class, child status) slot,
	// or tally's, joint's and probeTallied's per procSlot; each zeroes what
	// it wrote once read, so the whole backing array is zero between calls.
	cnt []int32
	// seen has a bit per slot that count or tally tallied into, so they
	// visit the touched slots without scanning the empty ones; they zero
	// what they read, too.
	seen []uint64
	// slotClass maps acceptCounted's touched slots to their fresh classes.
	slotClass []int32
	// sorted holds sortedScore's classes re-keyed to sorted-parent order.
	sorted []class
	child  int // the node reset last partitioned

	// Round tallies (see tally): the tally of the node at candidate
	// position pos is tallies[tallyAt[pos][0]:tallyAt[pos][1]], one entry
	// per class its processes fall in, ascending by class. live has bit
	// pos set while that tally is current; accept and reset empty them.
	tallies []tallyEntry
	tallyAt [64][2]int32
	live    uint64
	built   int // tallies built since reset
}

// tallyEntry is one class's share of a node's processes: the class index
// and the processes in it the child is not (k0) and is (k1) infected in.
type tallyEntry struct {
	c, k0, k1 int32
}

// reset makes pt the partition of child under F = ∅: one class holding all
// β processes.
func (pt *partition) reset(s *Scorer, child int) {
	pt.dropTallies()
	pt.f, pt.child, pt.built = 0, child, 0
	pt.classes = append(pt.classes[:0], class{k0: s.beta - s.ones(child), k1: s.ones(child)})
	pt.procSlot = resize(pt.procSlot, s.beta)
	clear(pt.procSlot)
	for _, p := range s.infected(child) {
		pt.procSlot[p] = 1
	}
	pt.newKey = resize(pt.newKey, s.beta)
	if len(pt.newBits) != s.beta {
		pt.newBits = make([]uint64, s.beta)
	}
}

// resize returns buf with length n, reallocating only when it is too small,
// then with room to double: the class-indexed buffers grow a few classes
// per accept, and exact reallocations would leave a trail of garbage.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, 2*n)
	}
	return buf[:n]
}

// score returns the score parts of F itself.
func (pt *partition) score(s *Scorer) ScoreParts {
	var f fold
	for _, c := range pt.classes {
		f = s.fold(f, c.k0, c.k1)
	}
	return s.parts(f, pt.f)
}

// markAdd sets, for every process one of add's nodes infects, bit j of its
// newBits mark for add[j].
func (pt *partition) markAdd(s *Scorer, add []int) {
	for j, v := range add {
		for _, p := range s.infected(v) {
			pt.newBits[p] |= 1 << uint(j)
		}
	}
}

// gather moves the processes infected in any of add's columns out of their
// classes, recording each in pt.touched and its key under F ∪ add — the old
// class's key plus add[j] at bit |F|+j — as key<<1|childBit in pt.keys.
// The caller either restores the classes (probe) or commits the split
// (accept).
func (pt *partition) gather(s *Scorer, add []int) {
	pt.markAdd(s, add)
	pt.touched, pt.keys = pt.touched[:0], pt.keys[:0]
	shift := uint(pt.f)
	for _, v := range add {
		for _, p := range s.infected(v) {
			nb := pt.newBits[p]
			if nb == 0 {
				continue // already gathered through an earlier node of add
			}
			pt.newBits[p] = 0
			ps := pt.procSlot[p]
			cl := &pt.classes[ps>>1]
			if ps&1 != 0 {
				cl.k1--
			} else {
				cl.k0--
			}
			pt.touched = append(pt.touched, p)
			pt.keys = append(pt.keys, (cl.key|nb<<shift)<<1|uint64(ps&1))
		}
	}
}

// counted reports whether probe and accept put the touched processes of
// add in key order by counting them into slots (the merge probes one- and
// two-node adds by probeTallied instead), whose scan costs a step per
// (new bits, class) pair, rather than by sorting their keys. A slot step is
// a pair of loads, several times cheaper than a sorted key, so counting wins
// until the slots outnumber the touched processes severalfold.
func (pt *partition) counted(s *Scorer, add []int) bool {
	bound := 0 // at least the number of touched processes
	for _, v := range add {
		bound += s.ones(v)
	}
	m := len(add)
	return m < 16 && (1<<m-1)*len(pt.classes) <= 8*bound+64
}

// count tallies the processes infected in any of add's columns into pt.cnt
// without moving them: a process with new bits nb (add[j] at bit j) in
// class c lands in slot (nb-1)·C + c, C the class count, split by the
// child's status as cnt index 2·slot + childBit. The slots ascend with the
// processes' keys under F ∪ add, because the classes ascend by key. A
// one-node add has nb = 1 throughout, so each process lands in its
// procSlot. With commit set, a multi-node add also records each process in
// pt.touched and leaves its cnt index in its procSlot for accept to
// resolve. count returns the number of slots.
func (pt *partition) count(s *Scorer, add []int, commit bool) int {
	slots := (1<<len(add) - 1) * len(pt.classes)
	pt.cnt = resize(pt.cnt, 2*slots)
	pt.seen = resize(pt.seen, (slots+63)/64)
	cnt, slot, seen := pt.cnt, pt.procSlot, pt.seen
	if len(add) == 1 {
		for _, p := range s.infected(add[0]) {
			i := slot[p]
			cnt[i]++
			seen[i>>7] |= 1 << uint(i>>1&63)
		}
		return slots
	}
	// add[0]'s processes all carry bit 0: mark only the other nodes, count
	// add[0]'s processes first, then the others' not already counted.
	pt.markAdd(s, add[1:])
	nbs, stride := pt.newBits, 2*len(pt.classes)
	pt.touched = pt.touched[:0]
	for _, p := range s.infected(add[0]) {
		nb := nbs[p]<<1 | 1
		nbs[p] = 0
		i := int(nb-1)*stride + int(slot[p])
		cnt[i]++
		seen[i>>7] |= 1 << uint(i>>1&63)
		if commit {
			pt.touched = append(pt.touched, p)
			slot[p] = int32(i)
		}
	}
	if commit {
		for _, v := range add[1:] {
			for _, p := range s.infected(v) {
				if nb := nbs[p]; nb != 0 {
					nbs[p] = 0
					i := int(nb<<1-1)*stride + int(slot[p])
					cnt[i]++
					seen[i>>7] |= 1 << uint(i>>1&63)
					pt.touched = append(pt.touched, p)
					slot[p] = int32(i)
				}
			}
		}
		return slots
	}
	// A probe counts the later columns without a branch: a process an
	// earlier column counted has nb = 0 and a negative index, which is
	// clamped to 0 and counted with weight 0.
	for _, v := range add[1:] {
		for _, p := range s.infected(v) {
			nb := nbs[p]
			nbs[p] = 0
			i := int(nb<<1-1)*stride + int(slot[p])
			i &^= i >> 63
			w := (nb | -nb) >> 63
			cnt[i] += int32(w)
			seen[i>>7] |= w << uint(i>>1&63)
		}
	}
	return slots
}

// probe returns the score parts of F ∪ add, equal to the bit to
// LocalScoreParts(child, F ∪ add) with add's nodes after F's in key order.
// The partition is left as it was.
func (pt *partition) probe(s *Scorer, add []int) ScoreParts {
	if pt.counted(s, add) {
		return pt.probeCounted(s, add)
	}
	return pt.probeSorted(s, add)
}

// probeCounted is probe by slot counting.
func (pt *partition) probeCounted(s *Scorer, add []int) ScoreParts {
	nc := len(pt.classes)
	slots := pt.count(s, add, false)
	cnt := pt.cnt
	var f fold
	for c, cl := range pt.classes {
		k0, k1 := cl.k0, cl.k1
		for slot := c; slot < slots; slot += nc {
			k0 -= int(cnt[2*slot])
			k1 -= int(cnt[2*slot+1])
		}
		f = s.fold(f, k0, k1)
	}
	for w, word := range pt.seen {
		for ; word != 0; word &= word - 1 {
			i := 2 * (w<<6 | bits.TrailingZeros64(word))
			f = s.fold(f, int(cnt[i]), int(cnt[i+1]))
			cnt[i], cnt[i+1] = 0, 0
		}
		pt.seen[w] = 0
	}
	return s.parts(f, pt.f+len(add))
}

// probeSorted is probe by sorting the touched processes' new keys.
func (pt *partition) probeSorted(s *Scorer, add []int) ScoreParts {
	pt.gather(s, add)
	var f fold
	for _, c := range pt.classes {
		f = s.fold(f, c.k0, c.k1)
	}
	slices.Sort(pt.keys)
	f = s.foldRuns(f, pt.keys)
	for _, p := range pt.touched {
		ps := pt.procSlot[p]
		cl := &pt.classes[ps>>1]
		if ps&1 != 0 {
			cl.k1++
		} else {
			cl.k0++
		}
	}
	return s.parts(f, pt.f+len(add))
}

// tally returns the round tally of node v, the candidate at position pos:
// v's processes counted per class, one entry per class they fall in,
// ascending. The first probe of a greedy round that needs v builds it, in
// one pass over v's processes; later probes of the round read it, until
// accept changes the classes.
func (pt *partition) tally(s *Scorer, pos, v int) []tallyEntry {
	if pt.live&(1<<uint(pos)) == 0 {
		pt.live |= 1 << uint(pos)
		pt.built++
		nc := len(pt.classes)
		cnt := resize(pt.cnt, 2*nc)
		seen := resize(pt.seen, (nc+63)>>6)
		pt.cnt, pt.seen = cnt, seen
		for _, p := range s.infected(v) {
			i := pt.procSlot[p]
			cnt[i]++
			seen[i>>7] |= 1 << uint(i>>1&63)
		}
		start := len(pt.tallies)
		// Make room for every class v can touch, doubling the arena.
		if need := min(s.ones(v), nc); cap(pt.tallies)-start < need {
			pt.tallies = slices.Grow(pt.tallies, start+need)
		}
		for w, word := range seen {
			for ; word != 0; word &= word - 1 {
				c := w<<6 | bits.TrailingZeros64(word)
				pt.tallies = append(pt.tallies, tallyEntry{c: int32(c), k0: cnt[2*c], k1: cnt[2*c+1]})
				cnt[2*c], cnt[2*c+1] = 0, 0
			}
			seen[w] = 0
		}
		pt.tallyAt[pos] = [2]int32{int32(start), int32(len(pt.tallies))}
	}
	at := pt.tallyAt[pos]
	return pt.tallies[at[0]:at[1]:at[1]]
}

// dropTallies empties the round tallies.
func (pt *partition) dropTallies() {
	pt.tallies, pt.live = pt.tallies[:0], 0
}

// probeTallied is probe for an add of one or two nodes, from their round
// tallies; pos holds their candidate positions as set bits, add[0] at the
// lower one. A one-node add {a} moves T_a out of each class into its new
// slot. A pair {a, b} also counts J, the processes both infect, per class;
// by inclusion–exclusion its new slots hold T_a − J (a only), T_b − J
// (b only) and J (both), and each class keeps k − T_a − T_b + J. These are
// the integers probeCounted tallies, folded in the same order: the classes,
// then the new slots of a only, b only and both, each by ascending class.
// J is nonzero only in classes of both tallies, and an empty slot folds as
// a no-op, so the last fold walks a's tally.
func (pt *partition) probeTallied(s *Scorer, pos uint64, add []int) ScoreParts {
	ta := pt.tally(s, bits.TrailingZeros64(pos), add[0])
	var tb []tallyEntry
	if len(add) == 2 {
		tb = pt.tally(s, bits.TrailingZeros64(pos&(pos-1)), add[1])
	}
	j, d := pt.joint(s, add)
	for _, t := range [2][]tallyEntry{ta, tb} {
		for _, e := range t {
			d[2*e.c] += e.k0
			d[2*e.c+1] += e.k1
		}
	}
	var f fold
	for c, cl := range pt.classes {
		f = s.fold(f, cl.k0-int(d[2*c]-j[2*c]), cl.k1-int(d[2*c+1]-j[2*c+1]))
	}
	for _, t := range [2][]tallyEntry{ta, tb} {
		for _, e := range t {
			f = s.fold(f, int(e.k0-j[2*e.c]), int(e.k1-j[2*e.c+1]))
			d[2*e.c], d[2*e.c+1] = 0, 0
		}
	}
	if len(add) == 1 {
		return s.parts(f, pt.f+1)
	}
	for _, e := range ta {
		f = s.fold(f, int(j[2*e.c]), int(j[2*e.c+1]))
		j[2*e.c], j[2*e.c+1] = 0, 0
	}
	return s.parts(f, pt.f+2)
}

// joint counts into j, per procSlot, the processes both nodes of a
// two-node add infect: none for a one-node add. It returns j and d, two
// zero per-procSlot halves of pt.cnt, d for probeTallied's scattered
// tallies. The joint counts lie in classes both tallies hold;
// probeTallied zeroes them, and d, as it folds. The processes are read
// from the sparser node's list with a branch-free bit test in the other
// column, or, when that list is longer than eight times a column's words,
// from the AND of the two packed columns: a word costs about as much as
// eight list entries there, its set bits taken one by one behind a loop
// branch that rarely predicts.
func (pt *partition) joint(s *Scorer, add []int) (j, d []int32) {
	n := 2 * len(pt.classes)
	pt.cnt = resize(pt.cnt, 2*n)
	j, d = pt.cnt[:n:n], pt.cnt[n:]
	if len(add) == 1 {
		return j, d
	}
	a, b := add[0], add[1]
	slot := pt.procSlot
	if s.ones(b) < s.ones(a) {
		a, b = b, a
	}
	if s.ones(a) < 8*s.words {
		col := s.col(b)
		for _, p := range s.infected(a) {
			j[slot[p]] += int32(col[p>>6] >> uint(p&63) & 1)
		}
		return j, d
	}
	ca, cb := s.col(a), s.col(b)
	for w := range ca {
		for word := ca[w] & cb[w]; word != 0; word &= word - 1 {
			j[slot[w<<6|bits.TrailingZeros64(word)]]++
		}
	}
	return j, d
}

// sortedScore returns the score parts of F as LocalScoreParts scores it for
// F's nodes in ascending order. The classes carry F's nodes in order, the
// order they were added; each key is re-keyed to bit r for the node of rank
// r, the classes are sorted by the new keys, and folded. The classes are
// the non-empty parent-status combinations with their integer counts, so
// the fold matches packedCombos and genericCombos to the bit.
func (pt *partition) sortedScore(s *Scorer, order []int) ScoreParts {
	var rank [64]uint8
	identity := true
	for i, v := range order {
		for _, u := range order {
			if u < v {
				rank[i]++
			}
		}
		identity = identity && int(rank[i]) == i
	}
	if identity {
		return pt.score(s)
	}
	pt.sorted = append(pt.sorted[:0], pt.classes...)
	for i := range pt.sorted {
		var key uint64
		for k := pt.sorted[i].key; k != 0; k &= k - 1 {
			key |= 1 << rank[bits.TrailingZeros64(k)]
		}
		pt.sorted[i].key = key
	}
	slices.SortFunc(pt.sorted, func(a, b class) int { return cmp.Compare(a.key, b.key) })
	var f fold
	for _, c := range pt.sorted {
		f = s.fold(f, c.k0, c.k1)
	}
	return s.parts(f, pt.f)
}

// accept commits F ← F ∪ add: the touched processes leave their classes for
// new ones keyed under the grown F, appended in ascending key order after
// the old classes, and classes left empty are dropped. It orders the touched
// processes the way probe does for the same F and add.
func (pt *partition) accept(s *Scorer, add []int) {
	if pt.counted(s, add) {
		pt.acceptCounted(s, add)
	} else {
		pt.acceptSorted(s, add)
	}
}

// acceptCounted is accept by slot counting: each touched slot, in ascending
// order, becomes a fresh class, and a slot→class table moves the touched
// processes into them. The untouched processes keep their procSlot unless a
// class empties.
func (pt *partition) acceptCounted(s *Scorer, add []int) {
	pt.dropTallies()
	nc, shift := len(pt.classes), uint(pt.f)
	slots := pt.count(s, add, true)
	touched := pt.touched
	if len(add) == 1 {
		touched = s.infected(add[0])
	}
	cnt := pt.cnt
	pt.slotClass = resize(pt.slotClass, slots)
	for w, word := range pt.seen {
		for ; word != 0; word &= word - 1 {
			slot := w<<6 | bits.TrailingZeros64(word)
			k0, k1 := int(cnt[2*slot]), int(cnt[2*slot+1])
			cnt[2*slot], cnt[2*slot+1] = 0, 0
			old := &pt.classes[slot%nc]
			old.k0 -= k0
			old.k1 -= k1
			key := old.key | uint64(slot/nc+1)<<shift
			pt.slotClass[slot] = int32(len(pt.classes))
			pt.classes = append(pt.classes, class{key: key, k0: k0, k1: k1})
		}
		pt.seen[w] = 0
	}
	for _, p := range touched {
		i := pt.procSlot[p]
		pt.procSlot[p] = pt.slotClass[i>>1]<<1 | i&1
	}
	pt.dropEmpty()
	pt.f += len(add)
}

// acceptSorted is accept by sorting the touched processes' new keys, for the
// adds probe scores by sorting.
func (pt *partition) acceptSorted(s *Scorer, add []int) {
	pt.dropTallies()
	pt.gather(s, add)
	for i, p := range pt.touched {
		pt.newKey[p] = pt.keys[i] >> 1
	}
	slices.Sort(pt.keys)
	pt.dropEmpty()
	kept := len(pt.classes)
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
		pt.procSlot[p] = int32(kept+i)<<1 | pt.procSlot[p]&1
	}
	pt.f += len(add)
}

// dropEmpty drops the classes left empty and renumbers every process's
// procSlot to match, a pass over all β processes; it does nothing when no
// class is empty.
func (pt *partition) dropEmpty() {
	if !slices.ContainsFunc(pt.classes, func(c class) bool { return c.k0+c.k1 == 0 }) {
		return
	}
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
	for p, ps := range pt.procSlot {
		pt.procSlot[p] = pt.remap[ps>>1]<<1 | ps&1
	}
}
