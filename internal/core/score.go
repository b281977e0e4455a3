// Package core implements TENDS, the paper's primary contribution: topology
// estimation of diffusion networks from final infection statuses only.
//
// The three pieces are (1) the decomposable scoring criterion of Eq. (12)/(13)
// balancing likelihood against statistical error, (2) the Theorem-2 upper
// bound on parent-set sizes, and (3) the infection-MI pruning heuristic of
// Section IV-B. Infer assembles them into Algorithm 1.
package core

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"tends/internal/diffusion"
)

// Scorer evaluates local scores g(v_i, F_i) against a fixed observation
// matrix. Columns are read bit-packed, and a score evaluation takes one of
// two exact paths, chosen by parent-set size k:
//
//   - packed: while 2^k masks of one column each cost no more than one pass
//     over the β processes, the instance count of each of the 2^k status
//     combinations is a string of AND/ANDNOT + popcount operations;
//   - partition: otherwise, processes are grouped by their parent-status
//     key. Processes no parent infected form the key-0 class, counted from
//     the child's column total; the infected ones of the (sparse) parent
//     columns are sorted by key and folded run by run. The greedy merge
//     keeps this partition per node and scores a probed combination from
//     the processes its new columns infect (see partition), read from
//     per-node lists of the processes each node is infected in. A one- or
//     two-node add is scored from per-round tallies of those processes by
//     class and, for a pair, their joint count, by inclusion–exclusion.
//
// All of them count the same integers per combination and fold the
// combinations in ascending key order, so every path yields the same bits
// for the same parent set. Singles and pairs in the enumeration are counted
// from column totals the same way (see pairParts), and a node's final score
// is read off its merge partition (see partition.sortedScore).
type Scorer struct {
	beta, n int
	words   int       // 64-bit words per column
	data    []uint64  // the status matrix's columns, aliased (see col)
	tail    uint64    // mask of valid bits in the last word
	deltas  []float64 // Theorem-2 δ_i per node
	// infOff and inf list each node's infected processes as one CSR:
	// node v's ascend in inf[infOff[v]:infOff[v+1]], so its N₂ is
	// infOff[v+1] − infOff[v].
	infOff  []int
	inf     []int32
	logs    []float64 // logs[k] = log₂(k) for k in [0, β+1]; logs[0] = 0 (see fold)
	penalty PenaltyMode
	// scratchPool recycles scoring scratch for LocalScoreParts callers; the
	// scorer is shared by concurrent per-node searches, so the scratch
	// cannot live on the struct directly.
	scratchPool sync.Pool
}

// PenaltyMode selects the statistical-error penalty of the local score.
type PenaltyMode int

const (
	// PenaltyPaper is Eq. (13): ½ Σ_j log₂(N_ij + 1) over the observed
	// parent-status combinations.
	PenaltyPaper PenaltyMode = iota
	// PenaltyBIC charges the classic ½·log₂(β) per free parameter (one
	// Bernoulli parameter per observed combination) — strictly harsher
	// than the paper's penalty once combinations fragment.
	PenaltyBIC
	// PenaltyNone scores by raw likelihood. Theorem 1 then guarantees the
	// maximizer is the complete graph; exists for the ablation that shows
	// why a penalty is required at all.
	PenaltyNone
)

// SetPenaltyMode switches the penalty used by subsequent score
// evaluations. The default is PenaltyPaper.
func (s *Scorer) SetPenaltyMode(m PenaltyMode) { s.penalty = m }

// NewScorer prepares a scorer for the given status matrix. It is core's one
// view of the observations: it reads the matrix's columns in place, without
// a copy, and is the only code in core that counts or lists their set bits
// (see ones and infected); both pairwise engines and the parent search read
// them from it. The aliasing relies on two facts. StatusMatrix.Set is the
// only writer of the columns, and it cannot set a bit at or past β, so every
// column's tail bits are zero. And the caller must not modify m while the
// scorer is in use.
func NewScorer(m *diffusion.StatusMatrix) *Scorer {
	beta, n := m.Beta(), m.N()
	tail := ^uint64(0)
	if r := beta % 64; r != 0 {
		tail = (uint64(1) << r) - 1
	}
	s := &Scorer{
		beta:   beta,
		n:      n,
		words:  m.Words(),
		data:   m.ColumnData(),
		tail:   tail,
		deltas: make([]float64, n),
		infOff: make([]int, n+1),
		logs:   make([]float64, beta+2),
	}
	for k := 1; k <= beta+1; k++ {
		s.logs[k] = math.Log2(float64(k))
	}
	s.scratchPool.New = func() any { return s.newScratch() }
	for v := 0; v < n; v++ {
		ones := 0
		for _, word := range s.col(v) {
			ones += bits.OnesCount64(word)
		}
		s.infOff[v+1] = s.infOff[v] + ones
		s.deltas[v] = delta(beta, ones)
	}
	s.inf = make([]int32, s.infOff[n])
	for v := 0; v < n; v++ {
		at := s.infOff[v]
		for w, word := range s.col(v) {
			for ; word != 0; word &= word - 1 {
				s.inf[at] = int32(w<<6 | bits.TrailingZeros64(word))
				at++
			}
		}
	}
	return s
}

// col returns node v's packed status column.
func (s *Scorer) col(v int) []uint64 {
	return s.data[v*s.words : (v+1)*s.words : (v+1)*s.words]
}

// infected returns the processes node v is infected in, ascending.
func (s *Scorer) infected(v int) []int32 {
	return s.inf[s.infOff[v]:s.infOff[v+1]]
}

// ones returns N₂ for node v: the number of processes it is infected in.
func (s *Scorer) ones(v int) int {
	return s.infOff[v+1] - s.infOff[v]
}

// Beta returns the number of observed diffusion processes.
func (s *Scorer) Beta() int { return s.beta }

// N returns the number of nodes.
func (s *Scorer) N() int { return s.n }

// Delta returns δ_i of Theorem 2 for node i:
//
//	δ_i = 2·N₁·log₂(β/N₁) + 2·N₂·log₂(β/N₂) + log₂(β+1)
//
// with the 0·log(·) = 0 convention when a status never occurs.
func (s *Scorer) Delta(i int) float64 { return s.deltas[i] }

func delta(beta, n2 int) float64 {
	n1 := beta - n2
	d := math.Log2(float64(beta) + 1)
	if n1 > 0 {
		d += 2 * float64(n1) * math.Log2(float64(beta)/float64(n1))
	}
	if n2 > 0 {
		d += 2 * float64(n2) * math.Log2(float64(beta)/float64(n2))
	}
	return d
}

// ScoreParts holds the components of a local score evaluation.
type ScoreParts struct {
	LogLikelihood float64 // log₂ L(v_i, F_i), Eq. (3)
	Penalty       float64 // ½ Σ_j log₂(N_ij + 1)
	Observed      int     // combinations with at least one instance
	Phi           float64 // φ_F: 2^|F| minus Observed
}

// Score returns g = LogLikelihood - Penalty.
func (p ScoreParts) Score() float64 { return p.LogLikelihood - p.Penalty }

// addCombo folds one combination's (N_ij1, N_ij2) into the running parts.
// This is the definitional form; the scoring hot paths use the scorer's
// table-backed fold below, and tests check the two agree.
func (p *ScoreParts) addCombo(k0, k1 int) {
	nij := k0 + k1
	if nij == 0 {
		return
	}
	if k0 > 0 {
		p.LogLikelihood += float64(k0) * math.Log2(float64(k0)/float64(nij))
	}
	if k1 > 0 {
		p.LogLikelihood += float64(k1) * math.Log2(float64(k1)/float64(nij))
	}
	p.Penalty += 0.5 * math.Log2(float64(nij)+1)
	p.Observed++
}

// fold is the running sum of a score evaluation over its combinations.
// Scoring paths keep it in a local and Scorer.fold passes it by value, so
// the sums can stay in registers across a path's loop.
type fold struct {
	ll, pen float64
	obs     int
}

// fold adds one combination's (N_ij1, N_ij2) to f with the scorer's log
// table: all counts are integers in [0, β], so k·log₂(k/n) collapses to
// k·(logs[k] − logs[n]) and the penalty's log₂(n+1) to a lookup. The Log2
// calls this replaces would dominate combination enumeration; the identity
// changes rounding order only (~1 ulp vs ScoreParts.addCombo). The fold has
// no branch on the counts: logs[0] = 0, so a count of 0 adds a ±0 term and
// an empty combination adds ½·log₂ 1 = 0 to the penalty, and neither changes
// a sum — the log-likelihood is a sum of non-positive terms that starts at
// +0, so it is never −0.
func (s *Scorer) fold(f fold, k0, k1 int) fold {
	nij := k0 + k1
	ln := s.logs[nij]
	f.ll += float64(k0) * (s.logs[k0] - ln)
	f.ll += float64(k1) * (s.logs[k1] - ln)
	f.pen += 0.5 * s.logs[nij+1]
	if nij != 0 {
		f.obs++
	}
	return f
}

// parts returns the folded sums as score parts for a parent set of size k,
// with the derived fields filled in (see finishParts).
func (s *Scorer) parts(f fold, k int) ScoreParts {
	parts := ScoreParts{LogLikelihood: f.ll, Penalty: f.pen, Observed: f.obs}
	s.finishParts(k, &parts)
	return parts
}

// LocalScoreParts evaluates the local score components of parent set
// parents for node child. An empty parent set reproduces Eq. (18).
func (s *Scorer) LocalScoreParts(child int, parents []int) ScoreParts {
	sc := s.scratchPool.Get().(*scratch)
	parts := s.scoreParts(child, parents, sc)
	s.scratchPool.Put(sc)
	return parts
}

// scoreParts is LocalScoreParts over the caller's scratch.
func (s *Scorer) scoreParts(child int, parents []int, sc *scratch) ScoreParts {
	k := len(parents)
	if k > 63 {
		panic("core: parent sets beyond 63 nodes are not representable")
	}
	if s.packedWorthwhile(k) {
		return s.parts(s.packedCombos(child, parents, sc), k)
	}
	return s.parts(s.genericCombos(child, parents, sc), k)
}

// packedWorthwhile reports whether the 2^k masked-popcount path beats the
// partition path for a parent set of size k: the total word traffic
// 2^k·words stays within one pass over the β processes.
func (s *Scorer) packedWorthwhile(k int) bool {
	return k <= 2 || (1<<uint(k))*s.words <= s.beta
}

// finishParts fills the derived fields of a score evaluation: φ_F and the
// penalty-mode override. Parent sets have at most 63 nodes, so 2^|F| is an
// exact shift, the value math.Exp2 returns for it.
func (s *Scorer) finishParts(k int, parts *ScoreParts) {
	parts.Phi = float64(uint64(1)<<uint(k)) - float64(parts.Observed)
	switch s.penalty {
	case PenaltyBIC:
		parts.Penalty = 0.5 * math.Log2(float64(s.beta)) * float64(parts.Observed)
	case PenaltyNone:
		parts.Penalty = 0
	}
}

// packedCombos enumerates all 2^k parent-status combinations as bit masks.
func (s *Scorer) packedCombos(child int, parents []int, sc *scratch) fold {
	k := len(parents)
	childCol := s.col(child)
	if k == 0 {
		n1 := s.beta - s.ones(child)
		return s.fold(fold{}, n1, s.ones(child))
	}
	var f fold
	mask := sc.mask
	for combo := 0; combo < 1<<uint(k); combo++ {
		for w := 0; w < s.words; w++ {
			mask[w] = ^uint64(0)
		}
		mask[s.words-1] = s.tail
		for bi, p := range parents {
			col := s.col(p)
			if combo&(1<<uint(bi)) != 0 {
				for w := 0; w < s.words; w++ {
					mask[w] &= col[w]
				}
			} else {
				for w := 0; w < s.words; w++ {
					mask[w] &^= col[w]
				}
			}
		}
		nij, k1 := 0, 0
		for w := 0; w < s.words; w++ {
			nij += bits.OnesCount64(mask[w])
			k1 += bits.OnesCount64(mask[w] & childCol[w])
		}
		f = s.fold(f, nij-k1, k1)
	}
	return f
}

// genericCombos scores a parent set too large for the packed path without
// touching the processes no parent infected: they form the key-0 class,
// whose child split follows from the child's column total. The infected
// processes of the parent columns are gathered as key<<1|childBit, sorted,
// and folded run by run after it — ascending key order, as packedCombos.
func (s *Scorer) genericCombos(child int, parents []int, sc *scratch) fold {
	childCol := s.col(child)
	keys := sc.keys[:0]
	hit := 0 // child infections among the gathered processes
	for w := 0; w < s.words; w++ {
		var u uint64
		for _, p := range parents {
			u |= s.data[p*s.words+w]
		}
		for u != 0 {
			b := uint(bits.TrailingZeros64(u))
			u &= u - 1
			var key uint64
			for i, p := range parents {
				key |= (s.data[p*s.words+w] >> b & 1) << uint(i)
			}
			cb := childCol[w] >> b & 1
			hit += int(cb)
			keys = append(keys, key<<1|cb)
		}
	}
	k1 := s.ones(child) - hit
	f := s.fold(fold{}, s.beta-len(keys)-k1, k1)
	slices.Sort(keys)
	sc.keys = keys
	return s.foldRuns(f, keys)
}

// common returns |a ∧ b| and |a ∧ b ∧ child|, the number of processes
// nodes a and b are both infected in and how many of those child is
// infected in too: a pass over the sparser node's list with bit tests in
// the other columns, or over the packed columns when they have fewer words.
func (s *Scorer) common(a, b, child int) (ab, abc int) {
	if s.ones(b) < s.ones(a) {
		a, b = b, a
	}
	cb, cc := s.col(b), s.col(child)
	if s.ones(a) < s.words {
		for _, p := range s.infected(a) {
			w, sh := p>>6, uint(p&63)
			in := cb[w] >> sh & 1
			ab += int(in)
			abc += int(in & (cc[w] >> sh))
		}
		return ab, abc
	}
	for w, word := range s.col(a) {
		x := word & cb[w]
		ab += bits.OnesCount64(x)
		abc += bits.OnesCount64(x & cc[w])
	}
	return ab, abc
}

// singleParts scores the parent set {a} for child from column totals:
// N₂(a), N₂(child) and hit = |a ∧ child|. The two combinations' counts are
// the integers packedCombos reads off its masks, folded in the same order.
func (s *Scorer) singleParts(child, a, hit int) ScoreParts {
	na, nc := s.ones(a), s.ones(child)
	f := s.fold(fold{}, s.beta-na-(nc-hit), nc-hit)
	f = s.fold(f, na-hit, hit)
	return s.parts(f, 1)
}

// pairParts scores the parent set {a, b} (a at bit 0) for child from column
// totals: N₂ of a, b and child, aHit = |a ∧ child|, bHit = |b ∧ child|, and
// one pass for |a ∧ b| and |a ∧ b ∧ child|. Inclusion–exclusion gives the
// four combinations' counts, folded in packedCombos' order.
func (s *Scorer) pairParts(child, a, b, aHit, bHit int) ScoreParts {
	ab, abc := s.common(a, b, child)
	na, nb, nc := s.ones(a), s.ones(b), s.ones(child)
	k1 := nc - aHit - bHit + abc
	f := s.fold(fold{}, s.beta-na-nb+ab-k1, k1)
	f = s.fold(f, na-ab-(aHit-abc), aHit-abc)
	f = s.fold(f, nb-ab-(bHit-abc), bHit-abc)
	f = s.fold(f, ab-abc, abc)
	return s.parts(f, 2)
}

// LocalScore is Eq. (13): g(v_i, F_i).
func (s *Scorer) LocalScore(child int, parents []int) float64 {
	return s.LocalScoreParts(child, parents).Score()
}

// BoundHolds reports the Theorem-2 condition |F| ≤ log₂(φ_F + δ_i) for a
// parent set of the given size and φ value, for child node i.
func (s *Scorer) BoundHolds(i int, setSize int, phi float64) bool {
	if setSize == 0 {
		return true
	}
	return boundHolds(setSize, phi+s.deltas[i])
}

// boundHolds reports |F| ≤ log₂(arg) for |F| = k ≥ 1, deciding the common
// case without a logarithm: arg ≥ 2^(k+1) holds, and arg < 2^k·(1 − 10⁻⁹)
// does not, since Log2 is exact at powers of two and off by a few ulps
// elsewhere. Only the band between calls Log2, so every decision is the
// plain rule's. (Log2 of a non-positive arg is NaN or −Inf: false.)
func boundHolds(k int, arg float64) bool {
	if k < 1000 {
		if arg >= math.Float64frombits(uint64(1023+k+1)<<52) {
			return true
		}
		if arg < math.Float64frombits(uint64(1023+k)<<52)*(1-1e-9) {
			return false
		}
	}
	return float64(k) <= math.Log2(arg)
}

// TotalScore is the decomposable criterion g(T) of Eq. (12) for a full
// topology expressed as parent sets per node.
func (s *Scorer) TotalScore(parents [][]int) float64 {
	sc := s.scratchPool.Get().(*scratch)
	defer s.scratchPool.Put(sc)
	var total float64
	for i := 0; i < s.n; i++ {
		total += s.scoreParts(i, parents[i], sc).Score()
	}
	return total
}
