// Package lfr generates Lancichinetti–Fortunato–Radicchi (LFR) benchmark
// graphs, the synthetic networks the paper's experiments run on (Table II).
//
// An LFR graph has a power-law degree distribution with exponent τ (the
// paper's degree-distribution parameter: larger τ means less dispersion), a
// power-law community-size distribution, and a mixing parameter μ giving the
// fraction of each node's edges that leave its community. The construction
// here follows the original paper's recipe: sample a degree sequence, sample
// community sizes, assign nodes to communities respecting internal-degree
// capacity, then wire internal and external stubs configuration-model style
// with rewiring repair for duplicates and self-loops.
//
// The paper simulates diffusion on directed networks; as is standard when
// using LFR for diffusion studies, the generated undirected topology is
// symmetrized into a digraph (each undirected edge becomes two directed
// edges) unless Params.Directed requests random orientation.
package lfr

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"tends/internal/graph"
	"tends/internal/stats"
)

// fenwick is a binary indexed tree over community slots; it supports prefix
// sums and "position of the k-th set indicator" in O(log n), the two queries
// the placement loop needs.
type fenwick struct {
	tree []int
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1)} }

func (f *fenwick) add(pos, delta int) {
	for i := pos + 1; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// sum returns the total over positions [0, end).
func (f *fenwick) sum(end int) int {
	s := 0
	for i := end; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// kth returns the smallest position whose prefix sum reaches k (1-based);
// the caller guarantees k ≤ sum(len).
func (f *fenwick) kth(k int) int {
	pos := 0
	bit := 1
	for bit<<1 < len(f.tree) {
		bit <<= 1
	}
	for ; bit > 0; bit >>= 1 {
		if next := pos + bit; next < len(f.tree) && f.tree[next] < k {
			pos = next
			k -= f.tree[next]
		}
	}
	return pos
}

// Params configures an LFR benchmark graph.
type Params struct {
	N            int     // number of nodes
	AvgDegree    float64 // target average (undirected) degree, the paper's κ
	MaxDegree    int     // degree cutoff; 0 means max(3·AvgDegree, 10)
	DegreeExp    float64 // degree power-law exponent, the paper's τ
	CommunityExp float64 // community-size power-law exponent (default 1.5)
	Mixing       float64 // fraction of edges leaving the community (default 0.1)
	MinCommunity int     // smallest community size; 0 means max(AvgDegree+1, 10)
	MaxCommunity int     // largest community size; 0 means N/3 (floored at MinCommunity)
	Directed     bool    // orient each undirected edge once at random instead of symmetrizing
}

func (p Params) withDefaults() (Params, error) {
	if p.N <= 0 {
		return p, fmt.Errorf("lfr: N must be positive, got %d", p.N)
	}
	if p.AvgDegree <= 0 || p.AvgDegree >= float64(p.N) {
		return p, fmt.Errorf("lfr: AvgDegree %v out of range (0, N)", p.AvgDegree)
	}
	if p.DegreeExp <= 0 {
		return p, fmt.Errorf("lfr: DegreeExp must be positive, got %v", p.DegreeExp)
	}
	if p.Mixing < 0 || p.Mixing > 1 {
		return p, fmt.Errorf("lfr: Mixing %v out of [0,1]", p.Mixing)
	}
	if p.CommunityExp == 0 {
		p.CommunityExp = 1.5
	}
	if p.Mixing == 0 {
		p.Mixing = 0.1
	}
	if p.MaxDegree == 0 {
		p.MaxDegree = int(3 * p.AvgDegree)
		if p.MaxDegree < 10 {
			p.MaxDegree = 10
		}
	}
	if p.MaxDegree >= p.N {
		p.MaxDegree = p.N - 1
	}
	if p.MinCommunity == 0 {
		p.MinCommunity = int(p.AvgDegree) + 1
		if p.MinCommunity < 10 {
			p.MinCommunity = 10
		}
	}
	if p.MinCommunity > p.N {
		p.MinCommunity = p.N
	}
	if p.MaxCommunity == 0 {
		p.MaxCommunity = p.N / 3
	}
	if p.MaxCommunity < p.MinCommunity {
		p.MaxCommunity = p.MinCommunity
	}
	return p, nil
}

// Result bundles the generated graph with its community assignment.
type Result struct {
	Graph       *graph.Directed
	Communities [][]int // node lists per community
	Membership  []int   // community index per node
}

// Generate builds an LFR benchmark graph. The rng controls all randomness,
// so a fixed seed reproduces the graph exactly.
func Generate(p Params, rng *rand.Rand) (*Result, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	degrees := stats.PowerLawDegrees(rng, p.N, p.DegreeExp, 1, p.MaxDegree, p.AvgDegree, 0.05)

	sizes := stats.PowerLawSizes(rng, p.N, p.CommunityExp, p.MinCommunity, p.MaxCommunity)
	nc := len(sizes)

	// Assign nodes to communities: a node with internal degree
	// (1-μ)·deg must fit inside its community (internal degree < size).
	//
	// Each placement picks uniformly at random among the communities that
	// are both eligible (size > internal degree) and non-full —
	// distributionally the same as the earlier first-fit-in-random-
	// permutation scan, but O(log nc) per node instead of O(nc): with
	// communities sorted by size descending the eligible set is a prefix,
	// and a Fenwick tree over the availability indicators turns "k-th open
	// slot in the prefix" into a single descent. At n=10⁵ the permutation
	// scan was the dominant generation cost.
	membership := make([]int, p.N)
	for i := range membership {
		membership[i] = -1
	}
	bySize := make([]int, nc) // community indices, largest size first
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool { return sizes[bySize[a]] > sizes[bySize[b]] })
	sortedSizes := make([]int, nc)
	for pos, c := range bySize {
		sortedSizes[pos] = sizes[c]
	}
	avail := newFenwick(nc)
	for pos := 0; pos < nc; pos++ {
		avail.add(pos, 1)
	}
	order := rng.Perm(p.N)
	remaining := append([]int(nil), sizes...)
	place := func(v, pos int) {
		c := bySize[pos]
		membership[v] = c
		remaining[c]--
		if remaining[c] == 0 {
			avail.add(pos, -1)
		}
	}
	for _, v := range order {
		intDeg := internalDegree(degrees[v], p.Mixing)
		// Eligible communities (size > intDeg) form a prefix of bySize.
		prefix := sort.Search(nc, func(i int) bool { return sortedSizes[i] <= intDeg })
		if t := avail.sum(prefix); t > 0 {
			place(v, avail.kth(rng.Intn(t)+1))
			continue
		}
		// No eligible community has room: cap the node's internal degree
		// and place it wherever there is room.
		t := avail.sum(nc)
		if t == 0 {
			return nil, fmt.Errorf("lfr: failed to place node %d into any community", v)
		}
		pos := avail.kth(rng.Intn(t) + 1)
		if c := bySize[pos]; intDeg >= sizes[c] {
			degrees[v] = sizes[c] - 1
			if degrees[v] < 1 {
				degrees[v] = 1
			}
		}
		place(v, pos)
	}
	communities := make([][]int, nc)
	for v, c := range membership {
		communities[c] = append(communities[c], v)
	}

	// Split each node's stubs into internal and external.
	intStubs := make([]int, p.N)
	extStubs := make([]int, p.N)
	for v, d := range degrees {
		id := internalDegree(d, p.Mixing)
		if id >= sizes[membership[v]] {
			id = sizes[membership[v]] - 1
		}
		if id < 0 {
			id = 0
		}
		intStubs[v] = id
		extStubs[v] = d - id
	}

	// Each undirected edge is recorded in both endpoints' neighbour lists,
	// carved from one array by the stub counts: every edge takes one stub
	// from each end, so no list outgrows its share.
	stubs := 0
	for _, d := range degrees {
		stubs += d
	}
	nbr := make([][]int32, p.N)
	backing := make([]int32, stubs)
	for v, d := range degrees {
		nbr[v], backing = backing[:0:d], backing[d:]
	}
	// Wire internal edges per community via configuration model.
	for c := 0; c < nc; c++ {
		wireStubs(nbr, communities[c], func(v int) int { return intStubs[v] }, rng)
	}
	// Wire external edges across the whole graph, rejecting intra-community
	// pairs when possible.
	wireExternal(nbr, membership, extStubs, rng)

	// A node's neighbours are its parents in the symmetrized digraph.
	if p.Directed {
		orient(nbr, rng)
	}
	g := graph.FromParents(p.N, nbr)
	return &Result{Graph: g, Communities: communities, Membership: membership}, nil
}

// orient keeps in each neighbour list only the neighbours that point at
// its node. Every undirected edge {lo, hi} gets one draw, in ascending
// (lo, hi) order: 0 orients it lo → hi, 1 hi → lo. The lists are sorted and
// compacted in place, visiting nodes in ascending order. When lo is
// visited, the entries of its list below lo were all decided by earlier
// nodes, which wrote the kept ones to its front; the rest are stale and
// also below lo, and every write lands at or before the entry being read.
func orient(nbr [][]int32, rng *rand.Rand) {
	for _, ns := range nbr {
		slices.Sort(ns)
	}
	kept := make([]int32, len(nbr))
	for lo, ns := range nbr {
		i := sort.Search(len(ns), func(j int) bool { return ns[j] > int32(lo) })
		for _, hi := range ns[i:] {
			if rng.Intn(2) == 0 {
				nbr[hi][kept[hi]] = int32(lo)
				kept[hi]++
			} else {
				ns[kept[lo]] = hi
				kept[lo]++
			}
		}
		nbr[lo] = ns[:kept[lo]]
	}
}

func internalDegree(d int, mixing float64) int {
	id := int(float64(d)*(1-mixing) + 0.5)
	if id > d {
		id = d
	}
	return id
}

// addUndirected records the undirected edge {a, b} in both neighbour lists
// and reports whether it was new; self-loops and duplicates are rejected.
// Degrees are small (LFR's default cutoff is 30), so a scan of the shorter
// list answers the duplicate check.
func addUndirected(nbr [][]int32, a, b int) bool {
	if a == b {
		return false
	}
	short, other := nbr[a], int32(b)
	if len(nbr[b]) < len(short) {
		short, other = nbr[b], int32(a)
	}
	if slices.Contains(short, other) {
		return false
	}
	nbr[a] = append(nbr[a], int32(b))
	nbr[b] = append(nbr[b], int32(a))
	return true
}

// wireStubs pairs stubs among the given nodes configuration-model style.
// Duplicate/self pairs are retried a bounded number of times and then
// dropped; LFR tolerates slight degree-sequence deviations.
func wireStubs(nbr [][]int32, nodes []int, stubCount func(int) int, rng *rand.Rand) {
	total := 0
	for _, v := range nodes {
		total += stubCount(v)
	}
	stubs := make([]int, 0, total)
	for _, v := range nodes {
		for i := 0; i < stubCount(v); i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	if len(stubs)%2 == 1 {
		stubs = stubs[:len(stubs)-1]
	}
	for i := 0; i+1 < len(stubs); i += 2 {
		a, b := stubs[i], stubs[i+1]
		if addUndirected(nbr, a, b) {
			continue
		}
		// Retry with random later partners (bounded rewiring repair).
		for attempt := 0; attempt < 16; attempt++ {
			j := i + 2 + 2*rng.Intn(max(1, (len(stubs)-i-2)/2))
			if j+1 >= len(stubs) {
				break
			}
			// Swap b with a later stub and try again.
			stubs[i+1], stubs[j] = stubs[j], stubs[i+1]
			b = stubs[i+1]
			if addUndirected(nbr, a, b) {
				break
			}
		}
	}
}

// wireExternal pairs inter-community stubs, preferring partners from other
// communities; after bounded retries it accepts any legal pair so that the
// target edge count is approached even for extreme mixing values.
func wireExternal(nbr [][]int32, membership []int, extStubs []int, rng *rand.Rand) {
	total := 0
	for _, c := range extStubs {
		total += c
	}
	stubs := make([]int, 0, total)
	for v, c := range extStubs {
		for i := 0; i < c; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	if len(stubs)%2 == 1 {
		stubs = stubs[:len(stubs)-1]
	}
	for i := 0; i+1 < len(stubs); i += 2 {
		a, b := stubs[i], stubs[i+1]
		if membership[a] != membership[b] && addUndirected(nbr, a, b) {
			continue
		}
		ok := false
		for attempt := 0; attempt < 16 && !ok; attempt++ {
			j := i + 2 + 2*rng.Intn(max(1, (len(stubs)-i-2)/2))
			if j+1 >= len(stubs) {
				break
			}
			stubs[i+1], stubs[j] = stubs[j], stubs[i+1]
			b = stubs[i+1]
			ok = membership[a] != membership[b] && addUndirected(nbr, a, b)
		}
		if !ok {
			// Last resort: allow an intra-community external edge.
			addUndirected(nbr, a, b)
		}
	}
}
