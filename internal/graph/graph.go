// Package graph provides the directed-graph model used throughout the
// repository: the ground-truth diffusion networks that experiments simulate
// on, and the inferred topologies that reconstruction algorithms return.
//
// Nodes are identified by dense integer indices in [0, N). Edges are
// directed; an edge (u, v) means u has an influence relationship to v, i.e.
// an infected u may infect v. The representation keeps both out- and
// in-adjacency so that simulators (which walk children) and inference code
// (which reasons about parents) are equally cheap. The two sorted adjacency
// lists are the only edge store: membership is a binary search, so an edge
// costs two ints and no index beside them.
//
// A graph known up front — a generated network, an inferred topology, a
// parsed file — is built in one counting pass by FromParents: all parent
// lists are carved from one backing array and all child lists from another,
// each with capacity equal to its length. AddEdge then reallocates only the
// list it grows, and RemoveEdge's in-place delete stays inside its own list.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Edge is a directed edge from From to To.
type Edge struct {
	From, To int
}

// Directed is a mutable directed graph over nodes 0..n-1.
//
// The zero value is not usable; create graphs with New. Methods that take
// node indices panic when an index is out of range, because an out-of-range
// node is always a programming error in this codebase (node sets are fixed
// up front by the problem statement).
type Directed struct {
	n        int
	out      [][]int // children per node, kept sorted
	in       [][]int // parents per node, kept sorted
	numEdges int
}

// New returns an empty directed graph with n nodes and no edges.
func New(n int) *Directed {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Directed{n: n, out: make([][]int, n), in: make([][]int, n)}
}

// FromParents returns the graph on nodes 0..n-1 with the edge (p, v) for
// every p in parents[v]: the graph that AddEdge(p, v) over all entries
// builds, without a sorted insert per edge. The lists may be unsorted and
// may repeat a node or name v itself; duplicates and self-loops are
// dropped. Nodes at or past len(parents) get no parents. The input is
// neither modified nor retained. It panics when len(parents) exceeds n or,
// as AddEdge does, when an entry is out of range.
func FromParents[T ~int | ~int32](n int, parents [][]T) *Directed {
	g := New(n)
	if len(parents) > n {
		panic(fmt.Sprintf("graph: %d parent lists for %d nodes", len(parents), n))
	}
	total := 0
	for _, ps := range parents {
		total += len(ps)
	}
	// Each list is copied in behind the ones already kept, then sorted and
	// compacted where it lies; the backing array keeps one slot per dropped
	// entry at its end.
	in := make([]int, total)
	children := make([]int32, n)
	m := 0
	for v, ps := range parents {
		seg := in[m : m+len(ps)]
		for i, p := range ps {
			g.check(int(p))
			seg[i] = int(p)
		}
		slices.Sort(seg)
		k := 0
		for _, u := range seg {
			if u != v && (k == 0 || seg[k-1] != u) {
				seg[k] = u
				k++
				children[u]++
			}
		}
		if k > 0 {
			g.in[v] = seg[:k:k]
		}
		m += k
	}
	// Carve each child list with room for exactly its children, then deal
	// every edge into its source's list. Targets come in ascending order,
	// so every child list comes out sorted.
	out := make([]int, m)
	for u, c := range children {
		if c > 0 {
			g.out[u], out = out[:0:c], out[c:]
		}
	}
	for v, ps := range g.in {
		for _, u := range ps {
			g.out[u] = append(g.out[u], v)
		}
	}
	g.numEdges = m
	return g
}

// NumNodes returns the number of nodes.
func (g *Directed) NumNodes() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Directed) NumEdges() int { return g.numEdges }

func (g *Directed) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, g.n))
	}
}

// HasEdge reports whether the directed edge (from, to) exists.
func (g *Directed) HasEdge(from, to int) bool {
	g.check(from)
	g.check(to)
	if len(g.out[from]) <= len(g.in[to]) {
		_, ok := slices.BinarySearch(g.out[from], to)
		return ok
	}
	_, ok := slices.BinarySearch(g.in[to], from)
	return ok
}

// AddEdge inserts the directed edge (from, to). Inserting an existing edge
// or a self-loop is a no-op; the method reports whether the edge was added.
func (g *Directed) AddEdge(from, to int) bool {
	g.check(from)
	g.check(to)
	if from == to {
		return false
	}
	i, ok := slices.BinarySearch(g.out[from], to)
	if ok {
		return false
	}
	g.out[from] = slices.Insert(g.out[from], i, to)
	j, _ := slices.BinarySearch(g.in[to], from)
	g.in[to] = slices.Insert(g.in[to], j, from)
	g.numEdges++
	return true
}

// RemoveEdge deletes the directed edge (from, to) and reports whether it
// existed.
func (g *Directed) RemoveEdge(from, to int) bool {
	g.check(from)
	g.check(to)
	i, ok := slices.BinarySearch(g.out[from], to)
	if !ok {
		return false
	}
	g.out[from] = slices.Delete(g.out[from], i, i+1)
	j, _ := slices.BinarySearch(g.in[to], from)
	g.in[to] = slices.Delete(g.in[to], j, j+1)
	g.numEdges--
	return true
}

// Children returns the nodes v such that (u, v) is an edge. The returned
// slice is sorted and must not be modified by the caller.
func (g *Directed) Children(u int) []int {
	g.check(u)
	return g.out[u]
}

// Parents returns the nodes v such that (v, u) is an edge. The returned
// slice is sorted and must not be modified by the caller.
func (g *Directed) Parents(u int) []int {
	g.check(u)
	return g.in[u]
}

// OutDegree returns the number of children of u.
func (g *Directed) OutDegree(u int) int {
	g.check(u)
	return len(g.out[u])
}

// InDegree returns the number of parents of u.
func (g *Directed) InDegree(u int) int {
	g.check(u)
	return len(g.in[u])
}

// Edges returns all edges sorted by (From, To). The slice is freshly
// allocated and owned by the caller.
func (g *Directed) Edges() []Edge {
	edges := make([]Edge, 0, g.numEdges)
	for u := 0; u < g.n; u++ {
		for _, v := range g.out[u] {
			edges = append(edges, Edge{u, v})
		}
	}
	return edges
}

// Clone returns a deep copy of g.
func (g *Directed) Clone() *Directed {
	c := New(g.n)
	for v := 0; v < g.n; v++ {
		c.out[v] = slices.Clone(g.out[v])
		c.in[v] = slices.Clone(g.in[v])
	}
	c.numEdges = g.numEdges
	return c
}

// Symmetrize adds the reverse of every edge, turning g into the directed
// version of an undirected graph. It returns the number of edges added.
func (g *Directed) Symmetrize() int {
	added := 0
	for _, e := range g.Edges() {
		if g.AddEdge(e.To, e.From) {
			added++
		}
	}
	return added
}

// Equal reports whether g and h have the same node count and edge set.
func (g *Directed) Equal(h *Directed) bool {
	if g.n != h.n || g.numEdges != h.numEdges {
		return false
	}
	for v := 0; v < g.n; v++ {
		if !slices.Equal(g.out[v], h.out[v]) {
			return false
		}
	}
	return true
}

// String returns a short human-readable summary.
func (g *Directed) String() string {
	return fmt.Sprintf("Directed(n=%d, m=%d)", g.n, g.numEdges)
}

// AverageDegree returns the total number of edges divided by the number of
// nodes, the edge-density measure the paper's Section V-C uses.
func (g *Directed) AverageDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.numEdges) / float64(g.n)
}

// DegreeStats summarizes the in-degree distribution of the graph.
type DegreeStats struct {
	Min, Max     int
	Mean, StdDev float64
}

// InDegreeStats computes summary statistics of the in-degree distribution.
func (g *Directed) InDegreeStats() DegreeStats {
	return degreeStats(g.in)
}

// OutDegreeStats computes summary statistics of the out-degree distribution.
func (g *Directed) OutDegreeStats() DegreeStats {
	return degreeStats(g.out)
}

func degreeStats(adj [][]int) DegreeStats {
	if len(adj) == 0 {
		return DegreeStats{}
	}
	s := DegreeStats{Min: len(adj[0])}
	var sum, sumSq float64
	for _, nb := range adj {
		d := len(nb)
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
		sum += float64(d)
		sumSq += float64(d) * float64(d)
	}
	n := float64(len(adj))
	s.Mean = sum / n
	variance := sumSq/n - s.Mean*s.Mean
	if variance < 0 {
		variance = 0
	}
	s.StdDev = math.Sqrt(variance)
	return s
}
