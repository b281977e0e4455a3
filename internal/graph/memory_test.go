package graph

import (
	"math/rand"
	"runtime"
	"testing"
)

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestGraphBytesPerEdge bounds the resident cost of an edge. The sorted
// adjacency lists are the only edge store: an edge is one int in its
// source's child list and one in its target's parent list, plus the
// lists' growth slack. An edge index beside them (a hash set of Edge
// values) would hold about 60 bytes per edge at this size.
func TestGraphBytesPerEdge(t *testing.T) {
	const n, m = 10_000, 100_000
	rng := rand.New(rand.NewSource(1))
	before := liveHeap()
	g := New(n)
	for g.NumEdges() < m {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	after := liveHeap()
	runtime.KeepAlive(g)
	perEdge := float64(after-before) / m
	t.Logf("%.1f live heap bytes per edge", perEdge)
	if perEdge > 40 {
		t.Fatalf("graph holds %.1f live heap bytes per edge, want ≤ 40", perEdge)
	}
}

// TestFromParentsBytesPerEdge bounds the resident cost of an edge in a
// bulk-built graph. Its lists are carved from two exact-size arrays, so an
// edge is two ints with no growth slack, plus each node's two slice
// headers spread over its edges: 16 + 48·n/m = 20.8 bytes here, against
// TestGraphBytesPerEdge's 26 for the same graph grown by AddEdge.
func TestFromParentsBytesPerEdge(t *testing.T) {
	const n, m = 10_000, 100_000
	build := func() *Directed {
		rng := rand.New(rand.NewSource(1))
		parents := make([][]int32, n)
		for i := 0; i < m; i++ {
			v := rng.Intn(n)
			parents[v] = append(parents[v], int32(rng.Intn(n)))
		}
		return FromParents(n, parents)
	}
	before := liveHeap()
	g := build()
	after := liveHeap()
	runtime.KeepAlive(g)
	perEdge := float64(after-before) / float64(g.NumEdges())
	t.Logf("%.1f live heap bytes per edge (%d edges)", perEdge, g.NumEdges())
	if perEdge > 22 {
		t.Fatalf("bulk-built graph holds %.1f live heap bytes per edge, want ≤ 22", perEdge)
	}
}
