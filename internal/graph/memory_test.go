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
