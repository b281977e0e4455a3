package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzRead exercises the graph parser with arbitrary input: it must never
// panic, and anything it accepts must survive a write/read round trip.
func FuzzRead(f *testing.F) {
	f.Add("nodes 3\n0 1\n1 2\n")
	f.Add("nodes 0\n")
	f.Add("# comment\nnodes 2\n\n0 1\n")
	f.Add("nodes -1\n")
	f.Add("nodes 3\n0 99\n")
	f.Add("nodes 3\nx y\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("accepted graph failed to serialize: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("own serialization rejected: %v", err)
		}
		if !g.Equal(back) {
			t.Fatal("round trip changed the graph")
		}
	})
}

// FuzzWriteRoundTrip drives the serializer from structured input: an
// arbitrary graph is built from the fuzzed byte string, written, re-read,
// and written again. The read-back must equal the original and the second
// serialization must be byte-identical to the first — the determinism the
// golden-file tests (and the checkpoint/resume protocol) rely on.
func FuzzWriteRoundTrip(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 1, 2})
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0, 0})
	f.Add(uint8(200), []byte{199, 0, 5, 5, 0, 199})
	f.Fuzz(func(t *testing.T, n uint8, edges []byte) {
		g := New(int(n))
		for i := 0; i+1 < len(edges); i += 2 {
			from, to := int(edges[i]), int(edges[i+1])
			if from < int(n) && to < int(n) {
				g.AddEdge(from, to)
			}
		}
		var first bytes.Buffer
		if err := Write(&first, g); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("own serialization rejected: %v", err)
		}
		if !g.Equal(back) {
			t.Fatal("round trip changed the graph")
		}
		var second bytes.Buffer
		if err := Write(&second, back); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("serialization not byte-stable:\nfirst:\n%s\nsecond:\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzGraphOps drives a graph through a fuzzed sequence of AddEdge,
// RemoveEdge and HasEdge calls and checks it after every step against a
// plain edge-set model: return values, NumEdges, Edges, and sorted Children
// and Parents. At the end Clone must be Equal and independent, and
// Reciprocity must match the model.
func FuzzGraphOps(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0x01, 0, 0x01, 2, 0x01, 1, 0x01, 1, 0x01})
	f.Add(uint8(3), []byte{0, 0x00, 0, 0x12, 0, 0x21, 2, 0x12, 1, 0x21})
	f.Add(uint8(8), []byte{0, 0x07, 0, 0x70, 0, 0x17, 0, 0x71, 1, 0x07, 2, 0x70})
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		n := 1 + int(size%16)
		g := New(n)
		model := map[Edge]bool{}
		for i := 0; i+1 < len(ops); i += 2 {
			from, to := int(ops[i+1]>>4)%n, int(ops[i+1]&15)%n
			e := Edge{from, to}
			switch ops[i] % 3 {
			case 0:
				want := from != to && !model[e]
				if got := g.AddEdge(from, to); got != want {
					t.Fatalf("step %d: AddEdge(%d, %d) = %v, want %v", i/2, from, to, got, want)
				}
				if want {
					model[e] = true
				}
			case 1:
				want := model[e]
				if got := g.RemoveEdge(from, to); got != want {
					t.Fatalf("step %d: RemoveEdge(%d, %d) = %v, want %v", i/2, from, to, got, want)
				}
				delete(model, e)
			case 2:
				if got := g.HasEdge(from, to); got != model[e] {
					t.Fatalf("step %d: HasEdge(%d, %d) = %v, want %v", i/2, from, to, got, model[e])
				}
			}
			checkAgainstModel(t, g, model)
		}

		c := g.Clone()
		if !c.Equal(g) || !g.Equal(c) {
			t.Fatal("clone not Equal to the original")
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if !c.RemoveEdge(u, v) {
					c.AddEdge(u, v)
				}
			}
		}
		checkAgainstModel(t, g, model)
		if n > 1 && c.Equal(g) {
			t.Fatal("complemented clone still Equal to the original")
		}

		mutual := 0
		for e := range model {
			if model[Edge{e.To, e.From}] {
				mutual++
			}
		}
		want := 0.0
		if len(model) > 0 {
			want = float64(mutual) / float64(len(model))
		}
		if got := g.Reciprocity(); got != want {
			t.Fatalf("Reciprocity = %v, want %v", got, want)
		}
	})
}

// FuzzFromParents checks the bulk constructor against the AddEdge build
// of the same parent lists: n ≤ 64 nodes, lists that may be unsorted,
// repeat entries, name their own node, or stop short of n. Both graphs
// must agree on Equal, NumEdges and every Children and Parents list, each
// list must have no capacity beyond its length, and the input must be left
// as it was. Then the same AddEdge/RemoveEdge sequence runs on both; the
// bulk graph's lists share two backing arrays, so a write that spilled
// into a neighbouring list would break Equal.
func FuzzFromParents(f *testing.F) {
	f.Add(uint8(4), uint8(4), []byte{1, 0, 1, 0, 1, 1, 0, 3, 0, 2}, []byte{0, 3, 1, 1, 0, 1, 0, 2, 3})
	f.Add(uint8(2), uint8(1), []byte{0, 1, 0, 0}, []byte{1, 1, 0})
	f.Add(uint8(63), uint8(40), []byte{39, 63, 39, 0, 39, 63, 5, 9, 9, 5}, []byte{0, 9, 5, 1, 5, 9, 0, 0, 63})
	f.Fuzz(func(t *testing.T, size, lists uint8, entries, ops []byte) {
		n := 1 + int(size%64)
		parents := make([][]int, int(lists)%(n+1))
		for i := 0; i+1 < len(entries) && len(parents) > 0; i += 2 {
			v := int(entries[i]) % len(parents)
			parents[v] = append(parents[v], int(entries[i+1])%n)
		}
		want := New(n)
		narrow := make([][]int32, len(parents))
		input := make([][]int, len(parents))
		for v, ps := range parents {
			input[v] = slices.Clone(ps)
			for _, p := range ps {
				want.AddEdge(p, v)
				narrow[v] = append(narrow[v], int32(p))
			}
		}
		g := FromParents(n, parents)
		for v := range parents {
			if !slices.Equal(parents[v], input[v]) {
				t.Fatalf("parents[%d] = %v after the build, was %v", v, parents[v], input[v])
			}
		}
		sameGraph(t, g, want)
		if !FromParents(n, narrow).Equal(want) {
			t.Fatal("the int32 lists built a different graph")
		}
		for u := 0; u < n; u++ {
			if c, p := g.Children(u), g.Parents(u); cap(c) != len(c) || cap(p) != len(p) {
				t.Fatalf("node %d: children len %d cap %d, parents len %d cap %d", u, len(c), cap(c), len(p), cap(p))
			}
		}

		for i := 0; i+2 < len(ops); i += 3 {
			from, to := int(ops[i+1])%n, int(ops[i+2])%n
			if ops[i]%2 == 0 {
				if got, w := g.AddEdge(from, to), want.AddEdge(from, to); got != w {
					t.Fatalf("step %d: AddEdge(%d, %d) = %v, want %v", i/3, from, to, got, w)
				}
			} else if got, w := g.RemoveEdge(from, to), want.RemoveEdge(from, to); got != w {
				t.Fatalf("step %d: RemoveEdge(%d, %d) = %v, want %v", i/3, from, to, got, w)
			}
			sameGraph(t, g, want)
		}
	})
}

// sameGraph checks that g and want agree on Equal, NumEdges, and every
// Children and Parents list.
func sameGraph(t *testing.T, g, want *Directed) {
	t.Helper()
	if !g.Equal(want) || !want.Equal(g) {
		t.Fatalf("graph %v not Equal to %v", g.Edges(), want.Edges())
	}
	if g.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), want.NumEdges())
	}
	for u := 0; u < g.NumNodes(); u++ {
		if !slices.Equal(g.Children(u), want.Children(u)) {
			t.Fatalf("Children(%d) = %v, want %v", u, g.Children(u), want.Children(u))
		}
		if !slices.Equal(g.Parents(u), want.Parents(u)) {
			t.Fatalf("Parents(%d) = %v, want %v", u, g.Parents(u), want.Parents(u))
		}
	}
}

// checkAgainstModel compares every edge view of g with the model edge set.
func checkAgainstModel(t *testing.T, g *Directed, model map[Edge]bool) {
	t.Helper()
	if g.NumEdges() != len(model) {
		t.Fatalf("NumEdges = %d, model has %d", g.NumEdges(), len(model))
	}
	var want []Edge
	children := make([][]int, g.NumNodes())
	parents := make([][]int, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			if model[Edge{u, v}] {
				want = append(want, Edge{u, v})
				children[u] = append(children[u], v)
			}
			if model[Edge{v, u}] {
				parents[u] = append(parents[u], v)
			}
		}
	}
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Fatalf("Edges = %v, want %v", got, want)
	}
	for u := 0; u < g.NumNodes(); u++ {
		if !slices.Equal(g.Children(u), children[u]) {
			t.Fatalf("Children(%d) = %v, want %v", u, g.Children(u), children[u])
		}
		if !slices.Equal(g.Parents(u), parents[u]) {
			t.Fatalf("Parents(%d) = %v, want %v", u, g.Parents(u), parents[u])
		}
	}
}
