package core

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"

	"tends/internal/graph"
)

// TestInferSkipNodes checks the shard resume primitive: skipped nodes
// keep empty parent sets without being reported degraded, and every other
// node's answer is identical to a run without skips.
func TestInferSkipNodes(t *testing.T) {
	g := graph.Chain(12)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.1, 1000, 3)
	full, err := Infer(sm, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	skip := map[int]bool{0: true, 5: true, 11: true, 99: true} // 99 out of range: ignored
	for _, workers := range []int{1, 4} {
		res, err := Infer(sm, Options{Workers: workers, SkipNodes: skip})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range res.Parents {
			if skip[i] {
				if len(res.Parents[i]) != 0 {
					t.Fatalf("workers=%d: skipped node %d has parents %v", workers, i, res.Parents[i])
				}
				continue
			}
			if !equalParents(res.Parents[i], full.Parents[i]) {
				t.Fatalf("workers=%d node %d: parents %v with skips, %v without", workers, i, res.Parents[i], full.Parents[i])
			}
		}
		for _, d := range res.Degraded {
			if skip[d.Node] {
				t.Fatalf("workers=%d: skipped node %d reported degraded (%v)", workers, d.Node, d.Reason)
			}
		}
		if res.Threshold != full.Threshold {
			t.Fatalf("workers=%d: threshold changed under SkipNodes: %v vs %v", workers, res.Threshold, full.Threshold)
		}
	}
}

// TestInferOnSearchStart checks the hook fires exactly once with the selected
// threshold, and that its error aborts the inference.
func TestInferOnSearchStart(t *testing.T) {
	g := graph.Chain(10)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.1, 600, 4)
	var calls int
	var seen float64
	res, err := Infer(sm, Options{OnSearchStart: func(tau float64) error {
		calls++
		seen = tau
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("OnSearchStart called %d times, want 1", calls)
	}
	if seen != res.Threshold {
		t.Fatalf("OnSearchStart saw threshold %v, result has %v", seen, res.Threshold)
	}

	boom := errors.New("header write failed")
	_, err = Infer(sm, Options{OnSearchStart: func(float64) error { return boom }})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "search start") {
		t.Fatalf("OnSearchStart error not propagated: %v", err)
	}
}

// TestInferOnNodeDone checks every searched node is reported exactly once
// with its final parents, at both serial and parallel worker counts.
func TestInferOnNodeDone(t *testing.T) {
	g := graph.Chain(12)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.1, 1000, 5)
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		got := make(map[int][]int)
		res, err := Infer(sm, Options{
			Workers:   workers,
			SkipNodes: map[int]bool{3: true},
			OnNodeDone: func(node int, parents []int) error {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := got[node]; dup {
					return errors.New("duplicate callback")
				}
				got[node] = append([]int(nil), parents...)
				return nil
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var nodes []int
		for n := range got {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		if len(nodes) != sm.N()-1 {
			t.Fatalf("workers=%d: %d callbacks for %d searchable nodes (%v)", workers, len(nodes), sm.N()-1, nodes)
		}
		for n, ps := range got {
			if n == 3 {
				t.Fatalf("workers=%d: skipped node reached OnNodeDone", workers)
			}
			if !equalParents(ps, res.Parents[n]) {
				t.Fatalf("workers=%d node %d: callback saw %v, result has %v", workers, n, ps, res.Parents[n])
			}
		}
	}
}

// TestInferOnNodeDoneError checks the first callback error cancels the
// remaining search and fails the inference.
func TestInferOnNodeDoneError(t *testing.T) {
	g := graph.Chain(12)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.1, 600, 6)
	boom := errors.New("journal append failed")
	for _, workers := range []int{1, 4} {
		_, err := Infer(sm, Options{
			Workers:    workers,
			OnNodeDone: func(int, []int) error { return boom },
		})
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "node callback") {
			t.Fatalf("workers=%d: OnNodeDone error not propagated: %v", workers, err)
		}
	}
}

func equalParents(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
