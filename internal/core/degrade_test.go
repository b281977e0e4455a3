package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"tends/internal/graph"
	"tends/internal/obs"
)

// edgeSet flattens a result's parent lists into a set of (parent, child)
// pairs for subset comparisons.
func edgeSet(res *Result) map[[2]int]bool {
	set := make(map[[2]int]bool)
	for child, parents := range res.Parents {
		for _, p := range parents {
			set[[2]int{p, child}] = true
		}
	}
	return set
}

func sameDegradeReport(a, b []NodeDegrade) bool {
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

// Without degradation knobs the report is empty and a cancelled context
// still fails inference outright.
func TestDegradeOffIsInert(t *testing.T) {
	g := graph.Chain(12)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.1, 2000, 1)
	res, err := Infer(sm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != 0 {
		t.Fatalf("degradation off, but Degraded = %v", res.Degraded)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := InferContext(ctx, sm, Options{}); err == nil {
		t.Fatal("cancelled context without degradation should fail inference")
	}
}

// A 1ns soft deadline degrades every node that has candidates: the report
// is deterministic for a fixed seed, every reason is DegradeDeadline, the
// kept parent sets are empty, and the predicted edges are a strict subset
// of the unconstrained run's. The same holds at Workers 1 and 4, with
// identical reports.
func TestDegradeDeadlineDeterministic(t *testing.T) {
	g := graph.Chain(12)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.1, 2000, 1)
	full, err := Infer(sm, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fullEdges := edgeSet(full)
	if len(fullEdges) == 0 {
		t.Fatal("unconstrained run predicted no edges; test needs a recoverable network")
	}

	var reports [][]NodeDegrade
	for _, workers := range []int{1, 4} {
		res, err := Infer(sm, Options{Workers: workers, NodeDeadline: time.Nanosecond})
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		if len(res.Degraded) == 0 {
			t.Fatalf("Workers=%d: 1ns deadline degraded no nodes", workers)
		}
		for _, d := range res.Degraded {
			if d.Reason != DegradeDeadline {
				t.Fatalf("Workers=%d: node %d degraded with %v, want deadline", workers, d.Node, d.Reason)
			}
			if len(res.Parents[d.Node]) != 0 {
				t.Fatalf("Workers=%d: node %d kept parents %v despite instant deadline", workers, d.Node, res.Parents[d.Node])
			}
		}
		got := edgeSet(res)
		if len(got) >= len(fullEdges) {
			t.Fatalf("Workers=%d: degraded run has %d edges, want strict subset of %d", workers, len(got), len(fullEdges))
		}
		for e := range got {
			if !fullEdges[e] {
				t.Fatalf("Workers=%d: degraded run predicted edge %v absent from the full run", workers, e)
			}
		}
		reports = append(reports, res.Degraded)
	}
	if !sameDegradeReport(reports[0], reports[1]) {
		t.Fatalf("degrade reports differ across worker counts:\n  w1: %v\n  w4: %v", reports[0], reports[1])
	}
}

// The combination budget cuts enumeration at a deterministic point, so two
// runs at any worker counts produce identical reports, parents, and obs
// counters — no wall clock involved.
func TestDegradeComboBudgetDeterministic(t *testing.T) {
	g := graph.Chain(12)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.1, 2000, 1)

	run := func(workers int) (*Result, int64) {
		rec := obs.New()
		ctx := obs.With(context.Background(), rec)
		res, err := InferContext(ctx, sm, Options{Workers: workers, ComboBudget: 1})
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		return res, rec.Snapshot().Counters["core/degraded/combo_budget"]
	}
	first, firstCount := run(1)
	if len(first.Degraded) == 0 {
		t.Fatal("ComboBudget=1 degraded no nodes on a dense chain")
	}
	for _, d := range first.Degraded {
		if d.Reason != DegradeComboBudget {
			t.Fatalf("node %d degraded with %v, want combo_budget", d.Node, d.Reason)
		}
	}
	if firstCount != int64(len(first.Degraded)) {
		t.Fatalf("obs counter %d != report size %d", firstCount, len(first.Degraded))
	}
	for _, workers := range []int{1, 4} {
		res, count := run(workers)
		if !sameDegradeReport(first.Degraded, res.Degraded) {
			t.Fatalf("Workers=%d report differs:\n  first: %v\n  again: %v", workers, first.Degraded, res.Degraded)
		}
		if count != firstCount {
			t.Fatalf("Workers=%d obs counter = %d, want %d", workers, count, firstCount)
		}
		for i := range first.Parents {
			if len(first.Parents[i]) != len(res.Parents[i]) {
				t.Fatalf("Workers=%d: node %d parents differ: %v vs %v", workers, i, first.Parents[i], res.Parents[i])
			}
			for k := range first.Parents[i] {
				if first.Parents[i][k] != res.Parents[i][k] {
					t.Fatalf("Workers=%d: node %d parents differ: %v vs %v", workers, i, first.Parents[i], res.Parents[i])
				}
			}
		}
	}
}

// flipCtx is a context whose Err flips permanently to context.Canceled
// after a fixed number of Err calls. Core only polls Err (never Done), and
// at Workers=1 the polling sequence is a deterministic function of the
// input, so this turns "cancelled mid-search" into a reproducible event.
type flipCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// Mid-search cancellation in degrade mode completes with DegradeCancelled
// nodes instead of failing, and every other node keeps exactly the parents
// the unconstrained run finds: each node is either searched in full or
// reported cancelled once, at one worker or several. Cancellation landing
// before the search stage still errors.
func TestDegradeCancelledKeepsPartialTopology(t *testing.T) {
	g := graph.Chain(12)
	g.Symmetrize()
	sm := simulateOn(t, g, 0.4, 0.1, 2000, 1)
	full, err := Infer(sm, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every node has parents in the full run, so a node the search lost
	// (neither searched nor reported) shows up as an empty parent set.
	for i, ps := range full.Parents {
		if len(ps) == 0 {
			t.Fatalf("full run: node %d has no parents; a lost node would go unnoticed", i)
		}
	}
	for _, workers := range []int{1, 4} {
		// A huge NodeDeadline arms degrade mode without ever cutting a
		// node itself, so every degradation below is attributable to the
		// flip.
		opt := Options{Workers: workers, NodeDeadline: time.Hour}

		// A context cancelled from the start must fail before the search
		// stage.
		pre, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := InferContext(pre, sm, opt); err == nil {
			t.Fatalf("Workers=%d: pre-cancelled context should error even in degrade mode", workers)
		}

		// Sweep the flip point forward until it lands inside the search
		// stage: early flips error at IMI (skip), late flips never cancel
		// (stop).
		for after := int64(1); ; after += 3 {
			ctx := &flipCtx{Context: context.Background(), after: after}
			res, err := InferContext(ctx, sm, opt)
			if err != nil {
				continue
			}
			if len(res.Degraded) == 0 {
				t.Fatalf("Workers=%d: flip never landed inside the search stage; no cancellation was observed", workers)
			}
			cut := make(map[int]bool)
			for _, d := range res.Degraded {
				if d.Reason != DegradeCancelled {
					t.Fatalf("Workers=%d: node %d degraded with %v, want cancelled", workers, d.Node, d.Reason)
				}
				if cut[d.Node] {
					t.Fatalf("Workers=%d: node %d reported cancelled twice", workers, d.Node)
				}
				cut[d.Node] = true
			}
			for i := range res.Parents {
				if !cut[i] && !equalParents(res.Parents[i], full.Parents[i]) {
					t.Fatalf("Workers=%d: uncut node %d parents %v differ from full run %v", workers, i, res.Parents[i], full.Parents[i])
				}
			}
			break
		}
	}
}
