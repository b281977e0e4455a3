package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tends/internal/chaos"
	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/obs"
)

// Options tunes the TENDS algorithm. The zero value reproduces the paper's
// configuration.
type Options struct {
	// MaxComboSize bounds the size of the parent-node combinations W
	// enumerated per node (the paper's η). Values above it are never
	// enumerated even when Theorem 2 would allow them, keeping the
	// combination count polynomial. 0 means the default of 2.
	MaxComboSize int

	// ThresholdScale multiplies the automatically selected pruning
	// threshold τ, the sweep of Figs. 10–11. 0 means 1 (use τ as found);
	// negative, NaN or +Inf is an error.
	ThresholdScale float64

	// FixedThreshold, when non-nil, bypasses threshold selection entirely
	// and prunes with the given absolute IMI value. NaN is an error; ±Inf
	// keep every candidate or none.
	FixedThreshold *float64

	// TraditionalMI replaces infection MI with plain mutual information in
	// the pruning stage (the ablation of Figs. 10–11).
	TraditionalMI bool

	// ThresholdMethod selects how the pruning threshold τ is derived from
	// the pairwise values; see the constants for the trade-offs.
	// ThresholdScale multiplies whichever threshold is selected.
	ThresholdMethod ThresholdMethod

	// FDRAlpha is the false-discovery-rate level used by ThresholdAuto and
	// ThresholdFDR; after defaults it must lie in (0,1), whatever the
	// method. 0 means the default of 0.2, which lands the threshold
	// at the F-score optimum across the calibration workloads; note the
	// IMI statistic undershoots the χ²(1) null it is tested against, so
	// the realized false-discovery rate is far below this nominal level.
	FDRAlpha float64

	// Penalty selects the statistical-error penalty of the local score;
	// the zero value is the paper's Eq. (13) penalty. See PenaltyMode.
	Penalty PenaltyMode

	// DisableBound ignores the Theorem-2 upper bound (ablation).
	DisableBound bool

	// StaticGreedy follows Algorithm 1 literally: combinations are ranked
	// once by their standalone score g(v_i, W) and merged in that order
	// subject only to the Theorem-2 bound. The default (false) follows the
	// prose of Section IV-A: a combination is merged only when it improves
	// the current g(v_i, F_i), recomputed as F_i grows — which is both
	// closer to the described greedy and more precise.
	StaticGreedy bool

	// Workers sets the number of goroutines searching parent sets; the
	// per-node searches are independent, so the output is identical for
	// any worker count. 0 means GOMAXPROCS; 1 forces serial execution.
	Workers int

	// BackwardPrune adds a backward-elimination pass after the greedy
	// expansion: parents whose removal does not decrease g(v_i, F_i) are
	// dropped, to a fixpoint. The forward greedy merges whole combinations
	// and can strand a member whose contribution the rest of the set
	// already explains; the backward pass cleans those up, trading a
	// little extra scoring work for precision. An extension beyond the
	// paper's Algorithm 1 (off by default).
	BackwardPrune bool

	// NodeDeadline is a soft per-node deadline on the parent-set search.
	// A node whose enumeration or greedy merge outlives it keeps its
	// best-so-far parent set instead of failing the inference, and the node
	// is reported in Result.Degraded with DegradeDeadline. Wall-clock based,
	// so WHICH work survives the cut is timing-dependent; the result is
	// still always a valid (possibly empty) parent set. 0 disables it.
	NodeDeadline time.Duration

	// ComboBudget caps the combinations enumerated per node. A node whose
	// enumeration hits the cap merges only the combinations found so far and
	// is reported in Result.Degraded with DegradeComboBudget. Unlike
	// NodeDeadline this cut is deterministic: enumeration order is fixed, so
	// the same inputs degrade identically at any worker count. The budget is
	// checked between top-level enumeration subtrees, so it can overshoot by
	// one subtree. 0 disables it.
	ComboBudget int

	// Sparse is read by nothing: the pairwise stage chooses how it counts
	// joint infections from the observations (see SparseIMI).
	//
	// Deprecated: setting it changes nothing.
	Sparse bool

	// SkipNodes marks nodes whose parent-set search is skipped entirely:
	// they keep empty parent sets and are NOT reported in Result.Degraded.
	// A resumed scale shard (-shard-resume) uses it to continue a killed
	// shard from its partial journal — already-journaled nodes are skipped
	// and their recorded parents folded back in by the caller. Indices
	// outside [0, n) are ignored.
	SkipNodes map[int]bool

	// OnSearchStart, when non-nil, is called once after threshold selection
	// and before any parent-set search, with the global pruning threshold
	// the search will use. A returned error aborts the inference. The
	// scale shard worker uses it to write (or cross-check) its journal
	// header — the header carries τ, which is only known here — before node
	// records start streaming.
	OnSearchStart func(threshold float64) error

	// OnNodeDone, when non-nil, is called after each searched node with its
	// final parent set (nodes outside the shard or in SkipNodes are never
	// reported). Calls come from the search workers, possibly concurrently;
	// the callback must be safe for concurrent use. The first returned
	// error cancels the remaining search and fails the inference (unless
	// degradation is enabled, in which case the error still fails the
	// inference after the degraded search drains). The scale shard worker
	// uses it to journal each node as soon as it completes.
	OnNodeDone func(node int, parents []int) error

	// ShardIndex/ShardCount split the node-local parent search across
	// processes: with ShardCount = k > 1, only nodes i with i mod k ==
	// ShardIndex are searched; the rest keep empty parent sets. The
	// pairwise stage and the global threshold are still computed in full
	// (they are cheap next to the search and must be identical across
	// shards), so concatenating the per-node results of all k shards
	// reproduces the unsharded topology exactly — the score decomposes
	// node-locally (Eq. 13). Result.Score covers only the shard's nodes'
	// local scores plus the empty-set scores of the others; merge tooling
	// recomputes the full-topology score. ShardCount 0 or 1 disables
	// sharding (ShardIndex must then be 0).
	ShardIndex int
	ShardCount int
}

// degradeMode reports whether graceful degradation is enabled: with either
// limit set, a node search cut short — by its deadline, its budget, or a
// cancelled context — keeps its best-so-far parents instead of erroring the
// whole inference.
func (o Options) degradeMode() bool {
	return o.NodeDeadline > 0 || o.ComboBudget > 0
}

// DegradeReason says why a node's parent-set search was cut short.
type DegradeReason uint8

const (
	// DegradeNone marks an undegraded node (never reported).
	DegradeNone DegradeReason = iota
	// DegradeDeadline: the node breached Options.NodeDeadline.
	DegradeDeadline
	// DegradeComboBudget: the node's enumeration hit Options.ComboBudget.
	DegradeComboBudget
	// DegradeCancelled: the context fired (cell timeout or run cancellation)
	// while the node's search was running or still queued.
	DegradeCancelled
)

// String returns the reason's report name.
func (r DegradeReason) String() string {
	switch r {
	case DegradeNone:
		return "none"
	case DegradeDeadline:
		return "deadline"
	case DegradeComboBudget:
		return "combo_budget"
	case DegradeCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("DegradeReason(%d)", int(r))
	}
}

// NodeDegrade is one degraded node of a DegradeReport.
type NodeDegrade struct {
	Node   int
	Reason DegradeReason
}

// ThresholdMethod enumerates the pruning-threshold selection strategies.
type ThresholdMethod int

const (
	// ThresholdAuto (the default) takes the larger of the K-means and FDR
	// thresholds: a candidate must sit in the K-means significant cluster
	// AND be statistically significant under FDR control. The two rules
	// fail in opposite regimes — K-means collapses into the noise shoulder
	// on large networks where true edges are a vanishing fraction of all
	// pairs, while pure FDR admits real-but-indirect dependencies when β
	// is very large — and their maximum is robust across both.
	ThresholdAuto ThresholdMethod = iota
	// ThresholdKMeans is the paper's Section IV-B heuristic: one modified
	// K-means (K=2, one centroid pinned at 0) over all non-negative
	// pairwise values; τ is the largest value in the near-zero cluster.
	ThresholdKMeans
	// ThresholdKMeansPerNode runs the paper's K-means separately over the
	// values involving each node, yielding per-node thresholds τ_i.
	ThresholdKMeansPerNode
	// ThresholdFDR calibrates the pairwise values against the χ²(1) null
	// and runs Benjamini–Hochberg at FDRAlpha, with no clustering.
	ThresholdFDR
)

func (o Options) withDefaults() Options {
	if o.MaxComboSize == 0 {
		o.MaxComboSize = 2
	}
	if o.ThresholdScale == 0 {
		o.ThresholdScale = 1
	}
	if o.FDRAlpha == 0 {
		o.FDRAlpha = 0.2
	}
	return o
}

// Result carries the inferred topology along with the intermediate
// artifacts that the experiments and diagnostics report on.
type Result struct {
	Graph     *graph.Directed
	Threshold float64 // the global pruning threshold (after scaling/override)
	AutoTau   float64 // the global τ selected by the K-means heuristic
	// NodeThresholds holds the per-node τ_i actually applied under
	// ThresholdKMeansPerNode; nil for the global methods.
	NodeThresholds []float64
	Parents        [][]int // parent set per node
	Score          float64 // g(T) of the inferred topology
	// Degraded is the degradation report: the nodes whose parent-set search
	// was cut short (by Options.NodeDeadline, Options.ComboBudget, or
	// cancellation while degradation is enabled), ascending by node. Each
	// kept its best-so-far parents — a subset of what a full search finds.
	// Empty when every node searched to completion.
	Degraded []NodeDegrade
}

// Infer reconstructs the diffusion network topology from final infection
// statuses, per Algorithm 1 of the paper.
func Infer(sm *diffusion.StatusMatrix, opt Options) (*Result, error) {
	return InferContext(context.Background(), sm, opt)
}

// InferContext is Infer with cooperative cancellation: the IMI stage checks
// the context between matrix rows and the parent-set search between nodes
// (and between greedy merges inside a node's search), so a cancelled or
// timed-out context makes inference return promptly with the context's
// error instead of running to completion. The inferred topology for a
// context that never fires is identical to Infer's.
//
// With graceful degradation enabled (Options.NodeDeadline or ComboBudget
// set), a context that fires during the parent-set search no longer fails
// the inference: nodes already searched keep their parents, interrupted and
// unsearched nodes keep their best-so-far (possibly empty) sets, and every
// cut-short node is listed in Result.Degraded. Cancellation before the
// search stage (during IMI or thresholding) still errors — there is no
// partial topology to salvage there.
func InferContext(ctx context.Context, sm *diffusion.StatusMatrix, opt Options) (*Result, error) {
	return infer(ctx, sm, opt, autoStep)
}

// infer is InferContext with the pairwise stage counting joint infections
// by step.
func infer(ctx context.Context, sm *diffusion.StatusMatrix, opt Options, step countStep) (*Result, error) {
	opt = opt.withDefaults()
	if err := chaos.Maybe(ctx, chaos.SiteCoreInfer); err != nil {
		return nil, err
	}
	if err := validateOptions(sm, opt); err != nil {
		return nil, err
	}

	// Telemetry: nil handles (no recorder in ctx) make every update below a
	// free no-op; inference output is never affected.
	rec := obs.From(ctx)
	defer rec.StartSpan("core/infer").End()

	// One Scorer reads the observations for every stage: the pairwise
	// build takes its counts and columns or lists from it, and the search
	// scores with it. τ is selected between the build's two walks, so the
	// second keeps only the pairs the search can use.
	scorer := NewScorer(sm)
	var autoTau, tau float64
	imi, err := buildSparse(ctx, scorer, opt.TraditionalMI, opt.Workers, step, func(s *SparseIMI) float64 {
		autoTau, tau = selectThreshold(ctx, s, sm.Beta(), opt)
		return s.keepFloor(tau, opt.perNode())
	})
	if err != nil {
		return nil, fmt.Errorf("core: IMI stage: %w", err)
	}
	return inferStages(ctx, scorer, imi, opt, autoTau, tau)
}

// validateOptions rejects inconsistent inference inputs; it is shared by
// InferContext and the incremental-count entry point so both fail the same
// way on the same misconfigurations.
func validateOptions(sm *diffusion.StatusMatrix, opt Options) error {
	if sm.N() == 0 {
		return fmt.Errorf("core: status matrix has no nodes")
	}
	if sm.Beta() == 0 {
		return fmt.Errorf("core: status matrix has no observations")
	}
	if opt.MaxComboSize < 1 {
		return fmt.Errorf("core: MaxComboSize must be >= 1, got %d", opt.MaxComboSize)
	}
	if opt.ThresholdScale < 0 || math.IsNaN(opt.ThresholdScale) || math.IsInf(opt.ThresholdScale, 1) {
		return fmt.Errorf("core: ThresholdScale must be finite and non-negative, got %v", opt.ThresholdScale)
	}
	if opt.FixedThreshold != nil && math.IsNaN(*opt.FixedThreshold) {
		return fmt.Errorf("core: FixedThreshold must not be NaN")
	}
	if !(opt.FDRAlpha > 0 && opt.FDRAlpha < 1) {
		return fmt.Errorf("core: FDRAlpha must be in (0,1), got %v", opt.FDRAlpha)
	}
	if opt.ShardCount < 0 {
		return fmt.Errorf("core: ShardCount must be non-negative, got %d", opt.ShardCount)
	}
	if opt.ShardCount > 0 && (opt.ShardIndex < 0 || opt.ShardIndex >= opt.ShardCount) {
		return fmt.Errorf("core: ShardIndex %d outside [0,%d)", opt.ShardIndex, opt.ShardCount)
	}
	if opt.ShardCount == 0 && opt.ShardIndex != 0 {
		return fmt.Errorf("core: ShardIndex %d set without ShardCount", opt.ShardIndex)
	}
	if opt.ThresholdMethod < ThresholdAuto || opt.ThresholdMethod > ThresholdFDR {
		return fmt.Errorf("core: unknown threshold method %d", opt.ThresholdMethod)
	}
	return nil
}

// perNode reports whether the search prunes each node at its own τ_i.
func (o Options) perNode() bool {
	return o.FixedThreshold == nil && o.ThresholdMethod == ThresholdKMeansPerNode
}

// selectThreshold is the global threshold stage of paper §IV-B: it returns
// the automatically selected τ over the engine's value pool, and the
// threshold the search prunes with after scaling or a fixed override. The
// automatic τ is selected even when a fixed threshold overrides it, so
// Result.AutoTau always reports it.
func selectThreshold(ctx context.Context, imi *SparseIMI, beta int, opt Options) (autoTau, tau float64) {
	defer obs.From(ctx).StartSpan("core/threshold").End()
	// Every selector consumes the same run-length value pool; no second
	// O(n²) triangle is materialized.
	pool := imi.valuePool()
	switch opt.ThresholdMethod {
	case ThresholdAuto:
		autoTau = max(pool.twoMeansTau(), pool.fdrTau(beta, opt.FDRAlpha))
	case ThresholdFDR:
		autoTau = pool.fdrTau(beta, opt.FDRAlpha)
	default: // ThresholdKMeans, ThresholdKMeansPerNode; validateOptions rejects the rest
		autoTau = pool.twoMeansTau()
	}
	tau = autoTau * opt.ThresholdScale
	if opt.FixedThreshold != nil {
		tau = *opt.FixedThreshold
	}
	return autoTau, tau
}

// inferStages runs everything after the global threshold stage — per-node
// thresholds, the per-node parent search, degradation reporting, and
// scoring with scorer — over the pairwise engine, pruning at tau (autoTau
// is reported as Result.AutoTau). The batch build, by either counting
// step, and the incremental counts all produce bit-identical engines, so
// the stages (and therefore the inferred topology) do not depend on how
// the engine was built.
func inferStages(ctx context.Context, scorer *Scorer, imi *SparseIMI, opt Options, autoTau, tau float64) (*Result, error) {
	rec := obs.From(ctx)
	tel := coreTel{
		combos:    rec.Counter("core/search/combos"),
		merges:    rec.Counter("core/search/merges"),
		probes:    rec.Counter("core/search/probes"),
		probeHits: rec.Counter("core/search/probe_hits"),
		tallies:   rec.Counter("core/search/tallies"),
	}

	scorer.SetPenaltyMode(opt.Penalty)
	n := scorer.N()
	res := &Result{
		Threshold: tau,
		AutoTau:   autoTau,
		Parents:   make([][]int, n),
	}
	perNode := opt.perNode()
	if perNode {
		thresholdSpan := rec.StartSpan("core/threshold")
		res.NodeThresholds = make([]float64, n)
		for i := 0; i < n; i++ {
			res.NodeThresholds[i] = imi.nodePool(i).twoMeansTau() * opt.ThresholdScale
		}
		thresholdSpan.End()
	}
	if opt.OnSearchStart != nil {
		if err := opt.OnSearchStart(tau); err != nil {
			return nil, fmt.Errorf("core: search start: %w", err)
		}
	}
	searchSpan := rec.StartSpan("core/search")
	degrade := opt.degradeMode()
	inShard := func(i int) bool {
		return (opt.ShardCount <= 1 || i%opt.ShardCount == opt.ShardIndex) && !opt.SkipNodes[i]
	}
	// OnNodeDone errors cancel the remaining search through a sub-context;
	// the first error wins and fails the inference after the workers drain.
	sctx := ctx
	var hookMu sync.Mutex
	var hookErr error
	onNodeErr := func(err error) {}
	if opt.OnNodeDone != nil {
		var cancel context.CancelFunc
		sctx, cancel = context.WithCancel(ctx)
		defer cancel()
		onNodeErr = func(err error) {
			hookMu.Lock()
			if hookErr == nil {
				hookErr = err
				cancel()
			}
			hookMu.Unlock()
		}
	}
	reasons := make([]DegradeReason, n)
	searchNode := func(i int, sc *scratch) {
		nodeTau := tau
		if perNode {
			nodeTau = res.NodeThresholds[i]
		}
		cands := nodeCandidates(imi, i, nodeTau)
		res.Parents[i], reasons[i] = searchParents(sctx, scorer, i, cands, opt, tel, sc)
		// Only fully searched nodes reach the callback: a node cut short
		// (degraded or cancelled) has a partial answer the journal must not
		// record as complete.
		if opt.OnNodeDone != nil && reasons[i] == DegradeNone {
			if err := opt.OnNodeDone(i, res.Parents[i]); err != nil {
				onNodeErr(err)
			}
		}
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// Workers claim one node at a time from a shared counter, so load
	// balances node by node without a channel handoff per node. The
	// per-node searches only read the scorer and the pairwise engine; each worker
	// writes a disjoint slot of res.Parents, reasons and scores, so the
	// output is identical for any worker count. The worker that settles a
	// node's parents also scores them (Eq. 13), and g(T) is their sum in
	// node order, as TotalScore sums it.
	scores := make([]float64, n)
	var nextNode atomic.Int64
	searchRange := func() {
		sc := scorer.newScratch()
		for {
			i := int(nextNode.Add(1)) - 1
			if i >= n {
				return
			}
			switch {
			case !inShard(i):
			case sctx.Err() != nil:
				// Claim the rest without searching; in degrade mode the
				// skipped node is reported, not lost.
				if degrade {
					reasons[i] = DegradeCancelled
				}
			default:
				searchNode(i, sc)
			}
			scores[i] = sc.nodeScore(scorer, i, res.Parents[i])
		}
	}
	if workers <= 1 {
		searchRange()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() { defer wg.Done(); searchRange() }()
		}
		wg.Wait()
	}
	searchSpan.End()
	hookMu.Lock()
	ferr := hookErr
	hookMu.Unlock()
	if ferr != nil {
		return nil, fmt.Errorf("core: node callback: %w", ferr)
	}
	if err := ctx.Err(); err != nil && !degrade {
		return nil, fmt.Errorf("core: parent search: %w", err)
	}
	var deadlineC, budgetC, cancelC *obs.Counter
	for i, r := range reasons {
		if r == DegradeNone {
			continue
		}
		res.Degraded = append(res.Degraded, NodeDegrade{Node: i, Reason: r})
		switch r {
		case DegradeDeadline:
			if deadlineC == nil {
				deadlineC = rec.Counter("core/degraded/deadline")
			}
			deadlineC.Inc()
		case DegradeComboBudget:
			if budgetC == nil {
				budgetC = rec.Counter("core/degraded/combo_budget")
			}
			budgetC.Inc()
		case DegradeCancelled:
			if cancelC == nil {
				cancelC = rec.Counter("core/degraded/cancelled")
			}
			cancelC.Inc()
		}
	}
	res.Graph = graph.FromParents(n, res.Parents)
	for _, g := range scores {
		res.Score += g
	}
	return res, nil
}

// maxCandidates caps each node's candidate parents. Saturated diffusions
// (large α·n, high μ) can leave a hundred-plus weakly correlated
// candidates per node, which the paper's κ ≪ n assumption does not
// anticipate; the cap bounds the combination enumeration there, and keeps
// every candidate pool within the 64 bits of a combination's mask. True
// parents carry the largest pairwise values, so the cap rarely costs
// recall.
const maxCandidates = 32

// nodeCandidates returns node i's candidate parents in ascending order: the
// nodes whose pairwise value with i exceeds tau, cut to the maxCandidates
// largest values.
func nodeCandidates(imi *SparseIMI, i int, tau float64) []int {
	cands := imi.Candidates(i, tau)
	if len(cands) > maxCandidates {
		sort.Slice(cands, func(a, b int) bool { return imi.At(i, cands[a]) > imi.At(i, cands[b]) })
		cands = cands[:maxCandidates]
		sort.Ints(cands)
	}
	return cands
}

// coreTel bundles the telemetry handles the per-node searches update; the
// zero value (nil counters) is a valid no-op.
type coreTel struct {
	combos    *obs.Counter // combinations enumerated across all nodes
	merges    *obs.Counter // greedy merge steps accepted across all nodes
	probes    *obs.Counter // merge-phase score evaluations computed across all nodes
	probeHits *obs.Counter // merge probes answered by the round's memo instead
	tallies   *obs.Counter // round tallies built for one- and two-node probes
}

// searchParents runs the greedy most-probable-parent-set search for one
// node over the pruned candidate set, returning the parents and the reason
// the search was cut short (DegradeNone when it ran to completion). A
// cancelled context makes it bail out between phases with whatever partial
// answer it has; without degradation enabled InferContext discards the
// partial topology and surfaces the context error, with it the partial
// answer is the node's result. The search works in sc, which the caller
// reuses from node to node.
func searchParents(ctx context.Context, s *Scorer, child int, cands []int, opt Options, tel coreTel, sc *scratch) ([]int, DegradeReason) {
	if len(cands) == 0 {
		return nil, DegradeNone
	}
	// The soft deadline covers the node's whole search: enumeration and
	// merge share it, so a node that burns its budget enumerating still
	// stops merging on time.
	var deadline time.Time
	if opt.NodeDeadline > 0 {
		deadline = time.Now().Add(opt.NodeDeadline)
	}
	combos, reason := enumerateCombos(ctx, s, child, cands, opt, deadline, sc)
	tel.combos.Add(int64(len(combos)))
	if ctx.Err() != nil && reason == DegradeNone {
		reason = DegradeCancelled
	}
	if len(combos) == 0 || ctx.Err() != nil {
		return nil, reason
	}
	var parents []int
	var cut bool
	if opt.StaticGreedy {
		parents, cut = staticMerge(s, child, combos, opt, tel, deadline, sc)
	} else {
		parents, cut = adaptiveMerge(ctx, s, child, combos, opt, tel, deadline, sc)
	}
	if reason == DegradeNone {
		switch {
		case cut:
			reason = DegradeDeadline
		case ctx.Err() != nil:
			reason = DegradeCancelled
		}
	}
	if opt.BackwardPrune && reason == DegradeNone {
		parents = backwardPrune(s, child, parents)
	}
	return parents, reason
}

// backwardPrune drops parents whose removal does not decrease the local
// score, iterating to a fixpoint. Each pass removes the single parent whose
// removal improves the score the most (ties to the removal that loses the
// least), so the result does not depend on parent ordering.
func backwardPrune(s *Scorer, child int, parents []int) []int {
	cur := append([]int(nil), parents...)
	curScore := s.LocalScore(child, cur)
	for len(cur) > 0 {
		bestIdx := -1
		bestScore := curScore
		for i := range cur {
			trial := make([]int, 0, len(cur)-1)
			trial = append(trial, cur[:i]...)
			trial = append(trial, cur[i+1:]...)
			if sc := s.LocalScore(child, trial); sc >= bestScore {
				bestScore = sc
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		cur = append(cur[:bestIdx], cur[bestIdx+1:]...)
		curScore = bestScore
	}
	return cur
}

// combo is a candidate parent-node combination W with its standalone score
// g(v_i, W). mask holds W's membership as bits over the candidate indices
// (bit k ⇔ cands[k], in ascending order matching nodes); the candidate
// pool never exceeds maxCandidates, so it fits.
type combo struct {
	nodes []int
	score float64
	mask  uint64
}

// enumerateCombos lists every combination W ⊆ cands with |W| ≤ MaxComboSize
// that satisfies the Theorem-2 size condition |W| ≤ log₂(φ_W + δ_i)
// (Algorithm 1 line 13), along with its local score.
//
// A single {a} is scored from column totals and |a ∧ child|, counted once
// per candidate, and a pair {a, b} from those and one pass for |a ∧ b| and
// |a ∧ b ∧ child| (see pairParts). A combination of three or more nodes is
// scored from scratch (see Scorer.scoreParts).
//
// The combinations and their node lists live in sc and stay valid until
// the next enumeration over it.
//
// Enumeration can be cut short three ways, reported through the returned
// reason alongside whatever combinations were listed so far: context
// cancellation, the node's soft deadline (when nonzero), and the
// combination budget (when Options.ComboBudget > 0). All three are checked
// at top-level subtree boundaries, so the budget cut is a deterministic
// function of the enumeration order, not of timing.
func enumerateCombos(ctx context.Context, s *Scorer, child int, cands []int, opt Options, deadline time.Time, sc *scratch) ([]combo, DegradeReason) {
	maxSize := min(opt.MaxComboSize, len(cands))
	if maxSize < 1 {
		return nil, DegradeNone
	}
	e := enumerator{
		ctx: ctx, s: s, sc: sc,
		child: child, cands: cands, opt: opt, deadline: deadline,
		maxSize: maxSize,
	}
	sc.hits = resize(sc.hits, len(cands))
	for k, v := range cands {
		sc.hits[k], _ = s.common(v, child, child) // |v ∧ child|
	}
	sc.combos, sc.nodes, sc.cur = sc.combos[:0], sc.nodes[:0], sc.cur[:0]
	e.rec(0)
	// Growing the arena may have moved it; point every node list into its
	// final backing array.
	off := 0
	for i := range sc.combos {
		d := len(sc.combos[i].nodes)
		sc.combos[i].nodes = sc.nodes[off : off+d : off+d]
		off += d
	}
	return sc.combos, e.reason
}

// enumerator is the state of one node's combination DFS.
type enumerator struct {
	ctx      context.Context
	s        *Scorer
	sc       *scratch
	child    int
	cands    []int
	opt      Options
	deadline time.Time
	maxSize  int
	curMask  uint64
	at       [2]int // the candidate positions of the first two nodes of cur
	reason   DegradeReason
}

func (e *enumerator) rec(start int) {
	sc := e.sc
	if d := len(sc.cur); d > 0 {
		var parts ScoreParts
		switch hits := sc.hits; {
		case d == 1:
			parts = e.s.singleParts(e.child, sc.cur[0], hits[e.at[0]])
		case d == 2:
			parts = e.s.pairParts(e.child, sc.cur[0], sc.cur[1], hits[e.at[0]], hits[e.at[1]])
		default:
			parts = e.s.scoreParts(e.child, sc.cur, sc)
		}
		if e.opt.DisableBound || e.s.BoundHolds(e.child, d, parts.Phi) {
			sc.nodes = append(sc.nodes, sc.cur...)
			sc.combos = append(sc.combos, combo{nodes: sc.nodes[len(sc.nodes)-d:], score: parts.Score(), mask: e.curMask})
		}
		// A combination the bound rejects does not end its subtree:
		// supersets have larger |W|, but φ can grow with the set, so keep
		// enumerating — the size cap keeps this cheap.
	}
	if len(sc.cur) == e.maxSize {
		return
	}
	for k := start; k < len(e.cands); k++ {
		// Check the cut conditions once per top-level subtree: a weak
		// threshold can make a single node's enumeration combinatorial,
		// and cancellation, the soft deadline and the combination budget
		// must all be able to interrupt it mid-node.
		if len(sc.cur) == 0 {
			switch {
			case e.ctx.Err() != nil:
				e.reason = DegradeCancelled
			case !e.deadline.IsZero() && time.Now().After(e.deadline):
				e.reason = DegradeDeadline
			case e.opt.ComboBudget > 0 && len(sc.combos) >= e.opt.ComboBudget:
				e.reason = DegradeComboBudget
			}
			if e.reason != DegradeNone {
				return
			}
		}
		sc.cur = append(sc.cur, e.cands[k])
		e.curMask |= 1 << uint(k)
		d := len(sc.cur)
		if d <= 2 {
			e.at[d-1] = k
		}
		e.rec(k + 1)
		sc.cur = sc.cur[:len(sc.cur)-1]
		e.curMask &^= 1 << uint(k)
	}
}

// adaptiveMerge implements the greedy of Section IV-A's prose: starting
// from F = ∅, repeatedly merge the combination that most increases the
// current g(v_i, F), while the Theorem-2 bound holds; stop when no
// remaining combination improves the score.
//
// The candidate scan is lazily evaluated: combinations are kept in a
// max-heap keyed by their last-computed score improvement, and only the
// heap top is re-evaluated against the grown F. Improvements shrink as F
// absorbs the signal a combination carries, so stale heads re-sink and the
// scan touches a small fraction of the combination pool per iteration.
// Each re-evaluation is a probe (see scratch.probe), bit-identical to
// scoring F ∪ W from scratch.
//
// When the node's soft deadline (nonzero) passes mid-merge, the loop stops
// with the parents merged so far and reports cut = true; the caller keeps
// the partial set as the node's degraded answer.
func adaptiveMerge(ctx context.Context, s *Scorer, child int, combos []combo, opt Options, tel coreTel, deadline time.Time, sc *scratch) (parents []int, cut bool) {
	sc.resetMerge(s, child, combos)
	st := &sc.merge
	curScore := sc.part.score(s).Score()
	// The F = ∅ score above counts as a probe.
	st.probes++
	emptyScore := curScore

	h := sc.heap[:0]
	for i := range combos {
		// Initial key: standalone score relative to the empty set.
		h = append(h, lazyCombo{c: &combos[i], gain: combos[i].score - emptyScore, round: 0})
	}
	h.init()

	round := 0
	for len(h) > 0 && ctx.Err() == nil {
		if !deadline.IsZero() && time.Now().After(deadline) {
			cut = true
			break
		}
		top := &h[0]
		if top.gain <= 0 {
			break
		}
		if top.round != round {
			size, parts, ok := sc.probe(s, top.c)
			if !ok {
				h.pop()
				continue
			}
			if !opt.DisableBound && !s.BoundHolds(child, size, parts.Phi) {
				h.pop()
				continue
			}
			top.gain = parts.Score() - curScore
			top.round = round
			if top.gain <= 0 {
				h.pop()
				continue
			}
			h.down(0, len(h))
			continue
		}
		// Fresh top: accept it. The union cannot be empty here — a top at
		// the current round either passed a probe this round or is an
		// initial entry against the empty set.
		if !sc.accept(s, top.c) {
			h.pop()
			continue
		}
		curScore += top.gain
		h.pop()
		tel.merges.Inc()
		round++
	}
	sc.heap = h
	tel.probes.Add(int64(st.probes))
	tel.probeHits.Add(int64(st.hits))
	tel.tallies.Add(int64(sc.part.built))
	return st.result(), cut
}

// lazyCombo is a heap entry: a combination with its last-computed score
// improvement and the greedy round it was computed in.
type lazyCombo struct {
	c     *combo
	gain  float64
	round int
}

// comboHeap is a max-heap on gain. init, pop and down follow container/heap's
// Init, Pop and Fix(h, 0) step for step, so equal gains resolve in the same
// order, without boxing each popped entry into an interface.
type comboHeap []lazyCombo

func (h comboHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// pop removes the top entry.
func (h *comboHeap) pop() {
	n := len(*h) - 1
	(*h)[0], (*h)[n] = (*h)[n], (*h)[0]
	h.down(0, n)
	*h = (*h)[:n]
}

// down sinks entry i0 within the first n entries.
func (h comboHeap) down(i0, n int) {
	i := i0
	for {
		j := 2*i + 1
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].gain > h[j].gain {
			j = j2
		}
		if !(h[j].gain > h[i].gain) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// staticMerge is Algorithm 1 taken literally: walk combinations in
// descending standalone score and merge each whose union with F keeps the
// Theorem-2 bound. It reorders combos. Like adaptiveMerge it stops at the
// node's soft deadline with the parents merged so far, reporting cut = true.
func staticMerge(s *Scorer, child int, combos []combo, opt Options, tel coreTel, deadline time.Time, sc *scratch) (parents []int, cut bool) {
	slices.SortStableFunc(combos, func(a, b combo) int { return cmp.Compare(b.score, a.score) })
	sc.resetMerge(s, child, combos)
	st := &sc.merge
	for i := range combos {
		if !deadline.IsZero() && time.Now().After(deadline) {
			cut = true
			break
		}
		c := &combos[i]
		size, parts, ok := sc.probe(s, c)
		if !ok {
			continue
		}
		if !opt.DisableBound && !s.BoundHolds(child, size, parts.Phi) {
			continue
		}
		sc.accept(s, c)
		tel.merges.Inc()
	}
	tel.probes.Add(int64(st.probes))
	tel.probeHits.Add(int64(st.hits))
	tel.tallies.Add(int64(sc.part.built))
	return st.result(), cut
}

// mergeState tracks the greedy merges' growing parent set F without
// per-probe allocations. Membership is a uint64 bitmask over the candidate
// indices assigned in enumerateCombos. Probe unions are built in a reusable
// buffer, so a rejected probe allocates nothing at all.
type mergeState struct {
	mask    uint64
	parents []int
	buf     []int
	probes  int // score evaluations computed since the last reset
	hits    int // probes the memo answered since the last reset
	// trace, when non-nil, sees every probe in order, memo hits included,
	// with its union in scoring order. Tests set it; the search never does.
	trace func(union []int, parts ScoreParts)
}

// resetMerge empties F and the probe memo for a merge of child over combos.
func (sc *scratch) resetMerge(s *Scorer, child int, combos []combo) {
	st := &sc.merge
	st.mask, st.parents = 0, st.parents[:0]
	st.probes, st.hits = 0, 0
	sc.memo.reset(len(combos))
	sc.part.reset(s, child)
}

// probe returns the size and score parts of F ∪ W for the merge's current
// F, with ok = false when W adds nothing to F. The parts are a pure
// function of F and W's new nodes, which probeUnion puts in a fixed order,
// so a probe of new nodes already scored against this F is answered from
// the memo. A probe adding one or two nodes is scored from the round
// tallies of the new nodes, indexed by their candidate positions (see
// partition.probeTallied).
func (sc *scratch) probe(s *Scorer, c *combo) (size int, parts ScoreParts, ok bool) {
	st := &sc.merge
	var slot *memoSlot
	key := c.mask &^ st.mask
	if key != 0 {
		var hit bool
		if slot, hit = sc.memo.lookup(key); hit {
			st.hits++
			if st.trace != nil {
				st.trace(st.probeUnion(c), slot.parts)
			}
			return len(st.parents) + bits.OnesCount64(key), slot.parts, true
		}
	}
	union := st.probeUnion(c)
	if union == nil {
		return 0, ScoreParts{}, false
	}
	if added := union[len(st.parents):]; len(added) <= 2 {
		parts = sc.part.probeTallied(s, key, added)
	} else {
		parts = sc.part.probe(s, added)
	}
	st.probes++
	if slot != nil {
		*slot = memoSlot{key: key, gen: sc.memo.gen, parts: parts}
	}
	if st.trace != nil {
		st.trace(union, parts)
	}
	return len(union), parts, true
}

// accept commits F ← F ∪ W, reporting false (and changing nothing) when the
// union adds nothing. It starts a new memo generation: every probe before it
// scored against the old F.
func (sc *scratch) accept(s *Scorer, c *combo) bool {
	st := &sc.merge
	union := st.probeUnion(c)
	if union == nil {
		return false
	}
	added := union[len(st.parents):]
	sc.part.accept(s, added)
	st.mask |= c.mask
	sc.memo.invalidate()
	st.parents = append(st.parents, added...)
	return true
}

// nodeScore returns g(child, parents) for the parents a search over sc just
// returned. When they are the merge's F — the greedy ended there, cut short
// or not, and no backward pass dropped a parent — the score is read from
// F's partition; otherwise it is scored from scratch.
func (sc *scratch) nodeScore(s *Scorer, child int, parents []int) float64 {
	if pt := &sc.part; len(parents) > 0 && pt.child == child && pt.f == len(parents) {
		return pt.sortedScore(s, sc.merge.parents).Score()
	}
	return s.scoreParts(child, parents, sc).Score()
}

// result returns a sorted copy of F, nil when F is empty.
func (st *mergeState) result() []int {
	if len(st.parents) == 0 {
		return nil
	}
	out := slices.Clone(st.parents)
	slices.Sort(out)
	return out
}

// probeUnion returns F ∪ W in scoring order — the current parents followed
// by W's new nodes in W order — or nil when the union adds nothing. The
// returned slice aliases the reusable buffer and is valid only until the
// next probe.
func (st *mergeState) probeUnion(c *combo) []int {
	newBits := c.mask &^ st.mask
	if newBits == 0 {
		return nil
	}
	st.buf = append(st.buf[:0], st.parents...)
	// The i-th lowest set bit of c.mask corresponds to c.nodes[i] (both
	// ascend through the candidate pool), so walk them in step to pick out
	// the nodes not yet in F.
	rem := c.mask
	for _, v := range c.nodes {
		bit := rem & (-rem)
		rem &^= bit
		if newBits&bit != 0 {
			st.buf = append(st.buf, v)
		}
	}
	return st.buf
}

// probeMemo caches one greedy round's probe results, keyed by the probed
// combination's new-node mask: an open-addressed table sized to at least
// twice the node's combination count, so a round, which probes each
// combination at most once, never fills it past half. A generation stamp
// empties it in O(1) on every accept.
type probeMemo struct {
	slots []memoSlot // the live table; a power-of-two prefix of the backing array
	shift uint       // 64 − log₂(len(slots))
	gen   uint32     // a slot is filled iff its gen equals this
}

type memoSlot struct {
	key   uint64
	gen   uint32
	parts ScoreParts
}

// reset empties the memo and sizes it for a merge over n combinations.
func (m *probeMemo) reset(n int) {
	size, lg := 1, uint(0)
	for size < 2*n {
		size, lg = size<<1, lg+1
	}
	if cap(m.slots) < size {
		m.slots, m.gen = make([]memoSlot, size), 0
	}
	m.slots, m.shift = m.slots[:size], 64-lg
	m.invalidate()
}

// invalidate empties the memo by starting a new generation.
func (m *probeMemo) invalidate() {
	m.gen++
	if m.gen == 0 { // wrapped: old stamps could read as current
		clear(m.slots[:cap(m.slots)])
		m.gen = 1
	}
}

// lookup returns key's slot and whether it holds key's parts this
// generation; when it does not, the slot is where they belong.
func (m *probeMemo) lookup(key uint64) (*memoSlot, bool) {
	last := len(m.slots) - 1
	i := int((key * 0x9E3779B97F4A7C15) >> m.shift) // Fibonacci hashing
	for {
		sl := &m.slots[i]
		if sl.gen != m.gen {
			return sl, false
		}
		if sl.key == key {
			return sl, true
		}
		i = (i + 1) & last
	}
}
