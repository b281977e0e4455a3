// Package experiments is the benchmark harness that regenerates every
// figure of the paper's evaluation section (Figs. 1–11) plus the Table II
// graph inventory. Each figure is a declarative sweep: a network source, a
// swept parameter, fixed diffusion settings, and a set of algorithms. The
// runner simulates the workload, executes each algorithm, and reports the
// same series the paper plots — F-score and running time per sweep point.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tends/internal/baselines/lift"
	"tends/internal/baselines/multree"
	"tends/internal/baselines/netinf"
	"tends/internal/baselines/netrate"
	"tends/internal/baselines/path"
	"tends/internal/chaos"
	"tends/internal/core"
	"tends/internal/datasets"
	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/lfr"
	"tends/internal/metrics"
	"tends/internal/obs"
	"tends/internal/stats"
)

// Algorithm identifies a reconstruction algorithm under test.
type Algorithm string

// The algorithms of the paper's comparison, plus the NetInf extension.
const (
	AlgoTENDS   Algorithm = "TENDS"
	AlgoNetRate Algorithm = "NetRate"
	AlgoMulTree Algorithm = "MulTree"
	AlgoLIFT    Algorithm = "LIFT"
	AlgoNetInf  Algorithm = "NetInf"
	// AlgoPATH is the path-trace baseline, fed the ground-truth parent
	// chains the simulator knows (privileged information no real observer
	// has; see internal/baselines/path).
	AlgoPATH Algorithm = "PATH"
	// AlgoTENDSMI is TENDS with traditional mutual information instead of
	// infection MI — the ablation curve of Figs. 10–11.
	AlgoTENDSMI Algorithm = "TENDS-MI"
)

// DefaultAlgorithms is the comparison set of Figs. 1–9.
var DefaultAlgorithms = []Algorithm{AlgoTENDS, AlgoNetRate, AlgoMulTree, AlgoLIFT}

// Workload describes one sweep point's data generation.
type Workload struct {
	Network func(seed int64) (*graph.Directed, error)
	Mu      float64 // mean propagation probability
	Alpha   float64 // initial infection ratio
	Beta    int     // number of diffusion processes
	// Scenario selects the diffusion model, transmission-delay law, and
	// dirty-observation stages of the simulation (see diffusion.Scenario).
	// The zero value is the historical clean IC workload.
	Scenario diffusion.Scenario
}

// Point is one sweep point of a figure.
type Point struct {
	Label    string // x-axis value, e.g. "n=200" or "α=0.15"
	Workload Workload
	// TENDSOptions overrides TENDS options at this point (used by the
	// Fig. 10–11 threshold sweep); nil means defaults.
	TENDSOptions *core.Options
	// Influence switches the point's quality metric from edge-set PRF to
	// the application-level influence evaluation of the Fig. 16 family:
	// seeds are selected on the reconstructed weighted network and their
	// Monte-Carlo spread on the true network is compared against seeds
	// selected with full knowledge (see InfluenceEval). nil keeps the
	// historical edge-scoring.
	Influence *InfluenceEval
}

// Figure is a full experiment: an identifier, sweep points and algorithms.
type Figure struct {
	ID         string
	Title      string
	Points     []Point
	Algorithms []Algorithm
	// ScenarioSweep names the scenario dimension this figure itself sweeps
	// across its points ("model", "delay", "missing", "uncertain"), if any.
	// ApplyScenario leaves that dimension alone when applying CLI overrides,
	// so e.g. -missing 0.2 does not flatten the missing-rate sweep of
	// Fig. 12 while still applying to every other figure.
	ScenarioSweep string
}

// Measurement is one cell of a result table. With Config.Repeats > 1 the
// scores are means over the repeats and FStd carries the F-score's
// population standard deviation across them.
type Measurement struct {
	Figure    string
	Point     string
	Algorithm Algorithm
	F         float64
	FStd      float64
	Precision float64
	Recall    float64
	Runtime   time.Duration
	// Completed counts the repeats that produced a score; FailedRepeats
	// the ones that errored. Err keeps the first failure even when later
	// repeats succeed, so a partially failed cell — whose means silently
	// cover fewer repeats — stays visible instead of averaging away.
	Completed     int
	FailedRepeats int
	Err           error
	// DegradedNodes is the total count of gracefully degraded nodes across
	// the cell's completed repeats (see core.Result.Degraded): nodes whose
	// parent-set search was cut short by Config.NodeDeadline, ComboBudget,
	// or cancellation, keeping best-so-far parents. 0 when degradation is
	// off or never triggered.
	DegradedNodes int
	// Model, Delay, Missing and Uncertain echo the cell's workload scenario
	// (normalized, so Model is "ic" and Delay "exp" for legacy workloads) —
	// the identity columns of the scenario-robustness figure families.
	Model     string
	Delay     string
	Missing   float64
	Uncertain float64
	// PhaseWorkload, PhaseInfer and PhaseMetrics break the cell's work into
	// phases, each the mean across completed repeats (like Runtime, which is
	// ≈ PhaseInfer + PhaseMetrics). PhaseWorkload is the time spent
	// acquiring the shared workload — generation for the repeat that built
	// it, waiting on the builder for the rest — and is excluded from Runtime
	// as before. Observability side channel only: journaled per cell, never
	// written to the CSV output, and carrying no determinism guarantee.
	PhaseWorkload time.Duration
	PhaseInfer    time.Duration
	PhaseMetrics  time.Duration
}

// Config controls a harness run.
type Config struct {
	Seed    int64 // base RNG seed; every (point, repeat) derives its own stream
	Repeats int   // simulation repeats averaged per point; 0 means 1
	// Workers bounds the number of (point, repeat, algorithm) cells
	// executed concurrently. 0 means GOMAXPROCS; 1 forces serial
	// execution. Workloads, seeds, and output ordering are independent of
	// the worker count, so results for a fixed seed are identical (up to
	// measured wall-clock runtimes) at any setting.
	Workers int
	// CellTimeout imposes a per-(point, repeat, algorithm) deadline on the
	// algorithm run (workload generation is excluded — it is shared across
	// algorithms). The deadline propagates by cooperative cancellation into
	// the algorithm iteration loops; an expired cell records a
	// context.DeadlineExceeded error instead of stalling a worker forever.
	// 0 disables the deadline.
	CellTimeout time.Duration
	// Retries re-runs a failed (point, repeat, algorithm) task up to this
	// many extra times. Each retry regenerates the workload under a
	// SplitMix64-derived retry seed (deterministic, disjoint from the
	// primary cellSeed stream), so a transient workload pathology — not
	// just a flaky algorithm — gets a fresh draw. Retried outcomes are
	// deterministic at any worker count because the attempt sequence runs
	// inside the owning task. Run-level cancellation is never retried.
	Retries int
	// Checkpoint, when non-nil, receives one journal record per fully
	// completed (point, algorithm) cell, appended as soon as the cell's
	// last repeat finishes. See Journal.
	Checkpoint *Journal
	// Resume maps cells to their measurements from a previous run's
	// checkpoint journal (see OpenJournal); cells found here are restored
	// verbatim and never re-executed.
	Resume map[CellKey]Measurement
	// Obs, when non-nil, receives the run's observability stream: per-phase
	// timing histograms, retry/timeout/panic counters, worker utilization,
	// and the iteration telemetry the algorithm libraries report (the
	// recorder is carried to them by context; see internal/obs). Purely a
	// side channel — attaching a recorder never changes measurements, CSV
	// bytes, or the checkpoint journal's cell identities. A recorder already
	// attached to the context passed to RunContext is honored the same way.
	Obs *obs.Recorder
	// Chaos, when non-nil, arms deterministic fault injection at the sites
	// wired through the harness and the algorithm libraries (see
	// internal/chaos). Every injection decision is scoped to a seed-derived
	// tag, so the fault sequence for a fixed (Seed, injector) pair is
	// identical at any worker count. Nil means no injection and no overhead.
	Chaos *chaos.Injector
	// NodeDeadline and ComboBudget enable graceful degradation inside TENDS
	// cells (see core.Options): nodes that breach the per-node soft deadline
	// or the per-node combination budget keep their best-so-far parent sets
	// instead of failing the cell, and the cell's Measurement reports the
	// total count in DegradedNodes. A Point's explicit TENDSOptions override
	// takes precedence when it sets the same knob. Zero disables each.
	NodeDeadline time.Duration
	ComboBudget  int
	// RetryBackoff is the base delay of the exponential backoff between
	// retry attempts of one task: attempt k waits ~base×2^(k-1) (capped at
	// base×2⁶) with ±25% seed-derived jitter. 0 retries immediately, as
	// before. The wait respects run cancellation.
	RetryBackoff time.Duration
	// BreakerThreshold arms a per-(point, algorithm) circuit breaker: once
	// that many tasks of one cell have exhausted every attempt and still
	// failed, the cell's remaining tasks run their primary attempt but skip
	// retries — a cell class that is deterministically broken stops burning
	// retry budget. Trip order follows task completion order, so the breaker
	// is deterministic at Workers=1 and best-effort above. 0 disables it.
	BreakerThreshold int
}

// RunStats summarizes the fault-handling activity of one Run.
type RunStats struct {
	Cells          int // total (point, algorithm) cells in the figure
	Restored       int // cells restored from Config.Resume, not executed
	FailedCells    int // cells whose every repeat failed (excluding cancellation)
	CancelledCells int // cells with at least one repeat lost to run cancellation
	Retried        int // retry attempts executed across all tasks
	Recovered      int // failed tasks that later succeeded on a retry
	BreakerSkipped int // retry attempts skipped by a tripped circuit breaker
}

// sharedWorkload generates a (point, repeat) workload — the network plus
// its simulated cascades — exactly once, however many algorithm cells
// share it. The old harness regenerated the identical workload once per
// compared algorithm.
type sharedWorkload struct {
	once sync.Once
	g    *graph.Directed
	sim  *diffusion.Result
	err  error
}

// get's ctx carries only the observability recorder into the generator (the
// generation itself is never cancelled — a half-built workload is useless to
// the other cells sharing it).
func (wl *sharedWorkload) get(ctx context.Context, w Workload, seed int64) (*graph.Directed, *diffusion.Result, error) {
	wl.once.Do(func() {
		// Injection decisions inside the workload build draw from a scope
		// tagged by the workload seed alone: whichever racing cell reaches
		// the once first, the fault sequence is the same.
		ctx := chaos.WithScope(ctx, chaos.Tag(seed, "workload"))
		// A panicking generator must not poison the sync.Once (a panic
		// marks it done, so every later caller would see nil results with
		// no error); contain it into the shared error instead.
		defer func() {
			if rec := recover(); rec != nil {
				obs.From(ctx).Counter("experiments/panics").Inc()
				wl.err = fmt.Errorf("workload panic: %v", rec)
			}
		}()
		g, err := w.Network(seed)
		if err != nil {
			wl.err = fmt.Errorf("network: %w", err)
			return
		}
		sim, err := simulate(ctx, g, w, seed)
		if err != nil {
			wl.err = fmt.Errorf("simulate: %w", err)
			return
		}
		wl.g, wl.sim = g, sim
	})
	return wl.g, wl.sim, wl.err
}

// phaseTimes is the per-attempt phase breakdown of one task.
type phaseTimes struct {
	workload time.Duration // shared-workload acquisition (generation or wait)
	infer    time.Duration // the algorithm's inference
	metrics  time.Duration // scoring against the ground truth
}

// repResult is the outcome of one (point, repeat, algorithm) task.
type repResult struct {
	prf      metrics.PRF
	dur      time.Duration
	ph       phaseTimes
	degraded int // gracefully degraded nodes in this repeat's inference
	err      error
	ran      bool // distinguishes "never claimed" from "ran and succeeded"
}

// runTaskAttempt executes one attempt of a (point, repeat, algorithm) task:
// workload acquisition (shared on the primary attempt, fresh on retries),
// then the algorithm under the per-cell deadline, with any panic along the
// way recovered into the attempt's error. Phase durations are returned even
// for failed attempts (whatever was measured before the failure) so the
// recorder's histograms see where failing cells spend their time. The
// caller scopes ctx (chaos.WithScope) per attempt.
func runTaskAttempt(ctx context.Context, cfg Config, pt *Point, algo Algorithm, wl *sharedWorkload, seed int64) (r repResult) {
	rcd := obs.From(ctx)
	defer func() {
		if rec := recover(); rec != nil {
			rcd.Counter("experiments/panics").Inc()
			if p, ok := chaos.AsPanic(rec); ok {
				// Injected panics carry no stack: the dump embeds goroutine
				// IDs, which would leak scheduling into deterministic output.
				r.err = fmt.Errorf("panic in %s: %v", algo, p)
			} else {
				r.err = fmt.Errorf("panic in %s: %v\n%s", algo, rec, firstStackLines(debug.Stack(), 8))
			}
		}
	}()
	wlStart := time.Now()
	g, sim, err := wl.get(ctx, pt.Workload, seed)
	r.ph.workload = time.Since(wlStart)
	rcd.Histogram("experiments/phase/workload").Observe(r.ph.workload)
	if err != nil {
		r.err = err
		return r
	}
	if err := chaos.Maybe(ctx, chaos.SiteCellInfer); err != nil {
		r.err = err
		return r
	}
	cellCtx := ctx
	cancel := func() {}
	if cfg.CellTimeout > 0 {
		cellCtx, cancel = context.WithTimeout(ctx, cfg.CellTimeout)
	}
	defer cancel()
	var dur time.Duration
	r.prf, dur, r.ph.infer, r.ph.metrics, r.degraded, err = runAlgo(cellCtx, cfg, pt, algo, g, sim, seed)
	if err != nil {
		// A deadline that fired on the cell context but not the run context
		// is a per-cell timeout, the signal -cell-timeout tuning needs.
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			rcd.Counter("experiments/timeouts").Inc()
		}
		r.prf, r.err = metrics.PRF{}, err
		return r
	}
	if r.degraded > 0 && ctx.Err() != nil {
		// A result degraded by run-level cancellation is partial work: had
		// the run not been interrupted the cell would have computed more.
		// Recording it would checkpoint a measurement a resumed run can
		// never reproduce, so discard it as a cancelled attempt instead.
		r.prf, r.err = metrics.PRF{}, fmt.Errorf("degraded by cancellation: %w", ctx.Err())
		return r
	}
	r.dur = dur
	rcd.Histogram("experiments/phase/infer").Observe(r.ph.infer)
	rcd.Histogram("experiments/phase/metrics").Observe(r.ph.metrics)
	rcd.Histogram("experiments/cell").Observe(dur)
	return r
}

// appendCheckpoint journals one completed cell behind its chaos site. The
// injection scope is tagged by the cell's identity alone, so the journal
// fault sequence is independent of completion order; an injected panic is
// contained into the returned error (the journal-failure path) instead of
// unwinding through the worker.
func appendCheckpoint(ctx context.Context, cfg Config, figID string, pi int, algo string, meas Measurement) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			p, ok := chaos.AsPanic(rec)
			if !ok {
				panic(rec)
			}
			err = fmt.Errorf("%s", p)
		}
	}()
	jctx := chaos.WithScope(ctx, chaos.Tag(cfg.Seed, "journal", figID, algo, strconv.Itoa(pi)))
	if err := chaos.Maybe(jctx, chaos.SiteCheckpointAppend); err != nil {
		return err
	}
	return cfg.Checkpoint.Append(pi, meas)
}

// firstStackLines trims a debug.Stack dump to its first n lines — enough to
// locate a contained panic without flooding per-cell error columns.
func firstStackLines(stack []byte, n int) string {
	for i, b := 0, 0; i < len(stack); i++ {
		if stack[i] == '\n' {
			b++
			if b == n {
				return string(stack[:i])
			}
		}
	}
	return string(stack)
}

// Run executes a figure and returns its measurements in point-major order.
// Cells run concurrently per Config.Workers; progress lines still stream
// in point-major order, each emitted as soon as every cell before it has
// finished.
func Run(fig Figure, cfg Config, progress io.Writer) ([]Measurement, error) {
	ms, _, err := RunContext(context.Background(), fig, cfg, progress)
	return ms, err
}

// RunContext is Run under a context: cancelling ctx stops the sweep —
// unstarted cells are abandoned, in-flight cells are cooperatively
// cancelled and drained — and the function returns the measurements
// gathered so far together with ctx's error. Every (point, repeat,
// algorithm) task is a contained unit of work: a panicking algorithm or
// workload generator is recovered into that task's error, a task exceeding
// Config.CellTimeout records a deadline error, and failed tasks are retried
// per Config.Retries; none of these faults can take down the sweep or
// another cell. The returned RunStats counts restored, failed, retried and
// recovered work.
func RunContext(ctx context.Context, fig Figure, cfg Config, progress io.Writer) ([]Measurement, *RunStats, error) {
	if cfg.Repeats <= 0 {
		cfg.Repeats = 1
	}
	if cfg.Obs != nil {
		ctx = obs.With(ctx, cfg.Obs)
	}
	if cfg.Chaos != nil {
		ctx = chaos.With(ctx, cfg.Chaos)
	}
	rcd := obs.From(ctx)
	nP, nA, nR := len(fig.Points), len(fig.Algorithms), cfg.Repeats
	nCells := nP * nA
	rs := &RunStats{Cells: nCells}
	if nCells == 0 {
		return nil, rs, ctx.Err()
	}
	runSpan := rcd.StartSpan("experiments/run")
	defer runSpan.End()
	rcd.Counter("experiments/cells_total").Add(int64(nCells))
	cellsDoneC := rcd.Counter("experiments/cells_done")
	restoredC := rcd.Counter("experiments/cells_restored")
	retriesC := rcd.Counter("experiments/retries")
	recoveredC := rcd.Counter("experiments/recovered")
	attemptsFailedC := rcd.Counter("experiments/attempts_failed")
	breakerC := rcd.Counter("experiments/breaker_skipped")
	degradedC := rcd.Counter("experiments/degraded_nodes")
	taskHist := rcd.Histogram("experiments/task")

	// One lazily generated workload per (point, repeat), shared by every
	// algorithm cell at that coordinate.
	wls := make([]sharedWorkload, nP*nR)

	// Task ti ↦ (point pi, algorithm ai, repeat rep), cell-major so that a
	// cell's repeats are contiguous: ti = (pi*nA+ai)*nR + rep.
	results := make([]repResult, nCells*nR)
	remaining := make([]int32, nCells) // unfinished repeats per cell
	for ci := range remaining {
		remaining[ci] = int32(nR)
	}
	ms := make([]Measurement, nCells)

	emit := &orderedEmitter{progress: progress, figID: fig.ID, ready: make([]bool, nCells), restored: make([]bool, nCells)}

	var retried, recovered, breakerSkipped atomic.Int64
	// breakerTrips counts, per cell, the tasks that exhausted every attempt
	// and still failed — the circuit breaker's trip signal.
	breakerTrips := make([]int32, nCells)
	var journalMu sync.Mutex
	var journalErr error // first checkpoint-append failure

	aggregate := func(ci int) {
		pi, ai := ci/nA, ci%nA
		meas := Measurement{Figure: fig.ID, Point: fig.Points[pi].Label, Algorithm: fig.Algorithms[ai]}
		sc := fig.Points[pi].Workload.Scenario.Normalized()
		meas.Model, meas.Delay = string(sc.Model), string(sc.Delay)
		meas.Missing, meas.Uncertain = sc.Missing, sc.Uncertain
		var fs []float64
		var pSum, rSum float64
		var tSum time.Duration
		var wlSum, infSum, metSum time.Duration
		cancelled := false
		for rep := 0; rep < nR; rep++ {
			r := &results[ci*nR+rep]
			if r.err != nil {
				if errors.Is(r.err, context.Canceled) {
					cancelled = true
				}
				if meas.Err == nil {
					meas.Err = r.err
				}
				meas.FailedRepeats++
				continue
			}
			fs = append(fs, r.prf.F)
			pSum += r.prf.Precision
			rSum += r.prf.Recall
			tSum += r.dur
			wlSum += r.ph.workload
			infSum += r.ph.infer
			metSum += r.ph.metrics
			meas.DegradedNodes += r.degraded
		}
		meas.Completed = len(fs)
		if len(fs) > 0 {
			ok := float64(len(fs))
			nOK := time.Duration(len(fs))
			meas.F = stats.Mean(fs)
			meas.FStd = stats.StdDev(fs)
			meas.Precision = pSum / ok
			meas.Recall = rSum / ok
			meas.Runtime = tSum / nOK
			meas.PhaseWorkload = wlSum / nOK
			meas.PhaseInfer = infSum / nOK
			meas.PhaseMetrics = metSum / nOK
		}
		ms[ci] = meas
		cellsDoneC.Inc()
		if meas.DegradedNodes > 0 {
			degradedC.Add(int64(meas.DegradedNodes))
		}
		// A cell touched by run-level cancellation is not finished work: it
		// is never journaled, so a resume re-runs it from scratch.
		if cancelled {
			return
		}
		if cfg.Checkpoint != nil {
			if err := appendCheckpoint(ctx, cfg, fig.ID, pi, string(fig.Algorithms[ai]), meas); err != nil {
				journalMu.Lock()
				if journalErr == nil {
					journalErr = err
				}
				journalMu.Unlock()
			}
		}
	}

	runTask := func(ti int) {
		taskStart := time.Now()
		defer func() { taskHist.Observe(time.Since(taskStart)) }()
		ci := ti / nR
		rep := ti % nR
		pi, ai := ci/nA, ci%nA
		pt := &fig.Points[pi]
		algo := fig.Algorithms[ai]
		// Each attempt draws its injection decisions from a scope tagged by
		// the attempt's own workload seed plus the algorithm (algorithms at
		// one cell share the seed), so the fault sequence is a function of
		// (Seed, Chaos) alone — identical at any worker count.
		noteFail := func(err error) {
			if err != nil && !errors.Is(err, context.Canceled) {
				attemptsFailedC.Inc()
			}
		}
		r := &results[ti]
		seed := cellSeed(cfg.Seed, pi, rep)
		*r = runTaskAttempt(chaos.WithScope(ctx, chaos.Tag(seed, "attempt", string(algo))), cfg, pt, algo, &wls[pi*nR+rep], seed)
		noteFail(r.err)
		// Retries: deterministic because the attempt sequence runs inside
		// the owning task, each with its own derived seed and fresh
		// workload. Run-level cancellation is never retried, and a tripped
		// circuit breaker (BreakerThreshold tasks of this cell already
		// failed all their attempts) stops retrying the cell's class.
		for attempt := 1; r.err != nil && attempt <= cfg.Retries && ctx.Err() == nil; attempt++ {
			if cfg.BreakerThreshold > 0 && atomic.LoadInt32(&breakerTrips[ci]) >= int32(cfg.BreakerThreshold) {
				breakerSkipped.Add(int64(cfg.Retries - attempt + 1))
				breakerC.Add(int64(cfg.Retries - attempt + 1))
				break
			}
			if !sleepCtx(ctx, backoffDelay(cfg.RetryBackoff, cfg.Seed, pi, rep, attempt)) {
				break
			}
			retried.Add(1)
			retriesC.Inc()
			var fresh sharedWorkload
			seed := retrySeed(cfg.Seed, pi, rep, attempt)
			*r = runTaskAttempt(chaos.WithScope(ctx, chaos.Tag(seed, "attempt", string(algo))), cfg, pt, algo, &fresh, seed)
			noteFail(r.err)
			if r.err == nil {
				recovered.Add(1)
				recoveredC.Inc()
			}
		}
		if r.err != nil && !errors.Is(r.err, context.Canceled) {
			atomic.AddInt32(&breakerTrips[ci], 1)
		}
		r.ran = true
		if atomic.AddInt32(&remaining[ci], -1) == 0 {
			aggregate(ci)
			emit.markDone(ci, ms)
		}
	}

	// Restore checkpointed cells first, then build the task list from what
	// remains. Restored cells keep their preassigned slots, so ordering —
	// and therefore report output — is identical to an uninterrupted run.
	var tasks []int
	for ci := 0; ci < nCells; ci++ {
		pi, ai := ci/nA, ci%nA
		key := CellKey{Figure: fig.ID, PointIndex: pi, Algorithm: fig.Algorithms[ai]}
		if m, ok := cfg.Resume[key]; ok && m.Point == fig.Points[pi].Label {
			ms[ci] = m
			remaining[ci] = 0
			rs.Restored++
			restoredC.Inc()
			cellsDoneC.Inc()
			emit.markRestored(ci)
			emit.markDone(ci, ms)
			continue
		}
		for rep := 0; rep < nR; rep++ {
			tasks = append(tasks, ci*nR+rep)
		}
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	rcd.Gauge("experiments/workers").Set(float64(workers))
	busyBefore := taskHist.Sum()
	poolStart := time.Now()
	if workers <= 1 {
		for _, ti := range tasks {
			if ctx.Err() != nil {
				break
			}
			runTask(ti)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					k := int(next.Add(1)) - 1
					if k >= len(tasks) {
						return
					}
					runTask(tasks[k])
				}
			}()
		}
		wg.Wait()
	}
	// Pool utilization: busy task time over workers × wall time. Below ~1 the
	// pool idled (uneven cells or a long tail); it is the signal for tuning
	// -workers against a given figure.
	if wall := time.Since(poolStart); wall > 0 && workers > 0 {
		busy := float64(taskHist.Sum() - busyBefore)
		rcd.Gauge("experiments/worker_utilization").Set(busy / (float64(wall.Nanoseconds()) * float64(workers)))
	}

	// On cancellation, mark every task that never ran and aggregate the
	// cells still open, so the caller gets a complete, ordered measurement
	// slice with the interruption recorded per cell.
	if ctx.Err() != nil {
		for ci := 0; ci < nCells; ci++ {
			if remaining[ci] == 0 {
				continue
			}
			for rep := 0; rep < nR; rep++ {
				if r := &results[ci*nR+rep]; !r.ran {
					r.err = fmt.Errorf("cell not run: %w", context.Canceled)
				}
			}
			remaining[ci] = 0
			aggregate(ci)
			emit.markDone(ci, ms)
		}
	}

	rs.Retried = int(retried.Load())
	rs.Recovered = int(recovered.Load())
	rs.BreakerSkipped = int(breakerSkipped.Load())
	for ci := range ms {
		if ms[ci].Err == nil {
			continue
		}
		switch {
		case errors.Is(ms[ci].Err, context.Canceled):
			rs.CancelledCells++
		case ms[ci].Completed == 0:
			rs.FailedCells++
		}
	}
	if journalErr != nil {
		return ms, rs, fmt.Errorf("checkpoint journal: %w", journalErr)
	}
	return ms, rs, ctx.Err()
}

// orderedEmitter streams per-cell progress lines in point-major order
// regardless of the order cells actually finish in: a completed cell's
// line is held until every earlier cell has been emitted.
type orderedEmitter struct {
	progress io.Writer
	figID    string
	mu       sync.Mutex
	ready    []bool
	restored []bool
	emitted  int
}

// markRestored flags a cell as restored from a checkpoint so its progress
// line carries a "(checkpoint)" marker. Call before markDone for the cell.
func (e *orderedEmitter) markRestored(ci int) {
	if e.progress == nil {
		return
	}
	e.mu.Lock()
	e.restored[ci] = true
	e.mu.Unlock()
}

func (e *orderedEmitter) markDone(ci int, ms []Measurement) {
	if e.progress == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ready[ci] = true
	for e.emitted < len(e.ready) && e.ready[e.emitted] {
		m := &ms[e.emitted]
		suffix := ""
		if e.restored[e.emitted] {
			suffix = " (checkpoint)"
		}
		switch {
		case m.Completed == 0 && m.Err != nil:
			fmt.Fprintf(e.progress, "%s %-12s %-10s ERROR: %v%s\n", e.figID, m.Point, m.Algorithm, m.Err, suffix)
		case m.FailedRepeats > 0:
			fmt.Fprintf(e.progress, "%s %-12s %-10s F=%.3f time=%v (%d/%d repeats failed, first: %v)%s\n",
				e.figID, m.Point, m.Algorithm, m.F, m.Runtime,
				m.FailedRepeats, m.Completed+m.FailedRepeats, m.Err, suffix)
		default:
			fmt.Fprintf(e.progress, "%s %-12s %-10s F=%.3f time=%v%s\n", e.figID, m.Point, m.Algorithm, m.F, m.Runtime, suffix)
		}
		e.emitted++
	}
}

// algoHooks lets tests substitute an algorithm's implementation (e.g. a
// panicking or blocking fake) without widening the Figure API. Keyed by
// Algorithm; consulted before the real dispatch. Not safe to mutate while a
// run is in flight.
var algoHooks map[Algorithm]func(ctx context.Context, g *graph.Directed, sim *diffusion.Result) (metrics.PRF, error)

// runAlgo times one algorithm on a pre-generated workload, reporting the
// total alongside its infer/metrics phase split (total ≈ infer + metrics; a
// few dispatch instructions separate the stamps) and the count of
// gracefully degraded nodes (TENDS only; always 0 for the baselines). The
// context carries the per-cell deadline and run-level cancellation into the
// algorithm's iteration loops.
func runAlgo(ctx context.Context, cfg Config, pt *Point, algo Algorithm, g *graph.Directed, sim *diffusion.Result, seed int64) (metrics.PRF, time.Duration, time.Duration, time.Duration, int, error) {
	start := time.Now()
	score, degraded, err := inferAlgo(ctx, cfg, pt, algo, g, sim, seed)
	if err != nil {
		return metrics.PRF{}, 0, time.Since(start), 0, 0, err
	}
	inferDone := time.Now()
	prf := score()
	end := time.Now()
	return prf, end.Sub(start), inferDone.Sub(start), end.Sub(inferDone), degraded, nil
}

// inferAlgo runs the algorithm-specific inference and returns a closure that
// scores the inferred topology against the ground truth — the seam between
// the infer and metrics phases of the cell accounting — plus the number of
// degraded nodes the inference reported. When the point carries an
// InfluenceEval, the edge-scoring closure is replaced by the influence
// pipeline evaluation (probest + RIS seed selection + Monte-Carlo spread on
// the true weighted network), run eagerly so its errors propagate; its cost
// is therefore accounted to the infer phase. seed is the cell's workload
// seed — the influence stage rebuilds the true edge probabilities from it.
func inferAlgo(ctx context.Context, cfg Config, pt *Point, algo Algorithm, g *graph.Directed, sim *diffusion.Result, seed int64) (func() metrics.PRF, int, error) {
	if hook, ok := algoHooks[algo]; ok {
		prf, err := hook(ctx, g, sim)
		if err != nil {
			return nil, 0, err
		}
		return func() metrics.PRF { return prf }, 0, nil
	}
	score := func(inferred *graph.Directed, degraded int) (func() metrics.PRF, int, error) {
		if pt.Influence != nil {
			prf, err := influenceScore(ctx, pt, g, sim, inferred, seed)
			if err != nil {
				return nil, 0, err
			}
			return func() metrics.PRF { return prf }, degraded, nil
		}
		return func() metrics.PRF { return metrics.Score(g, inferred) }, degraded, nil
	}
	switch algo {
	case AlgoTENDS, AlgoTENDSMI:
		opt := core.Options{}
		if pt.TENDSOptions != nil {
			opt = *pt.TENDSOptions
		}
		if algo == AlgoTENDSMI {
			opt.TraditionalMI = true
		}
		// The run-level degradation knobs apply wherever the point's own
		// override leaves them unset.
		if opt.NodeDeadline == 0 {
			opt.NodeDeadline = cfg.NodeDeadline
		}
		if opt.ComboBudget == 0 {
			opt.ComboBudget = cfg.ComboBudget
		}
		res, err := core.InferContext(ctx, sim.Statuses, opt)
		if err != nil {
			return nil, 0, err
		}
		return score(res.Graph, len(res.Degraded))
	case AlgoNetRate:
		if pt.Influence != nil {
			// NetRate yields weighted edges, not a committed edge set; the
			// influence pipeline needs a topology to run probest on.
			return nil, 0, fmt.Errorf("influence evaluation unsupported for %s", algo)
		}
		// NetRate's survival likelihood follows the workload's delay law —
		// its home-turf evaluation. The power-law window δ stays at the
		// solver default 1, the simulator's fixed Pareto scale (the
		// scenario's DelayParam is the Pareto *shape*, which the likelihood
		// does not take: the inferred rates α play that role).
		preds, err := netrate.InferContext(ctx, sim, netrate.Options{Delay: pt.Workload.Scenario.Normalized().Delay})
		if err != nil {
			return nil, 0, err
		}
		return func() metrics.PRF { prf, _ := metrics.BestF(g, preds); return prf }, 0, nil
	case AlgoMulTree:
		inferred, err := multree.InferContext(ctx, sim, g.NumEdges(), multree.Options{})
		if err != nil {
			return nil, 0, err
		}
		return score(inferred, 0)
	case AlgoNetInf:
		inferred, err := netinf.InferContext(ctx, sim, g.NumEdges(), netinf.Options{})
		if err != nil {
			return nil, 0, err
		}
		return score(inferred, 0)
	case AlgoLIFT:
		// LIFT is a single pass over the observation matrix with no long
		// iteration loop; a pre-check keeps cancelled cells from starting it.
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		inferred, err := lift.InferTopMContext(ctx, sim, g.NumEdges(), lift.Options{})
		if err != nil {
			return nil, 0, err
		}
		return score(inferred, 0)
	case AlgoPATH:
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		traces, err := path.TracesFromCascades(sim, 3)
		if err != nil {
			return nil, 0, err
		}
		inferred, err := path.InferTopM(g.NumNodes(), traces, g.NumEdges())
		if err != nil {
			return nil, 0, err
		}
		return score(inferred, 0)
	default:
		return nil, 0, fmt.Errorf("unknown algorithm %q", algo)
	}
}

// simulate generates the observation data of one sweep point: per-edge
// propagation probabilities drawn from N(mu, 0.05), then beta diffusion
// processes with alpha-fraction random seeds under the workload's scenario
// (model, delay law, dirty-observation stages); the zero scenario is the
// historical clean IC path, draw-for-draw.
func simulate(ctx context.Context, g *graph.Directed, w Workload, seed int64) (*diffusion.Result, error) {
	ep, rng := workloadEdgeProbs(g, w, seed)
	sr, err := diffusion.SimulateScenarioContext(ctx, ep, diffusion.Config{Alpha: w.Alpha, Beta: w.Beta}, w.Scenario, rng)
	if err != nil {
		return nil, err
	}
	return sr.Result, nil
}

// workloadEdgeProbs draws the true weighted network of a cell — the same
// probabilities simulate() diffuses over, draw-for-draw. The influence
// evaluation (Fig. 16 family) calls it to rebuild the ground-truth
// EdgeProbs from the cell seed alone; simulate() continues consuming the
// returned rng for the diffusion processes.
func workloadEdgeProbs(g *graph.Directed, w Workload, seed int64) (*diffusion.EdgeProbs, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed + 7919))
	return diffusion.NewEdgeProbs(g, w.Mu, 0.05, rng), rng
}

// lfrNetwork adapts an LFR benchmark index into a Workload network source.
func lfrNetwork(index int) func(int64) (*graph.Directed, error) {
	return func(seed int64) (*graph.Directed, error) {
		res, err := lfr.GenerateBenchmark(index, seed)
		if err != nil {
			return nil, err
		}
		return res.Graph, nil
	}
}

func netSciNetwork(seed int64) (*graph.Directed, error) { return datasets.NetSci(seed) }
func dunfNetwork(seed int64) (*graph.Directed, error)   { return datasets.DUNF(seed) }
