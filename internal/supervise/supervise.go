// Package supervise is the self-healing shard supervisor for distributed
// scale inference. It launches the k shard workers itself — subprocesses
// re-execing the benchfig -scale -shard path, or in-process functions for
// tests — monitors each through heartbeats derived from shard-journal
// append progress, and drives the run to a merged topology under failure:
//
//   - A crashed, stalled, or deadline-breaching worker is killed and
//     relaunched with seeded-jitter exponential backoff, resuming
//     node-for-node from its partial journal (completed nodes are skipped;
//     the continuation is byte-identical to an uninterrupted run).
//   - A straggling shard gets a hedged duplicate launch on a side journal;
//     whichever attempt completes first wins and the loser is killed. Node
//     results are deterministic, so duplicate journals always agree.
//   - A shard that exhausts its retry budget is reported failed; the merge
//     then degrades gracefully (experiments.MergeShardJournalsDegraded),
//     producing the partial topology plus the exact missing node set.
//
// Everything is chaos-testable through the supervise site family
// (chaos.SiteWorkerKill on the supervisor's poll loop; SiteJournalStall and
// SiteShardSlow inside the workers) and observable through obs counters for
// every launch, restart, hedge, kill, and resume.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"tends/internal/chaos"
	"tends/internal/experiments"
	"tends/internal/journal"
	"tends/internal/obs"
)

// Attempt describes one worker launch: which shard, which retry attempt,
// where its journal lives, and whether it should resume a partial journal
// or is a hedged duplicate.
type Attempt struct {
	Shard      int
	ShardCount int
	// Attempt is 1-based; restarts increment it. Workers mix it into their
	// chaos decision scope, so an injected fault does not deterministically
	// recur on every retry of the same shard.
	Attempt int
	// Journal is the path the worker must write (or resume) its shard
	// journal at.
	Journal string
	// Resume tells the worker to continue the partial journal at Journal
	// instead of starting fresh.
	Resume bool
	// Hedge marks a hedged duplicate launch racing the primary attempt.
	Hedge bool
}

// Handle controls one launched worker.
type Handle interface {
	// Wait blocks until the worker exits, returning its terminal error
	// (nil for a clean exit). It is called exactly once.
	Wait() error
	// Kill terminates the worker without waiting (SIGKILL for subprocess
	// workers, context cancellation for in-process ones). Safe to call
	// after exit.
	Kill()
}

// Launcher starts workers. Implementations must be safe for concurrent use:
// the supervisor launches shards in parallel.
type Launcher interface {
	Start(ctx context.Context, a Attempt) (Handle, error)
}

// Options configures a supervised run.
type Options struct {
	// Shards is the shard count k; every node i is owned by shard i mod k.
	Shards int
	// N is the run's node count, used to decide when a shard journal is
	// complete (it holds all its owned nodes).
	N int
	// JournalPath maps a shard index to its journal path. Hedged attempts
	// write JournalPath(shard) + ".hedge".
	JournalPath func(shard int) string
	// Launch starts workers; see ProcLauncher and FuncLauncher.
	Launch Launcher

	// ShardDeadline bounds one attempt's wall-clock runtime; a breaching
	// attempt is killed and retried. 0 disables the deadline.
	ShardDeadline time.Duration
	// Retries is how many times a failed attempt is relaunched (so a shard
	// runs at most Retries+1 attempts). 0 means no retries.
	Retries int
	// RetryBackoff is the base delay before a restart, doubled per attempt
	// (capped at base×2⁶) with ±25% jitter from the shard's own SplitMix64
	// stream. 0 restarts immediately.
	RetryBackoff time.Duration
	// HedgeAfter launches a hedged duplicate of an attempt still running
	// after this long. 0 disables hedging.
	HedgeAfter time.Duration
	// StallTimeout kills an attempt whose journal has not grown for this
	// long — the heartbeat: progress is journal bytes, not liveness pings,
	// so a live-but-wedged worker is indistinguishable from a dead one,
	// which is the point. 0 disables stall detection.
	StallTimeout time.Duration
	// PollEvery is the heartbeat poll interval. 0 means 25ms.
	PollEvery time.Duration

	// Seed feeds the backoff jitter stream and the supervisor's chaos
	// decision scopes.
	Seed int64
	// Chaos, when non-nil, arms the supervisor-side SiteWorkerKill site:
	// each heartbeat poll of a live primary worker may kill it.
	Chaos *chaos.Injector
	// Obs receives the supervisor's counters and timing spans (nil-safe).
	Obs *obs.Recorder
	// Logf, when non-nil, receives one line per lifecycle event (launch,
	// kill, resume, hedge, outcome).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() (Options, error) {
	if o.Shards < 1 {
		return o, fmt.Errorf("supervise: Shards must be >= 1, got %d", o.Shards)
	}
	if o.N < 1 {
		return o, fmt.Errorf("supervise: N must be >= 1, got %d", o.N)
	}
	if o.JournalPath == nil {
		return o, errors.New("supervise: JournalPath is required")
	}
	if o.Launch == nil {
		return o, errors.New("supervise: Launch is required")
	}
	if o.Retries < 0 {
		return o, fmt.Errorf("supervise: Retries must be >= 0, got %d", o.Retries)
	}
	if o.PollEvery <= 0 {
		o.PollEvery = 25 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o, nil
}

// ShardOutcome is the terminal state of one supervised shard.
type ShardOutcome struct {
	Shard int
	// Journal is the winning journal path — the hedge's when it beat the
	// primary, the primary path otherwise.
	Journal string
	// Attempts is how many launches the shard took (hedges not counted).
	Attempts int
	// Hedges is how many hedged duplicates were launched.
	Hedges int
	// ResumedNodes is how many already-journaled nodes restart attempts
	// skipped, summed across restarts.
	ResumedNodes int
	// Completed reports whether the shard's journal holds every owned node.
	Completed bool
	// Err is the last attempt's failure when Completed is false.
	Err error
	// Dur is the shard's total supervised wall time, retries included.
	Dur time.Duration
}

// Result is the outcome of a supervised run.
type Result struct {
	// Outcomes has one entry per shard, ascending by shard index.
	Outcomes []ShardOutcome
	// Failed lists the shards that exhausted their retry budget, ascending.
	Failed []int
}

// Complete reports whether every shard finished.
func (r *Result) Complete() bool { return len(r.Failed) == 0 }

// Run supervises a k-shard run to completion: every shard either finishes
// (its journal complete on disk) or exhausts its retry budget and lands in
// Result.Failed. Run only errors on invalid options or a cancelled context;
// permanent shard failure is reported through the result, because the
// caller can still merge the surviving shards into a degraded topology.
func Run(ctx context.Context, o Options) (*Result, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	if o.Chaos != nil {
		ctx = chaos.With(ctx, o.Chaos)
	}
	rec := o.Obs
	defer rec.StartSpan("supervise/run").End()

	outcomes := make([]ShardOutcome, o.Shards)
	var wg sync.WaitGroup
	for shard := 0; shard < o.Shards; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			outcomes[shard] = superviseShard(ctx, o, shard)
		}(shard)
	}
	wg.Wait()

	res := &Result{Outcomes: outcomes}
	for _, out := range outcomes {
		if out.Completed {
			rec.Counter("supervise/shards_completed").Inc()
		} else {
			rec.Counter("supervise/shards_failed").Inc()
			res.Failed = append(res.Failed, out.Shard)
		}
	}
	sort.Ints(res.Failed)
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("supervise: interrupted: %w", err)
	}
	return res, nil
}

// journalState is one inspection of a shard journal on disk.
type journalState struct {
	exists   bool
	header   bool
	nodes    int
	complete bool
	// corrupt marks damage beyond a torn tail; resuming such a journal
	// would silently lose records, so the shard restarts fresh instead.
	corrupt bool
}

// inspect reads a journal without modifying it and classifies it for the
// restart decision. Never errors: an unreadable or damaged journal is
// simply not resumable.
func inspect(path string, n, shard, count int) journalState {
	fi, err := os.Stat(path)
	if err != nil || fi.Size() <= journal.HeaderSize {
		// A worker killed before its threshold selection finished leaves an
		// empty or header-only file — the first record only lands once the
		// search starts. Nothing to resume, and nothing corrupt either.
		return journalState{}
	}
	header, nodes, _, err := experiments.LoadShardJournal(path, false)
	st := journalState{exists: true, header: header != nil, nodes: len(nodes)}
	if err != nil {
		st.corrupt = true
		return st
	}
	st.complete = len(nodes) == experiments.ShardOwnedNodes(n, shard, count)
	return st
}

// superviseShard drives one shard through its attempts to completion or
// retry exhaustion.
func superviseShard(ctx context.Context, o Options, shard int) ShardOutcome {
	rec := o.Obs
	out := ShardOutcome{Shard: shard, Journal: o.JournalPath(shard)}
	primary := o.JournalPath(shard)
	t0 := time.Now()
	defer func() {
		out.Dur = time.Since(t0)
		rec.Histogram("supervise/shard").Observe(out.Dur)
	}()

	maxAttempts := o.Retries + 1
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			out.Err = err
			return out
		}
		st := inspect(primary, o.N, shard, o.Shards)
		if st.complete {
			// A previous attempt finished the journal even though its exit
			// looked like a failure (e.g. killed between the last append and
			// exit); trust the bytes on disk.
			out.Completed = true
			out.Journal = primary
			return out
		}
		resume := st.exists && st.header && !st.corrupt
		if resume {
			out.ResumedNodes += st.nodes
			rec.Counter("supervise/resumes").Inc()
			rec.Counter("supervise/resumed_nodes").Add(int64(st.nodes))
			o.Logf("supervise: shard %d attempt %d resuming %d journaled nodes", shard, attempt, st.nodes)
		} else if st.exists && st.corrupt {
			rec.Counter("supervise/journal_corrupt").Inc()
			o.Logf("supervise: shard %d attempt %d: journal corrupt beyond torn tail, restarting fresh", shard, attempt)
		}
		if attempt > 1 {
			rec.Counter("supervise/restarts").Inc()
		}
		winner, err := runAttempt(ctx, o, shard, attempt, &out, Attempt{
			Shard:      shard,
			ShardCount: o.Shards,
			Attempt:    attempt,
			Journal:    primary,
			Resume:     resume,
		})
		out.Attempts = attempt
		if err == nil {
			out.Completed = true
			out.Journal = winner
			o.Logf("supervise: shard %d completed on attempt %d (journal %s)", shard, attempt, winner)
			return out
		}
		out.Err = err
		o.Logf("supervise: shard %d attempt %d failed: %v", shard, attempt, err)
		if attempt < maxAttempts {
			d := backoffDelay(o.RetryBackoff, o.Seed, shard, attempt)
			if !sleepCtx(ctx, d) {
				out.Err = ctx.Err()
				return out
			}
		}
	}
	return out
}

// worker is one launched attempt being monitored.
type worker struct {
	handle  Handle
	journal string
	done    chan error
	exited  bool
	err     error
}

// launch starts a worker and begins waiting on it.
func launch(ctx context.Context, o Options, a Attempt) (*worker, error) {
	h, err := o.Launch.Start(ctx, a)
	if err != nil {
		return nil, err
	}
	o.Obs.Counter("supervise/launches").Inc()
	w := &worker{handle: h, journal: a.Journal, done: make(chan error, 1)}
	go func() { w.done <- h.Wait() }()
	return w, nil
}

// runAttempt launches one primary worker (plus at most one hedged
// duplicate) and monitors them to a verdict: the path of a complete journal,
// or an error describing why the attempt failed. The monitor loop is the
// heartbeat: every PollEvery it measures the primary journal's size — growth
// is the worker's pulse — applies the stall and deadline cuts, and gives the
// chaos SiteWorkerKill site one deterministic-decision shot at the primary.
func runAttempt(ctx context.Context, o Options, shard, attempt int, out *ShardOutcome, a Attempt) (string, error) {
	rec := o.Obs
	defer rec.StartSpan("supervise/attempt").End()
	o.Logf("supervise: shard %d attempt %d launching (resume=%v)", shard, attempt, a.Resume)
	pri, err := launch(ctx, o, a)
	if err != nil {
		return "", fmt.Errorf("launch shard %d: %w", shard, err)
	}
	var hedge *worker
	killAll := func() {
		pri.handle.Kill()
		if hedge != nil {
			hedge.handle.Kill()
		}
	}
	// drain waits out any still-running worker so its Wait goroutine (and a
	// subprocess's Wait bookkeeping) finishes before the attempt returns.
	drain := func() {
		for _, w := range []*worker{pri, hedge} {
			if w != nil && !w.exited {
				<-w.done
				w.exited = true
			}
		}
	}

	// The supervisor-side chaos scope: one decision stream per (shard,
	// attempt), advanced once per heartbeat poll.
	kctx := chaos.WithScope(ctx, chaos.Tag(o.Seed, "supervise.worker",
		fmt.Sprintf("%d/%d", shard, o.Shards), fmt.Sprintf("attempt%d", attempt)))

	ticker := time.NewTicker(o.PollEvery)
	defer ticker.Stop()
	var deadlineC, hedgeC <-chan time.Time
	if o.ShardDeadline > 0 {
		dt := time.NewTimer(o.ShardDeadline)
		defer dt.Stop()
		deadlineC = dt.C
	}
	if o.HedgeAfter > 0 {
		ht := time.NewTimer(o.HedgeAfter)
		defer ht.Stop()
		hedgeC = ht.C
	}

	size := func(path string) int64 {
		fi, err := os.Stat(path)
		if err != nil {
			return -1
		}
		return fi.Size()
	}
	lastSize := size(pri.journal)
	lastGrowth := time.Now()
	priKilled := ""

	// verdict inspects an exited worker's journal; a complete journal wins
	// regardless of how the exit looked.
	verdict := func(w *worker) (string, bool) {
		st := inspect(w.journal, o.N, shard, o.Shards)
		return w.journal, st.complete
	}

	for {
		select {
		case err := <-pri.done:
			pri.exited, pri.err = true, err
			if j, ok := verdict(pri); ok {
				killAll()
				drain()
				return j, nil
			}
			if hedge != nil && !hedge.exited {
				continue // the hedge may still win this attempt
			}
			drain()
			return "", attemptError(pri, priKilled)
		case err := <-hedge.doneOrNil():
			hedge.exited, hedge.err = true, err
			if j, ok := verdict(hedge); ok {
				killAll()
				drain()
				rec.Counter("supervise/hedge_wins").Inc()
				o.Logf("supervise: shard %d attempt %d hedge won", shard, attempt)
				return j, nil
			}
			if !pri.exited {
				continue
			}
			drain()
			return "", attemptError(pri, priKilled)
		case <-deadlineC:
			rec.Counter("supervise/kills/deadline").Inc()
			priKilled = fmt.Sprintf("deadline %v exceeded", o.ShardDeadline)
			o.Logf("supervise: shard %d attempt %d killed: %s", shard, attempt, priKilled)
			killAll()
			drain()
			// The deadline may have landed between the last append and exit;
			// a complete journal (either worker's) still wins.
			if j, ok := verdict(pri); ok {
				return j, nil
			}
			if hedge != nil {
				if j, ok := verdict(hedge); ok {
					return j, nil
				}
			}
			return "", fmt.Errorf("shard %d attempt %d: %s", shard, attempt, priKilled)
		case <-hedgeC:
			hedgeC = nil
			h, herr := launch(ctx, o, Attempt{
				Shard:      shard,
				ShardCount: o.Shards,
				Attempt:    attempt,
				Journal:    a.Journal + ".hedge",
				Resume:     false,
				Hedge:      true,
			})
			if herr != nil {
				o.Logf("supervise: shard %d attempt %d hedge launch failed: %v", shard, attempt, herr)
				continue
			}
			hedge = h
			out.Hedges++
			rec.Counter("supervise/hedges").Inc()
			o.Logf("supervise: shard %d attempt %d hedged after %v", shard, attempt, o.HedgeAfter)
		case <-ticker.C:
			if pri.exited {
				continue
			}
			// Chaos gets one kill decision per heartbeat of a live primary.
			if err := chaos.Maybe(kctx, chaos.SiteWorkerKill); err != nil {
				rec.Counter("supervise/kills/chaos").Inc()
				priKilled = "chaos kill"
				o.Logf("supervise: shard %d attempt %d chaos-killed", shard, attempt)
				pri.handle.Kill()
				continue
			}
			if s := size(pri.journal); s != lastSize {
				lastSize = s
				lastGrowth = time.Now()
			} else if o.StallTimeout > 0 && time.Since(lastGrowth) > o.StallTimeout {
				rec.Counter("supervise/kills/stall").Inc()
				priKilled = fmt.Sprintf("journal stalled for %v", o.StallTimeout)
				o.Logf("supervise: shard %d attempt %d killed: %s", shard, attempt, priKilled)
				pri.handle.Kill()
			}
		case <-ctx.Done():
			killAll()
			drain()
			return "", ctx.Err()
		}
	}
}

// doneOrNil returns the worker's exit channel, or nil (blocking forever in
// a select) when no worker was launched.
func (w *worker) doneOrNil() chan error {
	if w == nil {
		return nil
	}
	return w.done
}

// attemptError renders a failed attempt's cause: the kill reason when the
// supervisor killed it, otherwise the worker's own exit error.
func attemptError(pri *worker, killed string) error {
	if killed != "" {
		return fmt.Errorf("worker killed: %s", killed)
	}
	if pri.err != nil {
		return fmt.Errorf("worker failed: %w", pri.err)
	}
	return errors.New("worker exited without completing its journal")
}

// backoffDelay is the wait before restarting a shard: exponential in the
// attempt number (capped at base×2⁶) with ±25% jitter from the shard's own
// SplitMix64 stream — deterministic, yet de-synchronized across shards so a
// correlated failure does not restart in lockstep. The same idiom as the
// harness's cell-retry backoff.
func backoffDelay(base time.Duration, seed int64, shard, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	d := base << uint(shift)
	h := splitmix64(uint64(seed) ^ 0x5c0f_f1e1_d1ce_b00c)
	h = splitmix64(h ^ uint64(shard))
	h = splitmix64(h ^ uint64(attempt))
	jitter := 0.75 + float64(h>>11)*(1.0/(1<<53))*0.5
	return time.Duration(float64(d) * jitter)
}

// splitmix64 is the SplitMix64 finalizer, matching the harness's streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sleepCtx sleeps for d or until ctx fires, reporting whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
