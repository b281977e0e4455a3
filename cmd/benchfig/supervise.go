package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"tends/internal/chaos"
	"tends/internal/experiments"
	"tends/internal/obs"
	"tends/internal/supervise"
)

// workerArgs builds the argv (minus the binary) for one supervised shard
// worker: the same -scale flags this process was launched with, plus the
// shard identity, its journal, and the attempt number that keys the
// worker's chaos decision scope.
func workerArgs(o runOpts, s scaleOpts, a supervise.Attempt) []string {
	args := []string{
		"-scale",
		"-scale-n", itoa(s.n),
		"-scale-beta", itoa(s.beta),
		"-scale-deg", ftoa(s.deg),
		"-scale-exp", ftoa(s.exp),
		"-scale-mixing", ftoa(s.mixing),
		"-scale-seeds", itoa(s.seeds),
		"-scale-mu", ftoa(s.mu),
		"-seed", fmt.Sprintf("%d", o.seed),
		"-workers", itoa(o.workers),
		"-shard", fmt.Sprintf("%d/%d", a.Shard, a.ShardCount),
		"-checkpoint", a.Journal,
		"-shard-attempt", itoa(a.Attempt),
		"-obs-json", a.Journal + ".obs.json",
	}
	if s.sparse {
		args = append(args, "-sparse")
	}
	if a.Resume {
		args = append(args, "-shard-resume")
	}
	if o.chaosSpec != "" {
		args = append(args, "-chaos", o.chaosSpec, "-chaos-seed", fmt.Sprintf("%d", o.chaosSeed))
	}
	return args
}

// shardReport is one shard's outcome in the -supervise-report JSON.
type shardReport struct {
	Shard        int    `json:"shard"`
	Journal      string `json:"journal"`
	Attempts     int    `json:"attempts"`
	Hedges       int    `json:"hedges"`
	ResumedNodes int    `json:"resumed_nodes"`
	Completed    bool   `json:"completed"`
	Error        string `json:"error,omitempty"`
	DurNS        int64  `json:"dur_ns"`
}

// chaosReport is the supervisor-side injection accounting; CI asserts the
// supervisor's kill counter balances against it.
type chaosReport struct {
	WorkerKills int64 `json:"worker_kills"`
	Faults      int64 `json:"faults"`
	Delays      int64 `json:"delays"`
}

// superviseReport is the structured run report written by
// -supervise-report: per-shard outcomes, the merge accounting (missing
// shards and the exact missing node set when degraded), and the
// supervisor's counters.
type superviseReport struct {
	N         int                      `json:"n"`
	Shards    int                      `json:"shards"`
	Complete  bool                     `json:"complete"`
	Threshold float64                  `json:"threshold"`
	Edges     int                      `json:"edges"`
	Precision float64                  `json:"precision"`
	Recall    float64                  `json:"recall"`
	F         float64                  `json:"f"`
	Outcomes  []shardReport            `json:"outcomes"`
	Merge     *experiments.MergeReport `json:"merge"`
	Chaos     *chaosReport             `json:"chaos,omitempty"`
	Counters  map[string]int64         `json:"counters,omitempty"`
}

// runSupervised drives a k-shard scale run end to end under the shard
// supervisor: subprocess workers (this binary re-exec'd in -shard mode) are
// launched, heartbeat-monitored, restarted with node-level journal resume,
// hedged when straggling — and the surviving journals merge into the final
// topology, degraded with an explicit missing-node report when a shard
// exhausted its retries.
func runSupervised(ctx context.Context, o runOpts, s scaleOpts, cfg experiments.ScaleConfig, injector *chaos.Injector, rec *obs.Recorder) (int, error) {
	dir := s.superviseDir
	if dir == "" {
		dir = "supervise-shards"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return exitErr, err
	}
	exe, err := os.Executable()
	if err != nil {
		return exitErr, fmt.Errorf("supervise: locate worker binary: %w", err)
	}
	logf := func(string, ...any) {}
	if !o.quiet {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	opts := supervise.Options{
		Shards: s.superviseK,
		N:      s.n,
		JournalPath: func(shard int) string {
			return filepath.Join(dir, fmt.Sprintf("shard-%d.journal", shard))
		},
		Launch: supervise.ProcLauncher{
			Command: func(a supervise.Attempt) []string {
				return append([]string{exe}, workerArgs(o, s, a)...)
			},
			Stdout: os.Stderr, // keep this process's stdout for the merge result
			Stderr: os.Stderr,
		},
		ShardDeadline: s.shardDeadline,
		Retries:       s.shardRetries,
		HedgeAfter:    s.hedgeAfter,
		StallTimeout:  s.stallTimeout,
		PollEvery:     s.pollEvery,
		Seed:          o.seed,
		Chaos:         injector,
		Obs:           rec,
		Logf:          logf,
	}
	result, err := supervise.Run(ctx, opts)
	if err != nil {
		if result != nil && errors.Is(err, context.Canceled) {
			return exitInterrupted, err
		}
		return exitErr, err
	}

	// Fold the workers' obs snapshots (counters only — they are sums) into
	// the supervisor's recorder under worker/, so one report carries both
	// sides. Only a shard's last successful attempt writes a snapshot;
	// killed attempts die before the write, which is the failure model.
	for _, out := range result.Outcomes {
		path := out.Journal + ".obs.json"
		f, oerr := os.Open(path)
		if oerr != nil {
			continue
		}
		if snap, serr := obs.ReadSnapshot(f); serr == nil {
			rec.AddCounters(snap, "worker/")
		}
		f.Close()
	}

	var paths []string
	for _, out := range result.Outcomes {
		if out.Completed {
			paths = append(paths, out.Journal)
		}
	}
	if len(paths) == 0 {
		writeSuperviseReport(s.superviseReport, buildSuperviseReport(s, result, nil, nil, injector, rec))
		return exitErr, errors.New("supervise: no shard completed; nothing to merge")
	}
	headers, nodes, err := loadShardJournals(paths, false, false)
	if err != nil {
		return exitErr, err
	}

	var merged *experiments.MergedScaleResult
	var rep *experiments.MergeReport
	if result.Complete() {
		merged, err = experiments.MergeScaleShards(ctx, cfg, headers, nodes)
		if err != nil {
			return exitErr, err
		}
		rep = &experiments.MergeReport{
			N:           cfg.N,
			ShardCount:  s.superviseK,
			MergedNodes: cfg.N,
			Complete:    true,
		}
		for i := 0; i < s.superviseK; i++ {
			rep.PresentShards = append(rep.PresentShards, i)
		}
		fmt.Printf("scale merge: n=%d shards=%d threshold=%.6g edges=%d\n",
			cfg.N, len(headers), merged.Threshold, merged.Graph.NumEdges())
		fmt.Printf("P=%.4f R=%.4f F=%.4f\n", merged.Score.Precision, merged.Score.Recall, merged.Score.F)
	} else {
		merged, rep, err = experiments.MergeScaleShardsDegraded(ctx, cfg, headers, nodes)
		if err != nil {
			return exitErr, err
		}
		printDegradedMerge(cfg, merged, rep)
	}

	snap := rec.Snapshot()
	fmt.Fprintf(os.Stderr, "benchfig: supervise: %d shards, %d launches, %d restarts, %d hedges, %d resumes (%d nodes), kills: %d chaos / %d stall / %d deadline, %d failed\n",
		s.superviseK,
		snap.Counters["supervise/launches"], snap.Counters["supervise/restarts"],
		snap.Counters["supervise/hedges"], snap.Counters["supervise/resumes"],
		snap.Counters["supervise/resumed_nodes"],
		snap.Counters["supervise/kills/chaos"], snap.Counters["supervise/kills/stall"],
		snap.Counters["supervise/kills/deadline"], len(result.Failed))

	if err := writeSuperviseReport(s.superviseReport, buildSuperviseReport(s, result, merged, rep, injector, rec)); err != nil {
		return exitErr, err
	}
	if !result.Complete() {
		return exitFailedCells, nil
	}
	return exitOK, nil
}

func buildSuperviseReport(s scaleOpts, result *supervise.Result, merged *experiments.MergedScaleResult, rep *experiments.MergeReport, injector *chaos.Injector, rec *obs.Recorder) *superviseReport {
	r := &superviseReport{
		N:        s.n,
		Shards:   s.superviseK,
		Complete: result.Complete(),
		Merge:    rep,
	}
	if merged != nil {
		r.Threshold = merged.Threshold
		r.Edges = merged.Graph.NumEdges()
		r.Precision, r.Recall, r.F = merged.Score.Precision, merged.Score.Recall, merged.Score.F
	}
	for _, out := range result.Outcomes {
		sr := shardReport{
			Shard:        out.Shard,
			Journal:      out.Journal,
			Attempts:     out.Attempts,
			Hedges:       out.Hedges,
			ResumedNodes: out.ResumedNodes,
			Completed:    out.Completed,
			DurNS:        int64(out.Dur),
		}
		if out.Err != nil {
			sr.Error = out.Err.Error()
		}
		r.Outcomes = append(r.Outcomes, sr)
	}
	if injector != nil {
		r.Chaos = &chaosReport{
			WorkerKills: injector.Injected(chaos.SiteWorkerKill, chaos.KindError),
			Faults:      injector.TotalFaults(),
			Delays:      injector.TotalDelays(),
		}
	}
	if snap := rec.Snapshot(); len(snap.Counters) > 0 {
		r.Counters = snap.Counters
	}
	return r
}

func writeSuperviseReport(path string, r *superviseReport) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(path, b, 0o644)
}
