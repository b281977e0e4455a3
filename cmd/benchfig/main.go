// Command benchfig regenerates the paper's evaluation figures. Each figure
// is a parameter sweep over a workload with the algorithms the paper
// compares; the output is the same pair of series each figure plots —
// F-score and running time per sweep point per algorithm.
//
// Usage:
//
//	benchfig -fig 1            # regenerate Figure 1
//	benchfig -all              # all figures (long!)
//	benchfig -fig 4 -repeats 3 # average over 3 simulation repeats
//	benchfig -fig 8 -csv out.csv
//	benchfig -all -workers 8   # run up to 8 cells concurrently
//	benchfig -fig 1 -checkpoint run.journal   # journal completed cells
//	benchfig -fig 1 -resume run.journal       # skip cells already journaled
//	benchfig -fig 1 -resume run.journal -resume-strict  # a damaged journal aborts instead
//	benchfig -all -progress                 # throttled cells-done/ETA line
//	benchfig -fig 4 -obs-json obs.json      # dump phase timings and counters
//	benchfig -all -pprof localhost:6060     # live CPU/heap profiles
//	benchfig -fig 1 -chaos "experiments.cell.infer=0.2" -chaos-seed 7 -retries 2
//	benchfig -fig 1 -node-deadline 50ms -combo-budget 5000   # degrade, don't hang
//	benchfig -study greedy -repeats 3 -csv greedy.csv   # an ablation or extension study
//
// Scenario overrides rerun any figure under different diffusion dynamics or
// dirty observations (figures 12–15 are dedicated scenario sweeps; an
// override never flattens the axis a figure itself sweeps):
//
//	benchfig -fig 4 -model sir -recovery 0.5        # Fig 4 under SIR dynamics
//	benchfig -fig 4 -model sis -recovery 0.5 -reinfect 0.3
//	benchfig -fig 6 -delay rayleigh                 # Rayleigh transmission delays
//	benchfig -fig 12 -csv miss.csv                  # F vs missing-rate family
//	benchfig -fig 8 -missing 0.2 -uncertain 0.1     # dirty observations
//
// Scale-study mode (large-n LFR, optional sharding; the pairwise stage
// counts joint infections by the cascade walk wherever cascades are sparse):
//
//	benchfig -scale -scale-n 100000           # one big run end to end
//	benchfig -scale -scale-n 100000 -shard 0/4 -checkpoint shard-0.journal
//	benchfig -scale -scale-n 100000 -shard 1/4 -checkpoint shard-1.journal  # ... one process per shard
//	benchfig -scale -scale-n 100000 -merge 'shards/*.journal'   # globs allowed
//	benchfig -scale -scale-n 100000 -merge 'shards/*.journal' -merge-degraded  # partial set OK
//
// Every shard regenerates the identical workload from -seed and computes the
// identical global threshold, so the merged topology is byte-identical to an
// unsharded run; the merge cross-checks headers and refuses mismatched or
// truncated journals. -merge validates shard-set completeness up front and
// names the missing indices; -merge-degraded merges an incomplete set into
// the partial topology plus an explicit missing-node report (exit 3).
//
// A shard that dies mid-run is rerun with the same -shard i/k -checkpoint
// and -shard-resume: the journal's intact node records are kept (a torn tail
// is truncated first) and only the remaining nodes are searched.
//
//	benchfig -scale -scale-n 100000 -shard 1/4 -checkpoint shard-1.journal -shard-resume
//
// The scale modes take -seed, -workers, -obs-json, -chaos and the journal
// flags their mode names; a figure flag (-fig, -all, -study, -csv, -repeats,
// -algos, -cell-timeout, -retries, -node-deadline, -combo-budget, the
// scenario overrides) set on the command line is a usage error there.
//
// Each (point, repeat) workload is generated once and shared by every
// compared algorithm; -workers bounds how many (point, repeat, algorithm)
// cells run concurrently (0 = all CPUs). Results for a fixed -seed are
// identical at any worker count, runtimes excepted.
//
// The studies (-study threshold, greedy, penalty, treemodel, timestamps) are
// figures kept out of -all; every figure flag (-repeats, -workers, -csv,
// -checkpoint/-resume, -obs-json, -chaos, -algos, the scenario overrides)
// applies to them.
//
// The harness is fault tolerant: a panicking or failing algorithm run is
// contained to its cell (rendered ERR, retried per -retries on fresh derived
// seeds), -cell-timeout bounds each cell's runtime, and SIGINT/SIGTERM
// cancels the sweep cleanly — in-flight cells are drained, the checkpoint journal and partial output are
// flushed, and the process exits with status 130. A later -resume run
// restores journaled cells and reproduces the uninterrupted tables for the
// rest. Exit status: 0 success, 1 error, 3 completed but some cells never
// produced a score, 130 interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tends/internal/chaos"
	"tends/internal/experiments"
	"tends/internal/obs"
)

// Exit codes of the benchfig process.
const (
	exitOK          = 0
	exitErr         = 1
	exitFailedCells = 3   // sweep completed, but some cells never produced a score
	exitInterrupted = 130 // cancelled by SIGINT/SIGTERM (128 + SIGINT)
)

// runOpts carries the flag values of one benchfig invocation.
type runOpts struct {
	figNum       int
	all          bool
	study        string
	repeats      int
	seed         int64
	csvPath      string
	algos        string
	quiet        bool
	workers      int
	cellTimeout  time.Duration
	retries      int
	checkpoint   string
	resume       string
	resumeStrict bool
	obsJSON      string
	progress     bool
	pprofAddr    string

	chaosSpec    string
	chaosSeed    int64
	nodeDeadline time.Duration
	comboBudget  int

	// Scenario overrides; empty strings and negative floats mean "keep the
	// figure's own value" (see experiments.ScenarioOverride).
	model      string
	delay      string
	delayParam float64
	recovery   float64
	reinfect   float64
	missing    float64
	uncertain  float64
}

func main() {
	var o runOpts
	flag.IntVar(&o.figNum, "fig", 0, "figure number to regenerate (1..16)")
	flag.BoolVar(&o.all, "all", false, "regenerate every figure")
	flag.StringVar(&o.study, "study", "", "run an ablation or extension study instead: "+strings.Join(experiments.StudyNames(), ", "))
	flag.IntVar(&o.repeats, "repeats", 1, "simulation repeats averaged per point")
	flag.Int64Var(&o.seed, "seed", 1, "base RNG seed")
	flag.StringVar(&o.csvPath, "csv", "", "also write raw measurements as CSV")
	flag.StringVar(&o.algos, "algos", "", "comma-separated algorithm override, e.g. TENDS,NetInf,PATH")
	flag.IntVar(&o.workers, "workers", 0, "concurrent harness cells (0 = all CPUs, 1 = serial)")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress per-cell progress output")
	flag.DurationVar(&o.cellTimeout, "cell-timeout", 0, "per-cell algorithm deadline, e.g. 2m (0 = none)")
	flag.IntVar(&o.retries, "retries", 0, "re-run a failed cell repeat up to this many times with fresh derived seeds")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "append completed cells to this checkpoint journal")
	flag.StringVar(&o.resume, "resume", "", "restore completed cells from this checkpoint journal and continue it")
	flag.BoolVar(&o.resumeStrict, "resume-strict", false, "refuse to resume from (or merge) a damaged journal (exit non-zero) instead of truncating the damage and recomputing it")
	flag.StringVar(&o.obsJSON, "obs-json", "", "write an observability snapshot (counters, gauges, phase timings) as JSON to this file")
	flag.BoolVar(&o.progress, "progress", false, "print a throttled cells-done/ETA line to stderr")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060")
	flag.StringVar(&o.chaosSpec, "chaos", "", `inject deterministic faults: "site=rate,site:kind=rate,..." (kinds: error, panic, delay; sites: `+strings.Join(chaos.Sites(), ", ")+")")
	flag.Int64Var(&o.chaosSeed, "chaos-seed", 1, "seed for the chaos injector's fault decisions (independent of -seed)")
	flag.DurationVar(&o.nodeDeadline, "node-deadline", 0, "soft per-node TENDS search deadline; breaching nodes keep best-so-far parents (0 = none)")
	flag.IntVar(&o.comboBudget, "combo-budget", 0, "cap on parent combinations scored per TENDS node; breaching nodes degrade (0 = none)")
	flag.StringVar(&o.model, "model", "", "diffusion model override: ic, lt, sir, sis (empty = figure default)")
	flag.StringVar(&o.delay, "delay", "", "transmission-delay law override: exp, powerlaw, rayleigh (empty = figure default)")
	flag.Float64Var(&o.delayParam, "delay-param", -1, "delay-law parameter: exp rate, power-law shape, Rayleigh sigma (negative = law default)")
	flag.Float64Var(&o.recovery, "recovery", -1, "SIR/SIS per-round probability an infectious node stays infectious, in [0,1) (negative = keep)")
	flag.Float64Var(&o.reinfect, "reinfect", -1, "SIS probability a recovering node returns to susceptible, in [0,1] (negative = keep)")
	flag.Float64Var(&o.missing, "missing", -1, "missing-observation rate in [0,1] applied after simulation (negative = keep)")
	flag.Float64Var(&o.uncertain, "uncertain", -1, "uncertain-observation rate in [0,1] applied after simulation (negative = keep)")
	var s scaleOpts
	registerScaleFlags(&s)
	flag.Parse()
	s.explicit = map[string]bool{}
	flag.Visit(func(f *flag.Flag) { s.explicit[f.Name] = true })

	if s.run || s.shardSpec != "" || s.mergeSpec != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		code, err := runScale(ctx, o, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
			if code == exitOK {
				code = exitErr
			}
		}
		os.Exit(code)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
		if code == exitOK {
			code = exitErr
		}
	}
	os.Exit(code)
}

// parseAlgos turns a comma-separated override like "TENDS,NetInf,PATH" into
// an algorithm list, validating every name.
func parseAlgos(spec string) ([]experiments.Algorithm, error) {
	known := map[string]experiments.Algorithm{
		"TENDS":    experiments.AlgoTENDS,
		"TENDS-MI": experiments.AlgoTENDSMI,
		"NETRATE":  experiments.AlgoNetRate,
		"MULTREE":  experiments.AlgoMulTree,
		"NETINF":   experiments.AlgoNetInf,
		"LIFT":     experiments.AlgoLIFT,
		"PATH":     experiments.AlgoPATH,
	}
	var out []experiments.Algorithm
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		algo, ok := known[strings.ToUpper(name)]
		if !ok {
			return nil, fmt.Errorf("unknown algorithm %q", name)
		}
		out = append(out, algo)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty algorithm list %q", spec)
	}
	return out, nil
}

// openResume reopens a checkpoint journal for a resumed run and validates
// its header against the run's seed and repeats, so restored cells can
// never silently mix with freshly computed ones from a different
// configuration. Damage (a torn tail from a crash mid-append, or mid-file
// corruption) is not fatal by default: it is reported to stderr with its
// byte offset, truncated away so new cells append on a record boundary,
// and the dropped byte count lands on the recorder (nil-safe) so an
// -obs-json snapshot records the loss. With strict set (-resume-strict)
// damage aborts the run instead and the file is left untouched — the same
// lenient/strict split the streaming service applies to its write-ahead
// log. The returned journal continues the file.
func openResume(path string, seed int64, repeats int, strict bool, rec *obs.Recorder) (*experiments.Journal, map[experiments.CellKey]experiments.Measurement, error) {
	j, header, cells, warn, err := experiments.OpenJournal(path, strict)
	if err != nil {
		return nil, nil, fmt.Errorf("resume %s: %w", path, err)
	}
	if warn != nil {
		fmt.Fprintf(os.Stderr, "benchfig: %s: dropped %s; the cells it held will be recomputed\n", path, warn)
		rec.Counter("benchfig/journal_dropped_bytes").Add(warn.Dropped)
	}
	if header.Seed != seed || header.Repeats != repeats {
		j.Close()
		return nil, nil, fmt.Errorf("resume %s: journal was written with seed %d, repeats %d; run has seed %d, repeats %d",
			path, header.Seed, header.Repeats, seed, repeats)
	}
	return j, cells, nil
}

func run(ctx context.Context, o runOpts) (int, error) {
	if o.repeats < 0 {
		return exitErr, fmt.Errorf("usage: -repeats must be >= 0, got %d", o.repeats)
	}
	if o.workers < 0 {
		return exitErr, fmt.Errorf("usage: -workers must be >= 0, got %d", o.workers)
	}
	if o.retries < 0 {
		return exitErr, fmt.Errorf("usage: -retries must be >= 0, got %d", o.retries)
	}
	if o.comboBudget < 0 {
		return exitErr, fmt.Errorf("usage: -combo-budget must be >= 0, got %d", o.comboBudget)
	}
	if o.nodeDeadline < 0 {
		return exitErr, fmt.Errorf("usage: -node-deadline must be >= 0")
	}
	var injector *chaos.Injector
	if o.chaosSpec != "" {
		rules, err := chaos.ParseSpec(o.chaosSpec)
		if err != nil {
			return exitErr, fmt.Errorf("usage: -chaos: %w", err)
		}
		injector = chaos.New(o.chaosSeed, rules)
	}
	figs := experiments.Figures()
	var selected []experiments.Figure
	switch {
	case o.study != "" && (o.all || o.figNum != 0):
		return exitErr, fmt.Errorf("usage: -study runs alone, not with -fig or -all")
	case o.study != "":
		fig, ok := experiments.Studies()[o.study]
		if !ok {
			return exitErr, fmt.Errorf("unknown study %q (have %s)", o.study, strings.Join(experiments.StudyNames(), ", "))
		}
		selected = []experiments.Figure{fig}
	case o.all:
		for _, id := range experiments.FigureIDs() {
			selected = append(selected, figs[id])
		}
	case o.figNum != 0:
		fig, ok := figs[o.figNum]
		if !ok {
			return exitErr, fmt.Errorf("unknown figure %d (have 1..16)", o.figNum)
		}
		selected = []experiments.Figure{fig}
	default:
		return exitErr, fmt.Errorf("one of -fig, -all or -study is required")
	}
	var algoOverride []experiments.Algorithm
	if o.algos != "" {
		var err error
		algoOverride, err = parseAlgos(o.algos)
		if err != nil {
			return exitErr, err
		}
	}
	repeats := o.repeats
	if repeats <= 0 {
		repeats = 1
	}
	if o.resume != "" && o.checkpoint != "" && o.checkpoint != o.resume {
		return exitErr, fmt.Errorf("-checkpoint %s conflicts with -resume %s: a resumed run continues its own journal", o.checkpoint, o.resume)
	}

	// The observability recorder is a pure side channel (measurements, CSV
	// bytes, and the journal are identical with and without it), so it is
	// created whenever any obs output was requested. It must exist before the
	// resume journal is loaded so dropped-byte counts land on it.
	var rec *obs.Recorder
	if o.obsJSON != "" || o.progress {
		rec = obs.New()
	}

	// The checkpoint journal: continued in place on -resume (restored cells
	// are only recorded there, so a second journal would be incomplete),
	// started fresh on -checkpoint alone.
	var resumeCells map[experiments.CellKey]experiments.Measurement
	var journal *experiments.Journal
	switch {
	case o.resume != "":
		var err error
		journal, resumeCells, err = openResume(o.resume, o.seed, repeats, o.resumeStrict, rec)
		if err != nil {
			return exitErr, err
		}
		defer journal.Close()
	case o.checkpoint != "":
		var err error
		journal, err = experiments.NewJournal(o.checkpoint, o.seed, repeats)
		if err != nil {
			return exitErr, err
		}
		defer journal.Close()
	}

	var progress io.Writer
	if !o.quiet {
		progress = os.Stderr
	}
	if o.pprofAddr != "" {
		if err := startPprof(o.pprofAddr); err != nil {
			return exitErr, err
		}
	}
	if o.progress {
		stop := startProgress(rec, os.Stderr)
		defer stop()
	}
	var allMeasurements []experiments.Measurement
	var total experiments.RunStats
	interrupted := false
	scenarioOv := experiments.ScenarioOverride{
		Model: o.model, Delay: o.delay, DelayParam: o.delayParam,
		Recovery: o.recovery, Reinfect: o.reinfect,
		Missing: o.missing, Uncertain: o.uncertain,
	}
	for _, fig := range selected {
		if algoOverride != nil {
			fig = experiments.SelectAlgorithms(fig, algoOverride...)
		}
		var err error
		fig, err = experiments.ApplyScenario(fig, scenarioOv)
		if err != nil {
			return exitErr, fmt.Errorf("usage: %w", err)
		}
		cfg := experiments.Config{
			Seed:         o.seed,
			Repeats:      o.repeats,
			Workers:      o.workers,
			CellTimeout:  o.cellTimeout,
			Retries:      o.retries,
			NodeDeadline: o.nodeDeadline,
			ComboBudget:  o.comboBudget,
			Chaos:        injector,
			Checkpoint:   journal,
			Resume:       resumeCells,
			Obs:          rec,
		}
		ms, rs, err := experiments.RunContext(ctx, fig, cfg, progress)
		if err != nil && !errors.Is(err, context.Canceled) {
			return exitErr, err
		}
		interrupted = interrupted || err != nil
		total.Cells += rs.Cells
		total.Restored += rs.Restored
		total.FailedCells += rs.FailedCells
		total.CancelledCells += rs.CancelledCells
		total.Retried += rs.Retried
		total.Recovered += rs.Recovered
		if err := experiments.WriteTable(os.Stdout, fig, ms); err != nil {
			return exitErr, err
		}
		allMeasurements = append(allMeasurements, ms...)
		if interrupted {
			break
		}
	}
	if o.csvPath != "" {
		f, err := os.Create(o.csvPath)
		if err != nil {
			return exitErr, err
		}
		if err := experiments.WriteCSV(f, allMeasurements); err != nil {
			f.Close()
			return exitErr, err
		}
		if err := f.Close(); err != nil {
			return exitErr, err
		}
	}
	// The snapshot is written even after an interruption — a partial run's
	// phase profile is exactly what a timeout investigation needs.
	if o.obsJSON != "" {
		f, err := os.Create(o.obsJSON)
		if err != nil {
			return exitErr, err
		}
		if err := rec.WriteJSON(f); err != nil {
			f.Close()
			return exitErr, err
		}
		if err := f.Close(); err != nil {
			return exitErr, err
		}
	}
	degradedNodes := 0
	for _, m := range allMeasurements {
		degradedNodes += m.DegradedNodes
	}
	if interrupted || total.FailedCells+total.CancelledCells+total.Retried+total.Restored+degradedNodes > 0 {
		fmt.Fprintf(os.Stderr, "benchfig: %d/%d cells failed, %d cancelled, %d restored, %d retries (%d recovered), %d degraded nodes\n",
			total.FailedCells, total.Cells, total.CancelledCells, total.Restored, total.Retried, total.Recovered, degradedNodes)
	}
	if injector != nil {
		fmt.Fprintf(os.Stderr, "benchfig: chaos injected %d faults, %d delays (-chaos %q -chaos-seed %d)\n",
			injector.TotalFaults(), injector.TotalDelays(), o.chaosSpec, o.chaosSeed)
	}
	switch {
	case interrupted:
		return exitInterrupted, fmt.Errorf("interrupted; completed cells journaled%s", resumeHint(o))
	case total.FailedCells > 0:
		return exitFailedCells, nil
	}
	return exitOK, nil
}

// resumeHint names the journal a -resume run can pick up, if one was kept.
func resumeHint(o runOpts) string {
	switch {
	case o.resume != "":
		return fmt.Sprintf(" — resume with -resume %s", o.resume)
	case o.checkpoint != "":
		return fmt.Sprintf(" — resume with -resume %s", o.checkpoint)
	}
	return ""
}
