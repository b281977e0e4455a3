// Command tendsbench is the repository's benchmark: one command that runs a
// named workload through the library's public functions, checks that the
// outputs are correct, and prints every metric by name with its unit.
//
//	tendsbench --workload paper-1k --seed 1 --seconds 20 --trace 0
//	tendsbench compare old.log new.log
//
// A run generates its inputs from --seed (LFR network, edge probabilities,
// diffusion observations), sets up several times and reports the median
// set-up time, then repeats the workload's timed path until --seconds have
// passed and reports medians. With --trace 1 it alternates untraced and
// traced iterations: the traced ones carry an obs.Recorder, and the run
// reports the per-layer metrics instead of the end-to-end ones.
//
// The last line of standard output is the result the benchmark contract
// asks for: {"correct", "attempted", "failed", "metrics"}, with exactly the
// metrics BENCHMARK.json lists for the mode. The line before it is a richer
// record (every metric, timing distributions, self time per span, output
// digests and checks) that the compare subcommand reads.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

//go:embed ledger.json
var ledgerJSON []byte

// ledger holds what the benchmark records beside its code: seeds, each
// workload's rationale, the per-layer → end-to-end map, and the output
// digests of the recorded seeds.
type ledger struct {
	DefaultSeed  int64                        `json:"default_seed"`
	HeldOutSeed  int64                        `json:"held_out_seed"`
	Workloads    map[string]string            `json:"workloads"`
	PerLayerMap  map[string][]string          `json:"per_layer_map"`
	GoldenDigest map[string]map[string]string `json:"golden_digest"`
}

// spec is the metric list of BENCHMARK.json.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// config is one run's command line.
type config struct {
	workload string
	instance int64 // seeds the ground-truth network and the observations
	seed     int64 // seeds the node relabeling of the instance
	seconds  time.Duration
	trace    bool
	workdir  string
	golden   string // the topology digest recorded for this instance and seed, if any
}

// outcome is everything one run measured.
type outcome struct {
	metrics map[string]float64
	dists   map[string]dist
	self    map[string]float64 // traced runs: median self seconds per span
	digest  string
	tally
}

// tally counts the operations a run performed (timed iterations or
// requests, plus output checks) and those that failed.
type tally struct {
	attempted, failed int
	checks            []check
}

// check is one output check and whether it held.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

func (t *tally) check(name string, ok bool, note string, args ...any) {
	t.checks = append(t.checks, check{Name: name, OK: ok, Note: fmt.Sprintf(note, args...)})
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.checks = append(t.checks, u.checks...)
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"paper-1k":   func(ctx context.Context, c config) (*outcome, error) { return runBatch(ctx, c, paper1k) },
	"scale-100k": func(ctx context.Context, c config) (*outcome, error) { return runBatch(ctx, c, scale100k) },
	"stream-256": runStream,
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: paper-1k, scale-100k or stream-256")
	flag.Int64Var(&cfg.seed, "seed", 0, "workload seed: relabels the instance's nodes (0 means the ledger's default seed)")
	flag.Int64Var(&cfg.instance, "instance", 0, "instance seed: generates the network and observations (0 means the ledger's default seed)")
	flag.Float64Var(&seconds, "seconds", 10, "how long the timed loop runs")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from traced iterations")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "directory for scratch files (WALs)")
	flag.Parse()

	var led ledger
	if err := json.Unmarshal(ledgerJSON, &led); err != nil {
		fail(fmt.Errorf("parse ledger.json: %w", err))
	}
	if flag.Arg(0) == "compare" {
		if err := runCompare(os.Stdout, flag.Args()[1:], led); err != nil {
			fail(err)
		}
		return
	}
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	if seconds <= 0 {
		fail(errors.New("--seconds must be positive"))
	}
	if cfg.seed == 0 {
		cfg.seed = led.DefaultSeed
	}
	if cfg.instance == 0 {
		cfg.instance = led.DefaultSeed
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.golden = led.GoldenDigest[cfg.workload][fmt.Sprintf("%d/%d", cfg.instance, cfg.seed)]

	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fail(fmt.Errorf("read BENCHMARK.json (run from the root of the checkout): %w", err))
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		fail(fmt.Errorf("parse BENCHMARK.json: %w", err))
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fail(err)
	}

	out, err := run(context.Background(), cfg)
	if err != nil {
		fail(fmt.Errorf("%s: %w", cfg.workload, err))
	}
	if err := report(os.Stdout, cfg, sp, out); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tendsbench: %v\n", err)
	os.Exit(1)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the line the compare subcommand reads.
type record struct {
	Workload string             `json:"workload"`
	Instance int64              `json:"instance"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Seconds  float64            `json:"seconds"`
	Go       string             `json:"go"`
	CPUs     int                `json:"cpus"`
	Digest   string             `json:"digest,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	Dists    map[string]dist    `json:"dists,omitempty"`
	SelfS    map[string]float64 `json:"self_s,omitempty"`
	Checks   []check            `json:"checks"`
}

// report prints the record line and then the contract's result line.
func report(w io.Writer, cfg config, sp spec, out *outcome) error {
	list := sp.EndToEnd
	if cfg.trace {
		list = sp.PerLayer
	}
	metrics := make(map[string]metricValue, len(list))
	for _, m := range list {
		v, ok := out.metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %q listed in BENCHMARK.json was not measured", cfg.workload, m.Name)
		}
		metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	rec := record{
		Workload: cfg.workload, Instance: cfg.instance, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds.Seconds(),
		Go: runtime.Version(), CPUs: runtime.GOMAXPROCS(0), Digest: out.digest,
		Metrics: out.metrics, Dists: out.dists, SelfS: out.self, Checks: out.checks,
	}
	for _, c := range out.checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "tendsbench: check %s failed: %s\n", c.Name, c.Note)
		}
	}
	line, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		return err
	}
	res, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.failed == 0, max(out.attempted, 1), out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, res)
	return err
}

// timedLoop calls iter until budget has passed (at least once). With
// alternate set, iterations alternate untraced (false) and traced (true),
// starting untraced, and the loop runs until both kinds have run.
func timedLoop(budget time.Duration, alternate bool, iter func(traced bool) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		traced := alternate && i%2 == 1
		if err := iter(traced); err != nil {
			return err
		}
		if time.Since(start) >= budget && (!alternate || i >= 1) {
			return nil
		}
	}
}
