package experiments

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"tends/internal/chaos"
	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/metrics"
	"tends/internal/obs"
)

// csvSansRuntime renders measurements to CSV and strips the runtime_ms
// column — the only field wall clock is allowed to vary — so the remainder
// can be compared byte for byte.
func csvSansRuntime(t *testing.T, ms []Measurement) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ms); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for i, line := range lines {
		f := strings.Split(line, ",")
		lines[i] = strings.Join(append(f[:7], f[8:]...), ",")
	}
	return strings.Join(lines, "\n")
}

// A zero-rate injector must be a pure no-op: measurements and CSV bytes
// (runtime aside) identical to a run with no injector at all, at any
// worker count.
func TestChaosZeroRateIsIdentity(t *testing.T) {
	fig := tinyFigure([]Algorithm{AlgoTENDS, AlgoLIFT})
	base, _, err := RunContext(context.Background(), fig, Config{Seed: 31, Repeats: 2, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := csvSansRuntime(t, base)
	var rules []chaos.Rule
	for _, site := range chaos.Sites() {
		rules = append(rules, chaos.Rule{Site: site, Kind: chaos.KindError, Rate: 0})
	}
	for _, workers := range []int{1, 4} {
		in := chaos.New(7, rules)
		ms, _, err := RunContext(context.Background(), fig, Config{Seed: 31, Repeats: 2, Workers: workers, Chaos: in}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameMeasurements(t, base, ms)
		if got := csvSansRuntime(t, ms); got != want {
			t.Fatalf("workers=%d: zero-rate chaos changed CSV bytes:\ngot:\n%s\nwant:\n%s", workers, got, want)
		}
		if in.TotalFaults() != 0 || in.TotalDelays() != 0 {
			t.Fatalf("workers=%d: zero-rate injector injected %d faults / %d delays", workers, in.TotalFaults(), in.TotalDelays())
		}
	}
}

// The same (-seed, chaos spec, chaos seed) triple must inject the same
// fault sequence at any worker count: identical measurements, identical
// error strings, identical per-site injection counts.
func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	fig := tinyFigure([]Algorithm{AlgoTENDS, AlgoLIFT})
	rules := []chaos.Rule{{Site: chaos.SiteCellInfer, Kind: chaos.KindError, Rate: 0.5}}
	run := func(workers int) ([]Measurement, *RunStats, *chaos.Injector) {
		in := chaos.New(99, rules)
		ms, rs, err := RunContext(context.Background(), fig, Config{Seed: 32, Repeats: 2, Workers: workers, Retries: 1, Chaos: in}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ms, rs, in
	}
	base, baseStats, baseIn := run(1)
	if baseIn.TotalFaults() == 0 {
		t.Fatal("rate-0.5 injector never fired; test exercises nothing")
	}
	want := csvSansRuntime(t, base)
	for _, workers := range []int{4, 8} {
		ms, rs, in := run(workers)
		sameMeasurements(t, base, ms)
		if got := csvSansRuntime(t, ms); got != want {
			t.Fatalf("workers=%d: CSV differs:\ngot:\n%s\nwant:\n%s", workers, got, want)
		}
		if in.TotalFaults() != baseIn.TotalFaults() {
			t.Fatalf("workers=%d: injected %d faults, serial run injected %d", workers, in.TotalFaults(), baseIn.TotalFaults())
		}
		if rs.Retried != baseStats.Retried || rs.Recovered != baseStats.Recovered || rs.FailedCells != baseStats.FailedCells {
			t.Fatalf("workers=%d: stats differ: %+v vs %+v", workers, rs, baseStats)
		}
	}
}

// Every injected fault at a per-attempt site fails exactly one attempt, so
// the injector's fault count and the harness's failed-attempt counter must
// balance — the accounting identity the chaos CI job asserts.
func TestChaosAccountingBalances(t *testing.T) {
	fig := tinyFigure([]Algorithm{AlgoTENDS, AlgoLIFT})
	in := chaos.New(5, []chaos.Rule{{Site: chaos.SiteCellInfer, Kind: chaos.KindError, Rate: 0.4}})
	rec := obs.New()
	_, rs, err := RunContext(context.Background(), fig, Config{Seed: 33, Repeats: 3, Workers: 4, Retries: 2, Chaos: in, Obs: rec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	injected := in.TotalFaults()
	if injected == 0 {
		t.Fatal("no faults injected; accounting test exercises nothing")
	}
	failed := rec.Snapshot().Counters["experiments/attempts_failed"]
	if failed != injected {
		t.Fatalf("attempts_failed = %d, injected faults = %d; accounting does not balance", failed, injected)
	}
	if rs.Recovered > rs.Retried {
		t.Fatalf("recovered %d > retried %d", rs.Recovered, rs.Retried)
	}
}

// Injected panics recover into a deterministic error string with no stack
// trace (a dump would embed goroutine IDs and break cross-worker identity).
func TestChaosPanicDeterministicError(t *testing.T) {
	fig := tinyFigure([]Algorithm{AlgoLIFT})
	run := func(workers int) []Measurement {
		in := chaos.New(2, []chaos.Rule{{Site: chaos.SiteCellInfer, Kind: chaos.KindPanic, Rate: 1}})
		rec := obs.New()
		ms, _, err := RunContext(context.Background(), fig, Config{Seed: 34, Workers: workers, Chaos: in, Obs: rec}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := rec.Snapshot().Counters["experiments/panics"]; got != int64(len(ms)) {
			t.Fatalf("workers=%d: panics counter = %d, want %d", workers, got, len(ms))
		}
		return ms
	}
	base := run(1)
	for _, m := range base {
		if m.Err == nil {
			t.Fatalf("cell %s/%s survived a rate-1 panic site", m.Point, m.Algorithm)
		}
		want := "panic in LIFT: chaos: injected panic at " + chaos.SiteCellInfer
		if m.Err.Error() != want {
			t.Fatalf("error = %q, want %q", m.Err.Error(), want)
		}
		if strings.Contains(m.Err.Error(), "goroutine") {
			t.Fatalf("injected panic leaked a stack trace: %q", m.Err.Error())
		}
	}
	par := run(4)
	for i := range base {
		if base[i].Err.Error() != par[i].Err.Error() {
			t.Fatalf("cell %d error differs across workers: %q vs %q", i, base[i].Err, par[i].Err)
		}
	}
}

// A fault at the shared workload site fails every algorithm at the cell
// with the same error, and the error is the simulate wrapping.
func TestChaosSimulateFaultSharedAcrossAlgorithms(t *testing.T) {
	fig := tinyFigure([]Algorithm{AlgoTENDS, AlgoLIFT})
	in := chaos.New(3, []chaos.Rule{{Site: chaos.SiteSimulate, Kind: chaos.KindError, Rate: 1}})
	ms, rs, err := RunContext(context.Background(), fig, Config{Seed: 35, Workers: 4, Chaos: in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Err == nil || !errors.Is(m.Err, chaos.ErrInjected) {
			t.Fatalf("cell %s/%s error = %v, want injected workload fault", m.Point, m.Algorithm, m.Err)
		}
		if !strings.Contains(m.Err.Error(), "simulate") {
			t.Fatalf("workload fault lost its simulate wrapping: %v", m.Err)
		}
	}
	if rs.FailedCells != len(ms) {
		t.Fatalf("FailedCells = %d, want %d", rs.FailedCells, len(ms))
	}
}

// A checkpoint-append fault — error or panic — surfaces as the journal
// error without crashing the run or corrupting measurements.
func TestChaosCheckpointAppendFault(t *testing.T) {
	for _, kind := range []chaos.Kind{chaos.KindError, chaos.KindPanic} {
		fig := tinyFigure([]Algorithm{AlgoLIFT})
		in := chaos.New(4, []chaos.Rule{{Site: chaos.SiteCheckpointAppend, Kind: kind, Rate: 1}})
		j, _ := newTestJournal(t, 36, 1)
		ms, _, err := RunContext(context.Background(), fig, Config{Seed: 36, Workers: 2, Chaos: in, Checkpoint: j}, nil)
		if err == nil || !strings.Contains(err.Error(), "checkpoint journal") {
			t.Fatalf("kind=%v: err = %v, want checkpoint journal error", kind, err)
		}
		for _, m := range ms {
			if m.Err != nil {
				t.Fatalf("kind=%v: journal fault poisoned measurement %s/%s: %v", kind, m.Point, m.Algorithm, m.Err)
			}
		}
	}
}

// Delays slow cells down without changing any measurement.
func TestChaosDelayPreservesResults(t *testing.T) {
	fig := tinyFigure([]Algorithm{AlgoLIFT})
	base, _, err := RunContext(context.Background(), fig, Config{Seed: 37, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := chaos.New(6, []chaos.Rule{{Site: chaos.SiteCellInfer, Kind: chaos.KindDelay, Rate: 1}})
	in.SetDelay(time.Microsecond)
	ms, _, err := RunContext(context.Background(), fig, Config{Seed: 37, Workers: 1, Chaos: in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurements(t, base, ms)
	if in.TotalDelays() == 0 {
		t.Fatal("rate-1 delay site never fired")
	}
}

// backoffDelay is a pure function: reproducible, exponential up to the
// 2⁶ cap, jittered within ±25%.
func TestBackoffDelayDeterministic(t *testing.T) {
	if backoffDelay(0, 1, 0, 0, 1) != 0 {
		t.Fatal("zero base must mean no backoff")
	}
	base := 10 * time.Millisecond
	for attempt := 1; attempt <= 10; attempt++ {
		d1 := backoffDelay(base, 42, 3, 1, attempt)
		d2 := backoffDelay(base, 42, 3, 1, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, d1, d2)
		}
		shift := attempt - 1
		if shift > 6 {
			shift = 6
		}
		lo := time.Duration(float64(base<<uint(shift)) * 0.75)
		hi := time.Duration(float64(base<<uint(shift)) * 1.25)
		if d1 < lo || d1 > hi {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d1, lo, hi)
		}
	}
	if backoffDelay(base, 42, 3, 1, 1) == backoffDelay(base, 42, 3, 2, 1) {
		t.Fatal("different tasks drew identical jitter; stream looks degenerate")
	}
}

// Retry backoff delays the retry without changing its outcome, and a
// cancelled run context interrupts the wait.
func TestRetryBackoffRecovers(t *testing.T) {
	base := int64(38)
	network := failOnSeeds(cellSeed(base, 0, 0))
	fig := Figure{
		ID:         "FigBackoff",
		Algorithms: []Algorithm{AlgoLIFT},
		Points:     []Point{{Label: "p1", Workload: Workload{Network: network, Mu: 0.4, Alpha: 0.1, Beta: 60}}},
	}
	ms, rs, err := RunContext(context.Background(), fig, Config{Seed: base, Retries: 1, RetryBackoff: time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Err != nil || rs.Retried != 1 || rs.Recovered != 1 {
		t.Fatalf("backoff retry did not recover: %+v, %+v", ms[0], rs)
	}
	if !sleepCtx(context.Background(), 0) {
		t.Fatal("zero sleep must succeed")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if sleepCtx(cancelled, time.Hour) {
		t.Fatal("cancelled sleep must report interruption")
	}
}

// The circuit breaker stops retrying a cell class once BreakerThreshold of
// its tasks have exhausted every attempt, and the skips are accounted.
func TestBreakerStopsRetries(t *testing.T) {
	const broken = Algorithm("BROKEN")
	withAlgoHook(t, broken, func(ctx context.Context, g *graph.Directed, sim *diffusion.Result) (metrics.PRF, error) {
		return metrics.PRF{}, errors.New("deterministically broken")
	})
	fig := tinyFigure([]Algorithm{broken})
	fig.Points = fig.Points[:1]
	rec := obs.New()
	cfg := Config{Seed: 39, Repeats: 3, Retries: 2, Workers: 1, BreakerThreshold: 1, Obs: rec}
	ms, rs, err := RunContext(context.Background(), fig, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Err == nil || ms[0].FailedRepeats != 3 {
		t.Fatalf("broken cell should fail all repeats: %+v", ms[0])
	}
	// Repeat 0 burns 1+2 attempts and trips the breaker; repeats 1 and 2
	// skip their 2 retries each.
	if rs.Retried != 2 || rs.BreakerSkipped != 4 {
		t.Fatalf("stats = %d retried / %d breaker-skipped, want 2/4", rs.Retried, rs.BreakerSkipped)
	}
	if got := rec.Snapshot().Counters["experiments/breaker_skipped"]; got != 4 {
		t.Fatalf("breaker_skipped counter = %d, want 4", got)
	}
	// Breaker off: all 3 tasks retry fully.
	cfg.BreakerThreshold = 0
	cfg.Obs = nil
	_, rs, err = RunContext(context.Background(), fig, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Retried != 6 || rs.BreakerSkipped != 0 {
		t.Fatalf("breaker off: stats = %d retried / %d skipped, want 6/0", rs.Retried, rs.BreakerSkipped)
	}
}

// Config-level degradation knobs thread into TENDS cells: degraded nodes
// are counted on the measurement, written to the CSV, journaled, restored,
// and identical at any worker count.
func TestDegradationThreadedThroughHarness(t *testing.T) {
	fig := tinyFigure([]Algorithm{AlgoTENDS, AlgoLIFT})
	run := func(workers int) []Measurement {
		ms, _, err := RunContext(context.Background(), fig, Config{Seed: 40, Repeats: 2, Workers: workers, ComboBudget: 1}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ms
	}
	base := run(1)
	for _, m := range base {
		switch m.Algorithm {
		case AlgoTENDS:
			if m.Err != nil {
				t.Fatalf("degraded cell must not error: %v", m.Err)
			}
			if m.DegradedNodes == 0 {
				t.Fatalf("ComboBudget=1 degraded nothing in %s/%s", m.Point, m.Algorithm)
			}
		default:
			if m.DegradedNodes != 0 {
				t.Fatalf("baseline %s reports %d degraded nodes", m.Algorithm, m.DegradedNodes)
			}
		}
	}
	sameMeasurements(t, base, run(4))

	var buf bytes.Buffer
	if err := WriteCSV(&buf, base[:1]); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if !strings.Contains(lines[0], ",degraded_nodes,") {
		t.Fatalf("CSV header missing degraded_nodes: %s", lines[0])
	}
	fields := strings.Split(lines[1], ",")
	if got, want := fields[9], strconv.Itoa(base[0].DegradedNodes); got != want {
		t.Fatalf("CSV degraded_nodes = %q, want %q (row: %s)", got, want, lines[1])
	}

	j, path := newTestJournal(t, 40, 2)
	if err := j.Append(0, base[0]); err != nil {
		t.Fatal(err)
	}
	_, cells, _, err := loadJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	got := cells[CellKey{Figure: fig.ID, PointIndex: 0, Algorithm: base[0].Algorithm}]
	if got.DegradedNodes != base[0].DegradedNodes {
		t.Fatalf("journal round-trip lost degraded nodes: %d vs %d", got.DegradedNodes, base[0].DegradedNodes)
	}
}
