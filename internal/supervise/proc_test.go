package supervise

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"tends/internal/chaos"
	"tends/internal/experiments"
)

// TestHelperShardWorker is not a test: it is the subprocess body for the
// SIGKILL tests below, selected by re-execing this test binary with
// positional args after "--". It runs one real shard worker, optionally
// slowed per node so the parent has a wide window to kill it mid-shard.
//
// argv after "--": shard-worker <n> <beta> <seeds> <seed> <workers>
//
//	<shard> <count> <journal> <resume 0|1> <slow-us>
func TestHelperShardWorker(t *testing.T) {
	args := flag.Args()
	if len(args) != 11 || args[0] != "shard-worker" {
		t.Skip("helper process; run via re-exec")
	}
	atoi := func(s string) int {
		v, err := strconv.Atoi(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "helper: bad arg %q: %v\n", s, err)
			os.Exit(2)
		}
		return v
	}
	cfg := experiments.ScaleConfig{
		N:          atoi(args[1]),
		Beta:       atoi(args[2]),
		Seeds:      atoi(args[3]),
		Seed:       int64(atoi(args[4])),
		Workers:    atoi(args[5]),
		ShardIndex: atoi(args[6]),
		ShardCount: atoi(args[7]),
	}
	journal := args[8]
	resume := args[9] == "1"
	ctx := context.Background()
	if slow := atoi(args[10]); slow > 0 {
		inj := chaos.New(1, []chaos.Rule{{Site: chaos.SiteShardSlow, Kind: chaos.KindDelay, Rate: 1}})
		inj.SetDelay(time.Duration(slow) * time.Microsecond)
		ctx = chaos.With(ctx, inj)
	}
	if _, err := experiments.RunShardWorker(ctx, cfg, journal, resume); err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// helperArgv builds the re-exec argv for one attempt.
func helperArgv(cfg experiments.ScaleConfig, a Attempt, slowUS int) []string {
	resume := "0"
	if a.Resume {
		resume = "1"
	}
	return []string{
		os.Args[0], "-test.run=^TestHelperShardWorker$", "--",
		"shard-worker",
		strconv.Itoa(cfg.N), strconv.Itoa(cfg.Beta), strconv.Itoa(cfg.Seeds),
		strconv.FormatInt(cfg.Seed, 10), strconv.Itoa(cfg.Workers),
		strconv.Itoa(a.Shard), strconv.Itoa(a.ShardCount),
		a.Journal, resume, strconv.Itoa(slowUS),
	}
}

// TestSuperviseSubprocessKillResume is the kill -9 drill: a real subprocess
// worker is SIGKILLed partway through its shard — no defers, no cleanup,
// exactly what the supervisor's failure model assumes — then the supervisor
// takes over, resumes the partial journal, and the merged topology must be
// byte-identical to an unsharded run. Checked at serial and parallel core
// worker counts.
func TestSuperviseSubprocessKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	for _, workers := range []int{1, 4} {
		cfg := experiments.ScaleConfig{N: 60, Beta: 48, Seeds: 2, Seed: 17, Workers: workers}
		want := unshardedTopology(t, cfg)
		dir := t.TempDir()
		journal0 := filepath.Join(dir, "shard-0.journal")

		// Phase 1: run shard 0 as a slowed subprocess and kill -9 it once the
		// journal shows real progress (at least two node records after the
		// header).
		victim := exec.Command(os.Args[0], helperArgv(cfg, Attempt{
			Shard: 0, ShardCount: 2, Attempt: 1, Journal: journal0,
		}, 4000)[1:]...)
		victim.Stderr = os.Stderr
		if err := victim.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			if time.Now().After(deadline) {
				victim.Process.Kill()
				victim.Wait()
				t.Fatal("victim worker made no journal progress in 30s")
			}
			data, err := os.ReadFile(journal0)
			if err == nil && strings.Count(string(data), `"node":`) >= 2 {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err := victim.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		victim.Wait()

		st := inspect(journal0, cfg.N, 0, 2)
		if !st.exists || !st.header {
			t.Fatalf("workers=%d: killed worker left no resumable journal: %+v", workers, st)
		}
		if st.complete {
			t.Fatalf("workers=%d: victim finished before the kill; the test exercised nothing", workers)
		}

		// Phase 2: the supervisor takes over both shards with full-speed
		// subprocess workers; shard 0 must resume the dead worker's journal.
		res, err := Run(context.Background(), Options{
			Shards:      2,
			N:           cfg.N,
			JournalPath: func(s int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d.journal", s)) },
			Launch: ProcLauncher{
				Command: func(a Attempt) []string { return helperArgv(cfg, a, 0) },
				Stderr:  os.Stderr,
			},
			Retries: 2,
			Seed:    cfg.Seed,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Complete() {
			t.Fatalf("workers=%d: failed shards %v", workers, res.Failed)
		}
		if res.Outcomes[0].ResumedNodes == 0 {
			t.Fatalf("workers=%d: shard 0 did not resume the killed worker's journal: %+v", workers, res.Outcomes[0])
		}

		merged := mergeOutcomes(t, cfg, res)
		if merged.Graph.String() != want {
			t.Fatalf("workers=%d: post-kill resumed topology differs from unsharded", workers)
		}
	}
}

// TestSuperviseSubprocessStallKill checks the production heartbeat against a
// real subprocess: the first worker is SIGSTOPped mid-run — alive as a
// process, dead by the journal-growth heartbeat's definition. The supervisor
// must stall-kill it and the replacement must resume to the exact topology.
func TestSuperviseSubprocessStallKill(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	cfg := experiments.ScaleConfig{N: 40, Beta: 32, Seeds: 2, Seed: 9, Workers: 2}
	dir := t.TempDir()
	var frozeOnce bool
	launch := ProcLauncher{
		Command: func(a Attempt) []string {
			slow := 0
			if a.Shard == 0 && a.Attempt == 1 {
				slow = 3000
			}
			return helperArgv(cfg, a, slow)
		},
		Stderr: os.Stderr,
	}
	res, err := Run(context.Background(), Options{
		Shards:      2,
		N:           cfg.N,
		JournalPath: func(s int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d.journal", s)) },
		Launch: freezeLauncher{ProcLauncher: launch, freeze: func(a Attempt, h Handle) {
			if a.Shard == 0 && a.Attempt == 1 && !frozeOnce {
				frozeOnce = true
				if ph, ok := h.(*procHandle); ok {
					go func() {
						time.Sleep(20 * time.Millisecond)
						ph.cmd.Process.Signal(stopSignal)
					}()
				}
			}
		}},
		Retries:      2,
		StallTimeout: 60 * time.Millisecond,
		PollEvery:    10 * time.Millisecond,
		Seed:         cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("failed shards %v", res.Failed)
	}
	if res.Outcomes[0].Attempts < 2 {
		t.Fatalf("frozen worker was not replaced: %+v", res.Outcomes[0])
	}
	merged := mergeOutcomes(t, cfg, res)
	if merged.Graph.String() != unshardedTopology(t, cfg) {
		t.Fatal("post-freeze topology differs from unsharded")
	}
}

// stopSignal freezes a process without killing it: alive to the OS, dead to
// the journal-growth heartbeat.
var stopSignal = syscall.SIGSTOP

// freezeLauncher wraps a launcher and hands each started handle to a hook —
// the test's lever for freezing a live subprocess.
type freezeLauncher struct {
	ProcLauncher
	freeze func(a Attempt, h Handle)
}

func (l freezeLauncher) Start(ctx context.Context, a Attempt) (Handle, error) {
	h, err := l.ProcLauncher.Start(ctx, a)
	if err == nil && l.freeze != nil {
		l.freeze(a, h)
	}
	return h, err
}
