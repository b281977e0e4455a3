// Command tendsd runs the crash-safe streaming inference service and its
// operational tooling, in three modes:
//
//	tendsd serve    -n 128 -dir data [-addr :7070] [flags]
//	tendsd ingest   -addr http://host:7070 -in statuses.txt [-batch 64]
//	tendsd loadtest -n 256 -beta 512 [-writers 8] [-chaos spec] [flags]
//
// serve ingests observation rows (final-status vectors) over HTTP, acks
// each batch only after a write-ahead-log fsync, and keeps an inferred
// topology current on a debounced background loop. kill -9 at any point
// loses nothing acked: restart replays the WAL onto the last snapshot and
// reproduces the exact batch-run topology. SIGTERM drains gracefully —
// queued batches commit, the final recompute lands, and a snapshot is
// persisted — within the -drain-timeout budget; a drain that breaches it
// prints one structured stderr line with the durability position (rows
// acked, rows still queued and therefore dropped unacked, WAL rows/bytes)
// and exits with status 4 instead of 1, so supervisors can tell "shut down
// dirty but acked data is safe" from an ordinary failure.
//
// ingest streams a statuses file (the diffsim format) into a running
// server in batches with deterministic batch ids, retrying on
// backpressure. Re-running the same file with the same -id-base is
// idempotent: acked batches dedup server-side.
//
// loadtest generates an LFR ground-truth workload, drives the service with
// concurrent writers and readers (optionally under -chaos fault
// injection), and reports ingest/query latency percentiles, rejection and
// degradation counts, reconstruction F over time against the generating
// graph, and an end-to-end consistency verdict: zero lost acked rows and a
// final topology identical to a batch run over the same rows.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tends/internal/chaos"
	"tends/internal/core"
	"tends/internal/diffusion"
	"tends/internal/experiments"
	"tends/internal/graph"
	"tends/internal/metrics"
	"tends/internal/obs"
	"tends/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = runServe(os.Args[2:])
	case "ingest":
		err = runIngest(os.Args[2:])
	case "loadtest":
		err = runLoadtest(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "tendsd: unknown mode %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tendsd: %v\n", err)
		if errors.Is(err, serve.ErrDrainDeadline) {
			os.Exit(4)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  tendsd serve    -n <nodes> -dir <datadir> [-addr :7070] [flags]
  tendsd ingest   -addr <url> -in <statuses.txt> [-batch 64] [flags]
  tendsd loadtest -n <nodes> -beta <rows> [-writers 8] [-chaos spec] [flags]
run "tendsd <mode> -h" for mode flags
`)
}

// serviceFlags are the Config knobs shared by serve and loadtest.
func serviceFlags(fs *flag.FlagSet, cfg *serve.Config) (chaosSpec *string, chaosSeed *int64, maxHeapMB *int64) {
	fs.IntVar(&cfg.Infer.MaxComboSize, "combo", 0, "max parent-combination size (default 2)")
	fs.IntVar(&cfg.Infer.Workers, "workers", 0, "parallel search workers (0 = all CPUs)")
	fs.BoolVar(&cfg.Infer.TraditionalMI, "mi", false, "use traditional MI instead of infection MI")
	fs.DurationVar(&cfg.Infer.NodeDeadline, "node-deadline", 0, "per-node search deadline; breaching nodes keep best-so-far parents and are reported degraded")
	fs.IntVar(&cfg.Infer.ComboBudget, "combo-budget", 0, "per-node combination budget; same degradation contract")
	fs.IntVar(&cfg.QueueRows, "queue-rows", 0, "max rows queued for commit before 429 (default 65536)")
	fs.IntVar(&cfg.MaxInflight, "max-inflight", 0, "max concurrently admitted requests before 503 (default 256)")
	fs.DurationVar(&cfg.RequestTimeout, "request-timeout", 0, "per-request deadline, commit wait included (default 10s)")
	fs.DurationVar(&cfg.Debounce, "debounce", 0, "quiet period after the last ingest before recomputing (default 100ms)")
	fs.DurationVar(&cfg.MaxLag, "max-lag", 0, "max topology staleness under a continuous stream (default 2s)")
	fs.IntVar(&cfg.SnapshotEvery, "snapshot-every", 0, "persist a snapshot every this many acked rows (0 = only on drain)")
	fs.BoolVar(&cfg.StrictWAL, "strict-wal", false, "refuse to start on a torn WAL tail instead of truncating it")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", 0, "graceful-drain budget on SIGTERM/SIGINT; a breach prints a durability summary and exits 4 (default 30s)")
	chaosSpec = fs.String("chaos", "", "chaos spec, e.g. \"serve.wal.fsync=0.01,serve.recompute:delay=0.1\"")
	chaosSeed = fs.Int64("chaos-seed", 1, "chaos decision seed")
	maxHeapMB = fs.Int64("max-heap-mb", 0, "reject ingests while the live heap exceeds this many MiB (0 = off)")
	return
}

func buildChaos(spec string, seed int64) (*chaos.Injector, error) {
	if spec == "" {
		return nil, nil
	}
	rules, err := chaos.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("-chaos: %w", err)
	}
	return chaos.New(seed, rules), nil
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("tendsd serve", flag.ExitOnError)
	var cfg serve.Config
	fs.IntVar(&cfg.N, "n", 0, "node count (required)")
	fs.StringVar(&cfg.Dir, "dir", "", "data directory for wal.log and snapshot.bin (required)")
	addr := fs.String("addr", ":7070", "listen address")
	chaosSpec, chaosSeed, maxHeapMB := serviceFlags(fs, &cfg)
	fs.Parse(args)
	if cfg.N <= 0 || cfg.Dir == "" {
		return errors.New("serve: -n and -dir are required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return err
	}
	inj, err := buildChaos(*chaosSpec, *chaosSeed)
	if err != nil {
		return err
	}
	cfg.Injector = inj
	cfg.ChaosSeed = *chaosSeed
	cfg.MaxHeapBytes = *maxHeapMB << 20
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = serve.DefaultDrainTimeout
	}
	cfg.Recorder = obs.New()
	cfg.Logf = func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "tendsd: "+format+"\n", a...)
	}

	s, replay, err := serve.New(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tendsd: serving %d nodes on %s (restored %d rows; replayed %d rows, truncated %d torn bytes)\n",
		cfg.N, *addr, s.Rows(), replay.Rows, replay.Truncated)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = s.Serve(ctx, *addr)
	if errors.Is(err, serve.ErrDrainDeadline) {
		// The drain ran out of its budget. Print the durability position as
		// one structured stderr line — what was acked (durable), what was
		// still queued (never acked, so dropped safely), and where the WAL
		// stands — so the operator knows exactly what a restart will replay.
		st := s.DrainStatus()
		sum, jerr := json.Marshal(struct {
			Event        string `json:"event"`
			DrainTimeout string `json:"drain_timeout"`
			serve.DrainStatus
		}{"drain_deadline_exceeded", cfg.DrainTimeout.String(), st})
		if jerr == nil {
			fmt.Fprintf(os.Stderr, "tendsd: %s\n", sum)
		}
	}
	return err
}

// ingestBody mirrors the service's ingest request schema.
type ingestBody struct {
	ID   string    `json:"id"`
	Rows [][]int32 `json:"rows"`
}

func runIngest(args []string) error {
	fs := flag.NewFlagSet("tendsd ingest", flag.ExitOnError)
	addr := fs.String("addr", "", "server base URL, e.g. http://127.0.0.1:7070 (required)")
	inPath := fs.String("in", "", "statuses file to stream (required)")
	batchRows := fs.Int("batch", 64, "rows per ingest batch")
	idBase := fs.Uint64("id-base", 1, "first batch id; ids are id-base + batch index, so re-runs dedup")
	retries := fs.Int("retries", 100, "max attempts per batch before giving up")
	waitReady := fs.Duration("wait-ready", 30*time.Second, "wait up to this long for /readyz before ingesting")
	quiesceFor := fs.Duration("quiesce", 30*time.Second, "after ingest, wait up to this long for the topology to cover every acked row (0 = don't wait)")
	fs.Parse(args)
	if *addr == "" || *inPath == "" {
		return errors.New("ingest: -addr and -in are required")
	}
	if *batchRows <= 0 {
		return errors.New("ingest: -batch must be positive")
	}

	f, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	sm, err := diffusion.ReadStatus(f)
	f.Close()
	if err != nil {
		return err
	}
	rows := statusRows(sm)

	client := &http.Client{Timeout: 30 * time.Second}
	if err := waitURL(client, *addr+"/readyz", *waitReady); err != nil {
		return fmt.Errorf("ingest: server not ready: %w", err)
	}

	var sent, duplicate int
	for b := 0; b*(*batchRows) < len(rows); b++ {
		lo := b * (*batchRows)
		hi := min(lo+*batchRows, len(rows))
		id := *idBase + uint64(b)
		dup, err := postBatch(client, *addr, id, rows[lo:hi], *retries)
		if err != nil {
			return fmt.Errorf("ingest: batch %d (rows %d..%d): %w", id, lo, hi, err)
		}
		sent += hi - lo
		if dup {
			duplicate++
		}
	}
	fmt.Fprintf(os.Stderr, "tendsd: ingested %d rows in %d-row batches (%d batches already acked)\n", sent, *batchRows, duplicate)

	if *quiesceFor > 0 {
		if err := waitQuiesce(client, *addr, *quiesceFor); err != nil {
			return fmt.Errorf("ingest: quiesce: %w", err)
		}
	}
	return nil
}

// statusRows converts a status matrix to per-row infected-id lists.
func statusRows(sm *diffusion.StatusMatrix) [][]int32 {
	rows := make([][]int32, sm.Beta())
	for p := range rows {
		rows[p] = []int32{}
		for v := 0; v < sm.N(); v++ {
			if sm.Get(p, v) {
				rows[p] = append(rows[p], int32(v))
			}
		}
	}
	return rows
}

// postBatch sends one batch, retrying on backpressure and transient
// failures. Duplicate acks count as success — that is the idempotency
// contract working.
func postBatch(client *http.Client, addr string, id uint64, rows [][]int32, retries int) (duplicate bool, err error) {
	body, err := json.Marshal(ingestBody{ID: strconv.FormatUint(id, 10), Rows: rows})
	if err != nil {
		return false, err
	}
	backoff := 5 * time.Millisecond
	for attempt := 0; attempt < retries; attempt++ {
		resp, err := client.Post(addr+"/ingest", "application/json", bytes.NewReader(body))
		if err == nil {
			data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				var ack struct {
					Duplicate bool `json:"duplicate"`
				}
				json.Unmarshal(data, &ack)
				return ack.Duplicate, nil
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
					backoff = time.Duration(ra) * time.Second
				}
			default:
				return false, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
			}
		}
		time.Sleep(backoff)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
	return false, fmt.Errorf("gave up after %d attempts", retries)
}

func waitURL(client *http.Client, url string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := client.Get(url)
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			resp.Body.Close()
			if ok {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return err
			}
			return errors.New("deadline exceeded")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// waitQuiesce polls /stats until the topology covers every acked row.
func waitQuiesce(client *http.Client, addr string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := client.Get(addr + "/stats")
		if err == nil {
			var st struct {
				Stale float64 `json:"stale_rows"`
				Queue float64 `json:"queue_rows"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil && st.Stale == 0 && st.Queue == 0 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("deadline exceeded")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// latencies collects request durations for percentile reporting.
type latencies struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	if len(l.ds) < 1<<20 {
		l.ds = append(l.ds, d)
	}
	l.mu.Unlock()
}

func (l *latencies) percentile(q float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ds) == 0 {
		return 0
	}
	sort.Slice(l.ds, func(i, j int) bool { return l.ds[i] < l.ds[j] })
	return l.ds[int(q*float64(len(l.ds)-1))]
}

func (l *latencies) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ds)
}

type fSample struct {
	at    time.Duration
	epoch uint64
	rows  uint64
	f     float64
}

func runLoadtest(args []string) error {
	fs := flag.NewFlagSet("tendsd loadtest", flag.ExitOnError)
	n := fs.Int("n", 256, "LFR network size")
	beta := fs.Int("beta", 512, "observation rows to stream")
	seed := fs.Int64("seed", 1, "workload seed")
	writers := fs.Int("writers", 8, "concurrent ingest writers")
	readers := fs.Int("readers", 4, "concurrent topology/parents readers")
	batchRows := fs.Int("batch", 8, "rows per ingest batch")
	sample := fs.Duration("sample", 200*time.Millisecond, "F-over-time sampling interval")
	dir := fs.String("dir", "", "data directory (default: a temp dir, removed afterwards)")
	var cfg serve.Config
	chaosSpec, chaosSeed, maxHeapMB := serviceFlags(fs, &cfg)
	fs.Parse(args)

	if *dir == "" {
		tmp, err := os.MkdirTemp("", "tendsd-loadtest-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	} else if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}

	// Ground-truth workload: LFR graph + simulated diffusion rows.
	truth, sm, err := experiments.BuildScaleWorkload(context.Background(), experiments.ScaleConfig{
		N: *n, Beta: *beta, Seed: *seed,
	})
	if err != nil {
		return err
	}
	rows := statusRows(sm)

	inj, err := buildChaos(*chaosSpec, *chaosSeed)
	if err != nil {
		return err
	}
	cfg.N = *n
	cfg.Dir = *dir
	cfg.Injector = inj
	cfg.ChaosSeed = *chaosSeed
	cfg.MaxHeapBytes = *maxHeapMB << 20
	cfg.Recorder = obs.New()
	if cfg.Debounce == 0 {
		cfg.Debounce = 20 * time.Millisecond
	}
	if cfg.MaxLag == 0 {
		cfg.MaxLag = 500 * time.Millisecond
	}
	s, _, err := serve.New(cfg)
	if err != nil {
		return err
	}
	s.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 30 * time.Second}

	fmt.Printf("loadtest: n=%d beta=%d writers=%d readers=%d batch=%d chaos=%q dir=%s\n",
		*n, *beta, *writers, *readers, *batchRows, *chaosSpec, *dir)
	start := time.Now()

	// Writers: stripe the batches across workers, retry each until acked.
	type job struct {
		id uint64
		lo int
		hi int
	}
	jobs := make(chan job)
	var ingestLat latencies
	var ackedRows, retriesCount, rejected atomic.Int64
	var writerWG sync.WaitGroup
	var writerErr atomic.Value
	for w := 0; w < *writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for j := range jobs {
				t0 := time.Now()
				attempts := 0
				for {
					attempts++
					dup, err := postOnce(client, base, j.id, rows[j.lo:j.hi])
					if err == nil {
						_ = dup
						ingestLat.add(time.Since(t0))
						ackedRows.Add(int64(j.hi - j.lo))
						break
					}
					rejected.Add(1)
					if attempts > 2000 {
						writerErr.Store(fmt.Errorf("batch %d: %w", j.id, err))
						return
					}
					retriesCount.Add(1)
					time.Sleep(time.Duration(1+attempts%7) * time.Millisecond)
				}
			}
		}()
	}

	// Readers: hammer the query surface until the writers finish.
	readCtx, readCancel := context.WithCancel(context.Background())
	defer readCancel()
	var queryLat latencies
	var readerWG sync.WaitGroup
	for r := 0; r < *readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(int64(r) + 7))
			for readCtx.Err() == nil {
				t0 := time.Now()
				var url string
				if rng.Intn(4) == 0 {
					url = base + "/topology"
				} else {
					url = fmt.Sprintf("%s/parents?node=%d", base, rng.Intn(*n))
				}
				resp, err := client.Get(url)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					queryLat.add(time.Since(t0))
				}
				time.Sleep(time.Millisecond)
			}
		}(r)
	}

	// F-over-time sampler.
	var samples []fSample
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		tick := time.NewTicker(*sample)
		defer tick.Stop()
		for {
			select {
			case <-readCtx.Done():
				return
			case <-tick.C:
			}
			if view, err := fetchTopo(client, base); err == nil {
				g := parentsGraph(*n, view.Parents)
				samples = append(samples, fSample{
					at:    time.Since(start).Round(time.Millisecond),
					epoch: view.Epoch,
					rows:  view.Rows,
					f:     metrics.Score(truth, g).F,
				})
			}
		}
	}()

	for b := 0; b*(*batchRows) < len(rows); b++ {
		lo := b * (*batchRows)
		jobs <- job{id: uint64(b + 1), lo: lo, hi: min(lo+*batchRows, len(rows))}
	}
	close(jobs)
	writerWG.Wait()
	if err, _ := writerErr.Load().(error); err != nil {
		return fmt.Errorf("loadtest: writer failed: %w", err)
	}

	qctx, qcancel := context.WithTimeout(context.Background(), 60*time.Second)
	err = s.Quiesce(qctx)
	qcancel()
	if err != nil {
		return fmt.Errorf("loadtest: quiesce: %w", err)
	}
	readCancel()
	readerWG.Wait()
	<-sampleDone
	elapsed := time.Since(start)

	// Final consistency: the streamed topology must equal a batch run over
	// the server's own acked rows, and no acked row may be missing.
	finalView, err := fetchTopo(client, base)
	if err != nil {
		return err
	}
	resp, err := client.Get(base + "/rows")
	if err != nil {
		return err
	}
	dumped, err := diffusion.ReadStatus(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("loadtest: parse /rows dump: %w", err)
	}
	batchOpt := core.Options{
		MaxComboSize:  cfg.Infer.MaxComboSize,
		Workers:       cfg.Infer.Workers,
		TraditionalMI: cfg.Infer.TraditionalMI,
		Sparse:        true,
	}
	batchRes, err := core.Infer(dumped, batchOpt)
	if err != nil {
		return fmt.Errorf("loadtest: batch reference run: %w", err)
	}
	streamed := parentsGraph(*n, finalView.Parents)
	identical := streamed.Equal(batchRes.Graph)
	lost := ackedRows.Load() - int64(dumped.Beta())

	rec := cfg.Recorder
	fmt.Printf("duration: %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("ingest: %d/%d rows acked in %d batches; %d retries, %d rejected/failed attempts; p50=%v p99=%v\n",
		ackedRows.Load(), len(rows), ingestLat.count(), retriesCount.Load(), rejected.Load(),
		ingestLat.percentile(0.50).Round(time.Microsecond), ingestLat.percentile(0.99).Round(time.Microsecond))
	fmt.Printf("query: %d requests; p50=%v p99=%v\n", queryLat.count(),
		queryLat.percentile(0.50).Round(time.Microsecond), queryLat.percentile(0.99).Round(time.Microsecond))
	fmt.Printf("server: wal appends=%d fsyncs=%d append_errors=%d sync_errors=%d; recompute cycles=%d failed=%d degraded=%d\n",
		rec.Counter("serve/wal/appends").Value(), rec.Counter("serve/wal/fsyncs").Value(),
		rec.Counter("serve/wal/append_errors").Value(), rec.Counter("serve/wal/sync_errors").Value(),
		rec.Counter("serve/recompute/cycles").Value(), rec.Counter("serve/recompute/failed").Value(),
		rec.Counter("serve/recompute/degraded").Value())
	if inj != nil {
		fmt.Printf("chaos: injected %d faults, %d delays\n", inj.TotalFaults(), inj.TotalDelays())
	}
	fmt.Printf("F-over-time (%d samples):\n", len(samples))
	for _, sm := range samples {
		fmt.Printf("  t=%-8v epoch=%-4d rows=%-6d F=%.4f\n", sm.at, sm.epoch, sm.rows, sm.f)
	}
	finalF := metrics.Score(truth, streamed)
	fmt.Printf("final: epoch=%d rows=%d threshold=%.6g F=%.4f precision=%.4f recall=%.4f degraded_nodes=%d\n",
		finalView.Epoch, finalView.Rows, finalView.Threshold, finalF.F, finalF.Precision, finalF.Recall, len(finalView.Degraded))

	verdict := "PASS"
	if lost != 0 {
		verdict = "FAIL"
		fmt.Printf("consistency: LOST %d acked rows (acked=%d server=%d)\n", lost, ackedRows.Load(), dumped.Beta())
	} else {
		fmt.Printf("consistency: zero lost acked rows (acked=%d server=%d)\n", ackedRows.Load(), dumped.Beta())
	}
	if !identical {
		verdict = "FAIL"
		fmt.Println("consistency: streamed topology DIFFERS from the batch run over the same rows")
	} else {
		fmt.Println("consistency: streamed topology identical to the batch run over the same rows")
	}
	fmt.Printf("verdict: %s\n", verdict)

	hs.Close()
	if err := s.Drain(context.Background()); err != nil {
		return err
	}
	if verdict != "PASS" {
		return errors.New("loadtest: consistency check failed")
	}
	return nil
}

// postOnce sends a batch once; any non-200 is an error (the loadtest
// writers do their own retry accounting).
func postOnce(client *http.Client, addr string, id uint64, rows [][]int32) (duplicate bool, err error) {
	body, err := json.Marshal(ingestBody{ID: strconv.FormatUint(id, 10), Rows: rows})
	if err != nil {
		return false, err
	}
	resp, err := client.Post(addr+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var ack struct {
		Duplicate bool `json:"duplicate"`
	}
	json.Unmarshal(data, &ack)
	return ack.Duplicate, nil
}

// topoJSON is the /topology response shape the loadtest consumes.
type topoJSON struct {
	Epoch     uint64  `json:"epoch"`
	Rows      uint64  `json:"rows"`
	Threshold float64 `json:"threshold"`
	Parents   [][]int `json:"parents"`
	Degraded  []struct {
		Node   int    `json:"node"`
		Reason string `json:"reason"`
	} `json:"degraded"`
}

func fetchTopo(client *http.Client, addr string) (*topoJSON, error) {
	resp, err := client.Get(addr + "/topology")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var view topoJSON
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, err
	}
	return &view, nil
}

func parentsGraph(n int, parents [][]int) *graph.Directed {
	return graph.FromParents(n, parents[:min(len(parents), n)])
}
