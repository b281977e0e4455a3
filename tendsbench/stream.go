package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"tends/internal/core"
	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/obs"
	"tends/internal/serve"
)

// The stream-256 workload: 2048 observation rows of an n=256 LFR network,
// posted as 1024 two-row batches by one open-loop writer at 100 batches/s,
// while one open-loop reader issues 100 queries/s (/parents three times out
// of four, /topology once). The service runs in-process with its default
// configuration and the handler is called directly, without sockets.
const (
	streamN         = 256
	streamRows      = 2048
	streamBatchRows = 2
	streamInterval  = 10 * time.Millisecond // one batch, and one query, per interval

	// The callers are synchronous, so a request goes out late when the
	// previous reply was slow or the caller was not scheduled in time; its
	// latency still counts from its due time. An iteration whose requests
	// went out more than maxLate late at the 99th percentile no longer
	// offered the scheduled load: it is invalid, not slow.
	maxLate = 100 * time.Millisecond
	// maxInvalid is how many invalid iterations in a row end the run.
	maxInvalid = 3
)

// streamInputs is everything set up before the timed path.
type streamInputs struct {
	*instance
	baseSM  *diffusion.StatusMatrix
	sm      *diffusion.StatusMatrix // presented labels
	rows    [][]int32
	bodies  [][]byte // the encoded /ingest request of each batch
	simTime time.Duration
	infects int64
}

func streamSetup(cfg config) (*streamInputs, error) {
	inst, err := newInstance(streamN, cfg.instance, cfg.seed)
	if err != nil {
		return nil, err
	}
	rec := obs.New()
	t0 := time.Now()
	sim, err := inst.simulate(obs.With(context.Background(), rec), streamRows)
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	in := &streamInputs{instance: inst, baseSM: sim.Statuses, sm: inst.present(sim.Statuses), simTime: time.Since(t0),
		infects: rec.Counter("diffusion/infections").Value()}
	in.rows = statusRows(in.sm)
	for b := 0; b*streamBatchRows < len(in.rows); b++ {
		lo := b * streamBatchRows
		body, err := json.Marshal(struct {
			ID   string    `json:"id"`
			Rows [][]int32 `json:"rows"`
		}{strconv.Itoa(b + 1), in.rows[lo:min(lo+streamBatchRows, len(in.rows))]})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// startServer creates and starts a service over a fresh data directory.
func startServer(dir string, rec *obs.Recorder) (*serve.Server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s, _, err := serve.New(serve.Config{N: streamN, Dir: dir, Recorder: rec})
	if err != nil {
		return nil, err
	}
	s.Start()
	return s, nil
}

// streamIter is what one timed iteration measured.
type streamIter struct {
	traced  bool
	e2e     time.Duration
	acks    []time.Duration // per batch, from due time to the 200
	queries []time.Duration // per query, from due time to the response
	lags    []time.Duration // per batch, from its ack to the first covering response
	late    []time.Duration // per request, start minus due time
	rss     float64         // peak resident MiB while the service ran
	use     procUse
	tally
	parents [][]int
	totals  map[string]float64
	counts  map[string]int64
	infers  obs.TimingStats // the service's core/infer span: one per recompute
}

// call invokes the handler in-process.
func call(h http.Handler, method, target string, body []byte) (int, []byte) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, r)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

func failures(failed, of int, notes []string) string {
	msg := fmt.Sprintf("%d of %d failed", failed, of)
	if len(notes) > 0 {
		msg += ": " + strings.Join(notes, "; ")
	}
	return msg
}

// drive runs the open-loop writer and reader against s and waits until the
// topology covers every acked row.
func drive(ctx context.Context, s *serve.Server, in *streamInputs, seed int64, it *streamIter) error {
	h := s.Handler()
	nb := len(in.bodies)
	ackAt := make([]time.Time, nb)
	acked := make([]bool, nb)
	it.acks = make([]time.Duration, 0, nb)

	type response struct {
		at   time.Time
		rows uint64
	}
	var reads []response
	var readLat, readLate []time.Duration
	var readFailed int
	var readNotes []string

	t0 := time.Now().Add(streamInterval)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	var writeFailed int
	var writeNotes []string
	go func() { // the writer
		defer close(writerDone)
		for b, body := range in.bodies {
			due := t0.Add(time.Duration(b) * streamInterval)
			time.Sleep(time.Until(due))
			start := time.Now()
			it.late = append(it.late, start.Sub(due))
			code, resp := call(h, http.MethodPost, "/ingest", body)
			done := time.Now()
			var ack struct {
				Acked     int  `json:"acked"`
				Duplicate bool `json:"duplicate"`
			}
			if code != http.StatusOK || json.Unmarshal(resp, &ack) != nil || ack.Acked != streamBatchRows || ack.Duplicate {
				writeFailed++
				if len(writeNotes) < 3 {
					writeNotes = append(writeNotes, fmt.Sprintf("ingest batch %d: status %d %s", b+1, code, bytes.TrimSpace(resp)))
				}
				continue
			}
			ackAt[b], acked[b] = done, true
			it.acks = append(it.acks, done.Sub(due))
		}
	}()
	go func() { // the reader
		defer readerDone.Done()
		rng := rand.New(rand.NewSource(seed))
		var stopAt time.Time
		for q := 0; ; q++ {
			select {
			case <-stop:
				if stopAt.IsZero() {
					stopAt = time.Now()
				}
			default:
			}
			// After the writer is done and the service quiet, keep reading
			// until a response covers every row, for at most a second.
			if !stopAt.IsZero() && (len(reads) > 0 && reads[len(reads)-1].rows >= uint64(len(in.rows)) || time.Since(stopAt) > time.Second) {
				return
			}
			due := t0.Add(time.Duration(q) * streamInterval)
			time.Sleep(time.Until(due))
			start := time.Now()
			readLate = append(readLate, start.Sub(due))
			target := "/parents?node=" + strconv.Itoa(rng.Intn(streamN))
			if q%4 == 3 {
				target = "/topology"
			}
			code, resp := call(h, http.MethodGet, target, nil)
			done := time.Now()
			var view struct {
				Rows *uint64 `json:"rows"`
			}
			if code != http.StatusOK || json.Unmarshal(resp, &view) != nil || view.Rows == nil {
				readFailed++
				if len(readNotes) < 3 {
					readNotes = append(readNotes, fmt.Sprintf("GET %s: status %d", target, code))
				}
				continue
			}
			readLat = append(readLat, done.Sub(due))
			reads = append(reads, response{at: done, rows: *view.Rows})
		}
	}()

	// Every ack has returned once the writer is done, so Quiesce waits for
	// exactly the recompute that makes the last batch visible.
	<-writerDone
	qctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	qerr := s.Quiesce(qctx)
	cancel()
	it.e2e = time.Since(t0)
	close(stop)
	readerDone.Wait()
	if qerr != nil {
		return fmt.Errorf("quiesce: %w", qerr)
	}

	// Every request is an operation of its own; the two entries summarize.
	it.attempted += nb + len(readLate)
	it.failed += writeFailed + readFailed
	it.checks = append(it.checks,
		check{Name: "ingest_ok", OK: writeFailed == 0, Note: failures(writeFailed, nb, writeNotes)},
		check{Name: "query_ok", OK: readFailed == 0, Note: failures(readFailed, len(readLate), readNotes)})
	it.queries = readLat
	it.late = append(it.late, readLate...)

	// Visible lag: responses arrive in time order with non-decreasing row
	// counts, so one forward scan pairs each batch with its first covering
	// response.
	r, unseen := 0, 0
	for b := 0; b < nb; b++ {
		if !acked[b] {
			continue
		}
		need := uint64((b + 1) * streamBatchRows)
		for r < len(reads) && (reads[r].at.Before(ackAt[b]) || reads[r].rows < need) {
			r++
		}
		if r == len(reads) {
			unseen++
			continue
		}
		it.lags = append(it.lags, reads[r].at.Sub(ackAt[b]))
	}
	it.check("batches_visible", unseen == 0, "%d acked batches never seen by the reader", unseen)
	return nil
}

// streamRun is the state one stream-256 run accumulates.
type streamRun struct {
	cfg    config
	setups []float64
	iters  []*streamIter
	in     *streamInputs
	final  *graph.Directed         // the last iteration's streamed topology
	dumped *diffusion.StatusMatrix // the last iteration's /rows dump
	ref    map[string]float64      // the reference inference's span totals
	refCnt map[string]int64
	refMiB float64 // MiB allocated by the reference inference
	digest []string
}

func (r *streamRun) dir(i int) string {
	return filepath.Join(r.cfg.workdir, fmt.Sprintf("stream-%d-%d", os.Getpid(), i))
}

// setup prepares the inputs and starts a service, timing both.
func (r *streamRun) setup(i int, rec *obs.Recorder) (*serve.Server, error) {
	t0 := time.Now()
	in, err := streamSetup(r.cfg)
	if err != nil {
		return nil, err
	}
	s, err := startServer(r.dir(i), rec)
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	r.in = in
	return s, nil
}

func (r *streamRun) stop(ctx context.Context, s *serve.Server, i int) error {
	if err := s.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return os.RemoveAll(r.dir(i))
}

// once runs one iteration: set up, drive the load, check the outputs.
// It reports valid = false when the generator fell behind its schedule.
func (r *streamRun) once(ctx context.Context, i int, traced bool) (it *streamIter, valid bool, err error) {
	var rec *obs.Recorder
	if traced {
		rec = obs.New()
	}
	s, err := r.setup(i, rec)
	if err != nil {
		return nil, false, err
	}
	abandon := func(err error) (*streamIter, bool, error) {
		s.Kill()
		return nil, false, errors.Join(err, os.RemoveAll(r.dir(i)))
	}
	it = &streamIter{traced: traced}
	if err := startPeakWindow(); err != nil {
		return abandon(err)
	}
	p0 := sampleProc()
	if err := drive(ctx, s, r.in, r.cfg.seed, it); err != nil {
		return abandon(err)
	}
	it.use = p0.to(sampleProc())
	if it.rss, err = peakRSSMiB(); err != nil {
		return abandon(err)
	}
	if traced {
		snap := rec.Snapshot()
		it.totals = spanTotals(snap)
		it.totals["bench/e2e"] = it.e2e.Seconds()
		it.counts = snap.Counters
		it.infers = snap.Timings["core/infer"]
	}
	if err := r.checkOutputs(ctx, s, it); err != nil {
		return abandon(err)
	}
	if err := r.stop(ctx, s, i); err != nil {
		return nil, false, err
	}
	return it, pctOf(sortedCopy(millis(it.late)), 99) <= float64(maxLate)/1e6, nil
}

// checkOutputs asserts what `tendsd loadtest` asserts: no acked row is
// lost, and the streamed topology is byte-identical to a sparse batch
// inference over the service's own /rows dump.
func (r *streamRun) checkOutputs(ctx context.Context, s *serve.Server, it *streamIter) error {
	h := s.Handler()
	code, topo := call(h, http.MethodGet, "/topology?format=text", nil)
	if code != http.StatusOK {
		return fmt.Errorf("GET /topology: status %d", code)
	}
	code, rows := call(h, http.MethodGet, "/rows", nil)
	if code != http.StatusOK {
		return fmt.Errorf("GET /rows: status %d", code)
	}
	dumped, err := diffusion.ReadStatus(bytes.NewReader(rows))
	if err != nil {
		return fmt.Errorf("parse /rows dump: %w", err)
	}
	final, err := graph.Read(bytes.NewReader(topo))
	if err != nil {
		return fmt.Errorf("parse topology: %w", err)
	}
	acked := len(it.acks) * streamBatchRows
	it.check("no_acked_row_lost", dumped.Beta() == acked, "acked %d rows, the service holds %d", acked, dumped.Beta())
	rec := obs.New()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ref, err := core.InferContext(obs.With(ctx, rec), dumped, core.Options{Sparse: true})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("reference inference: %w", err)
	}
	var want bytes.Buffer
	if err := graph.Write(&want, ref.Graph); err != nil {
		return err
	}
	it.check("topology_matches_batch", bytes.Equal(topo, want.Bytes()), "streamed topology vs sparse core.Infer over /rows")
	it.parents = ref.Parents
	r.final, r.dumped = final, dumped
	snap := rec.Snapshot()
	r.ref, r.refCnt = spanTotals(snap), snap.Counters
	r.refMiB = float64(m1.TotalAlloc-m0.TotalAlloc) / mib
	return nil
}

func runStream(ctx context.Context, cfg config) (*outcome, error) {
	r := &streamRun{cfg: cfg}
	out := &outcome{metrics: map[string]float64{}, dists: map[string]dist{}}
	// Extra set-ups up front; every iteration then sets up once more.
	for start := time.Now(); !setupDone(len(r.setups)+1, time.Since(start)); {
		i := -1 - len(r.setups)
		s, err := r.setup(i, nil)
		if err != nil {
			return nil, err
		}
		if err := r.stop(ctx, s, i); err != nil {
			return nil, err
		}
	}
	invalid := 0
	err := timedLoop(cfg.seconds, cfg.trace, func(traced bool) error {
		for {
			it, valid, err := r.once(ctx, len(r.iters)+invalid, traced)
			if err != nil {
				return err
			}
			if valid {
				r.iters = append(r.iters, it)
				r.digest = append(r.digest, parentsDigest(it.parents))
				return nil
			}
			if invalid++; invalid >= maxInvalid {
				return fmt.Errorf("invalid run: the load generator fell behind its schedule %d times", invalid)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = median(r.setups)

	var e2e, traced, rss []float64
	var acks, queries, lags, late []time.Duration
	var use []procUse
	for _, it := range r.iters {
		out.add(it.tally)
		if it.traced {
			traced = append(traced, it.e2e.Seconds())
			continue
		}
		e2e = append(e2e, it.e2e.Seconds())
		rss = append(rss, it.rss)
		acks = append(acks, it.acks...)
		queries = append(queries, it.queries...)
		lags = append(lags, it.lags...)
		late = append(late, it.late...)
		use = append(use, it.use)
	}
	out.digest = r.digest[0]
	out.check("digest_stable", allEqual(r.digest), "digests %v", r.digest)
	if cfg.golden != "" {
		out.check("digest_golden", cfg.golden == out.digest, "got %s, recorded %s", out.digest, cfg.golden)
	}
	out.metrics["e2e_s"] = median(e2e)
	out.dists["e2e_s"] = summarize(e2e)
	out.metrics["peak_rss_mb"] = median(rss)
	out.dists["peak_rss_mb"] = summarize(rss)
	putLatency(out, "ingest_ack", acks)
	putLatency(out, "visible_lag", lags)
	putLatency(out, "query", queries)
	out.dists["load.late_ms"] = summarize(millis(late))
	out.metrics["load.late_p99_ms"] = pctOf(sortedCopy(millis(late)), 99)
	putProcUse(out.metrics, use)
	out.metrics["f1"] = r.in.f1(r.final)

	// The influence leg in base labels scores the streamed topology and
	// times the influence layers.
	legRec := obs.New()
	_, rep, leg, err := influenceLeg(obs.With(ctx, legRec), r.in.baseSM, r.in.base(r.final), 0)
	if err != nil {
		return nil, err
	}
	if out.metrics["spread_ratio"], err = r.in.spreadRatio(ctx, rep); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := r.layers(ctx, out, leg, legRec.Snapshot().Counters); err != nil {
			return nil, err
		}
		out.metrics["trace.overhead"] = median(traced) / median(e2e)
	}
	out.metrics["failed_frac"] = float64(out.failed) / float64(out.attempted)
	return out, nil
}

// putLatency stores a latency's median and 99th percentile in ms.
func putLatency(out *outcome, name string, ds []time.Duration) {
	ms := millis(ds)
	out.dists[name+"_ms"] = summarize(ms)
	out.metrics[name+"_p50_ms"] = median(ms)
	out.metrics[name+"_p99_ms"] = pctOf(sortedCopy(ms), 99)
}

// layers adds the per-layer metrics of a traced stream run. The service's
// spans and counters come from the traced iterations; the pairwise stage
// and the serial search are those of the reference inference over the final
// rows; the fold and the log are replayed over the stream's rows.
func (r *streamRun) layers(ctx context.Context, out *outcome, leg influenceTimes, legCounts map[string]int64) error {
	var totals, selfs []map[string]float64
	var counts map[string]int64
	var cycles, inferMS []float64
	for _, it := range r.iters {
		if !it.traced {
			continue
		}
		totals = append(totals, it.totals)
		selfs = append(selfs, selfTimes(it.totals))
		counts = it.counts
		cycles = append(cycles, float64(it.counts["serve/recompute/cycles"]))
		inferMS = append(inferMS, float64(it.infers.TotalNS)/1e6/float64(max(it.infers.Count, 1)))
	}
	tot := medianMaps(totals)
	out.self = medianMaps(selfs)
	m := out.metrics
	m["diffusion.simulate_s"] = r.in.simTime.Seconds()
	m["diffusion.infections"] = float64(r.in.infects)
	m["diffusion.status_mb"] = statusMiB(r.in.sm)
	m["core.imi_s"] = r.ref["core/imi"]
	m["core.threshold_s"] = tot["core/threshold"]
	m["core.search_s"] = tot["core/search"]
	m["core.infer.self_s"] = out.self["core/infer"]
	m["e2e.self_s"] = out.self["bench/e2e"]
	m["core.infer.alloc_mb"] = r.refMiB
	putCoreCounts(m, r.refCnt)
	m["core.search.combos"] = float64(counts["core/search/combos"])
	m["core.search.merges"] = float64(counts["core/search/merges"])
	m["core.search.merge_ratio"] = ratio(counts["core/search/merges"], counts["core/search/combos"])
	putInfluence(m, map[string]float64{
		"bench/probest": leg.probest.Seconds(), "bench/ris": leg.ris.Seconds(), "bench/mc": leg.mc.Seconds(),
	}, legCounts)
	m["serve.wal.group_size"] = ratio(counts["serve/wal/appends"], counts["serve/wal/fsyncs"])
	m["serve.recompute.cycles"] = median(cycles)
	m["serve.recompute_ms_mean"] = median(inferMS)
	m["serve.ingest.rejected"] = float64(counts["serve/ingest/rejected"])

	// The same search on one worker, which must give the same topology.
	rec := obs.New()
	serial, err := core.InferContext(obs.With(ctx, rec), r.dumped, core.Options{Sparse: true, Workers: 1})
	if err != nil {
		return fmt.Errorf("serial reference inference: %w", err)
	}
	out.check("digest_workers_1", parentsDigest(serial.Parents) == out.digest, "serial digest %s", parentsDigest(serial.Parents))
	m["core.search.serial_s"] = spanTotals(rec.Snapshot())["core/search"]
	m["core.search.parallel_eff"] = m["core.search.serial_s"] / (r.ref["core/search"] * float64(runtime.GOMAXPROCS(0)))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err = core.ComputeSparseIMIContext(ctx, r.dumped, false, 0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("pairwise stage: %w", err)
	}
	m["core.imi.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / mib

	fold, source, err := replayFold(streamN, r.in.rows)
	if err != nil {
		return err
	}
	m["core.fold_s"], m["core.source_s"] = fold.Seconds(), source.Seconds()
	syncs, err := replayWAL(ctx, r.cfg.workdir, streamN, r.in.rows, streamBatchRows)
	if err != nil {
		return fmt.Errorf("WAL replay: %w", err)
	}
	putWALSyncs(out, syncs)
	return nil
}
