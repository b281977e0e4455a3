package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"time"

	"tends/internal/core"
	"tends/internal/diffusion"
	"tends/internal/obs"
)

// batchWorkload is a `diffsim | tends` style workload: the timed path
// simulates the observations and infers the topology from them, and with
// influence set continues like `reconstruct -k 10`.
type batchWorkload struct {
	n, beta   int
	sparse    bool
	influence bool
}

var (
	paper1k   = batchWorkload{n: 1000, beta: 1024, influence: true}
	scale100k = batchWorkload{n: 100000, beta: 1024, sparse: true}
)

// batchIter is what one timed iteration measured.
type batchIter struct {
	e2e    time.Duration
	inf    influenceTimes
	use    procUse
	traced bool
	totals map[string]float64 // traced: span totals in seconds
	counts map[string]int64   // traced: library counters
	alloc  float64            // traced: MiB allocated by core.InferContext
	rss    float64            // peak resident MiB of the timed path
}

func runBatch(ctx context.Context, cfg config, w batchWorkload) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, dists: map[string]dist{}}
	in, setupS, err := setupInstance(w.n, cfg)
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setupS

	opt := core.Options{Sparse: w.sparse}
	var (
		iters   []batchIter
		digests []string
		res     *core.Result
		sm      *diffusion.StatusMatrix // presented labels
		baseSM  *diffusion.StatusMatrix
		seeds   []int
	)
	err = timedLoop(cfg.seconds, cfg.trace, func(traced bool) error {
		it := batchIter{traced: traced}
		ictx := ctx
		var rec *obs.Recorder
		if traced {
			rec = obs.New()
			ictx = obs.With(ctx, rec)
		}
		if err := startPeakWindow(); err != nil {
			return err
		}
		p0 := sampleProc()
		t0 := time.Now()
		sim, err := in.simulate(ictx, w.beta)
		if err != nil {
			return fmt.Errorf("simulate: %w", err)
		}
		// Relabeling is the benchmark's work, so the clock skips it.
		t1 := time.Now()
		obsm := in.present(sim.Statuses)
		t0 = t0.Add(time.Since(t1))
		var m0 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&m0)
		}
		r, err := core.InferContext(ictx, obsm, opt)
		if err != nil {
			return fmt.Errorf("infer: %w", err)
		}
		if traced {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			it.alloc = float64(m1.TotalAlloc-m0.TotalAlloc) / mib
		}
		if w.influence {
			if seeds, _, it.inf, err = influenceLeg(ictx, obsm, r.Graph, 0); err != nil {
				return err
			}
		}
		it.e2e = time.Since(t0)
		it.use = p0.to(sampleProc())
		if it.rss, err = peakRSSMiB(); err != nil {
			return err
		}
		if traced {
			snap := rec.Snapshot()
			it.totals = spanTotals(snap)
			it.totals["bench/e2e"] = it.e2e.Seconds()
			if w.influence {
				it.totals["bench/probest"] = it.inf.probest.Seconds()
				it.totals["bench/ris"] = it.inf.ris.Seconds()
				it.totals["bench/mc"] = it.inf.mc.Seconds()
			}
			it.counts = snap.Counters
		}
		iters = append(iters, it)
		out.attempted++
		digests = append(digests, parentsDigest(r.Parents))
		res, sm, baseSM = r, obsm, sim.Statuses
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Output checks: the same inputs give the same topology on every
	// iteration, and the recorded seeds give the recorded topology.
	out.digest = digests[0]
	out.check("digest_stable", allEqual(digests), "digests %v", digests)
	if cfg.golden != "" {
		out.check("digest_golden", cfg.golden == out.digest, "got %s, recorded %s", out.digest, cfg.golden)
	}
	out.metrics["f1"] = in.f1(res.Graph)

	// On paper-1k the timed path chose seeds; they must not depend on the
	// worker count.
	if w.influence {
		for _, workers := range []int{1, 2} {
			s, _, _, err := influenceLeg(ctx, sm, res.Graph, workers)
			if err != nil {
				return nil, err
			}
			out.check("ris_seeds_workers_"+strconv.Itoa(workers), slices.Equal(s, seeds), "seeds %v, timed path chose %v", s, seeds)
		}
	}
	// The influence leg again, in base labels, to score the reconstruction
	// (and, on scale-100k, to time the influence layers).
	legRec := obs.New()
	_, rep, leg, err := influenceLeg(obs.With(ctx, legRec), baseSM, in.base(res.Graph), 0)
	if err != nil {
		return nil, err
	}
	if out.metrics["spread_ratio"], err = in.spreadRatio(ctx, rep); err != nil {
		return nil, err
	}

	var untraced, traced, rss []float64
	var use []procUse
	for _, it := range iters {
		if it.traced {
			traced = append(traced, it.e2e.Seconds())
			continue
		}
		untraced = append(untraced, it.e2e.Seconds())
		rss = append(rss, it.rss)
		use = append(use, it.use)
	}
	out.metrics["peak_rss_mb"] = median(rss)
	out.dists["peak_rss_mb"] = summarize(rss)
	out.metrics["e2e_s"] = median(untraced)
	out.dists["e2e_s"] = summarize(untraced)
	putProcUse(out.metrics, use)

	if cfg.trace {
		if err := batchLayers(ctx, cfg, w, out, iters, sm, leg, legRec.Snapshot().Counters); err != nil {
			return nil, err
		}
		out.metrics["trace.overhead"] = median(traced) / median(untraced)
	}
	out.metrics["failed_frac"] = float64(out.failed) / float64(out.attempted)
	return out, nil
}

// batchLayers adds the per-layer metrics of a traced batch run: medians
// over the traced iterations, plus the layers measured once per run around
// their public calls (the serial search, the pairwise stage's allocation,
// the incremental fold, and the write-ahead log).
func batchLayers(ctx context.Context, cfg config, w batchWorkload, out *outcome, iters []batchIter, sm *diffusion.StatusMatrix, leg influenceTimes, legCounts map[string]int64) error {
	var totals []map[string]float64
	var allocs []float64
	var counts map[string]int64
	for _, it := range iters {
		if it.traced {
			totals = append(totals, it.totals)
			allocs = append(allocs, it.alloc)
			counts = it.counts // counters repeat exactly for the same inputs
		}
	}
	selfs := make([]map[string]float64, len(totals))
	for i, t := range totals {
		selfs[i] = selfTimes(t)
	}
	tot := medianMaps(totals)
	out.self = medianMaps(selfs)
	if !w.influence {
		// The influence layers ran once, outside the timed path.
		tot["bench/probest"], tot["bench/ris"], tot["bench/mc"] = leg.probest.Seconds(), leg.ris.Seconds(), leg.mc.Seconds()
		for k, v := range legCounts {
			counts[k] = v
		}
	}
	m := out.metrics
	m["diffusion.simulate_s"] = tot["diffusion/simulate"]
	m["diffusion.infections"] = float64(counts["diffusion/infections"])
	m["diffusion.status_mb"] = statusMiB(sm)
	m["core.imi_s"] = tot["core/imi"]
	m["core.threshold_s"] = tot["core/threshold"]
	m["core.search_s"] = tot["core/search"]
	m["core.infer.self_s"] = out.self["core/infer"]
	m["e2e.self_s"] = out.self["bench/e2e"]
	m["core.infer.alloc_mb"] = median(allocs)
	putCoreCounts(m, counts)
	putInfluence(m, tot, counts)

	// The same search on one worker, which must give the same topology.
	rec := obs.New()
	opt := core.Options{Sparse: w.sparse, Workers: 1}
	serial, err := core.InferContext(obs.With(ctx, rec), sm, opt)
	if err != nil {
		return fmt.Errorf("serial infer: %w", err)
	}
	out.check("digest_workers_1", parentsDigest(serial.Parents) == out.digest, "serial digest %s", parentsDigest(serial.Parents))
	m["core.search.serial_s"] = spanTotals(rec.Snapshot())["core/search"]
	m["core.search.parallel_eff"] = m["core.search.serial_s"] / (m["core.search_s"] * float64(runtime.GOMAXPROCS(0)))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if w.sparse {
		_, err = core.ComputeSparseIMIContext(ctx, sm, false, 0)
	} else {
		_, err = core.ComputeIMIContext(ctx, sm, false, 0)
	}
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("pairwise stage: %w", err)
	}
	m["core.imi.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / mib

	rows := statusRows(sm)
	fold, source, err := replayFold(w.n, rows)
	if err != nil {
		return err
	}
	m["core.fold_s"], m["core.source_s"] = fold.Seconds(), source.Seconds()
	syncs, err := replayWAL(ctx, cfg.workdir, w.n, rows, 1)
	if err != nil {
		return fmt.Errorf("WAL replay: %w", err)
	}
	putWALSyncs(out, syncs)
	m["serve.wal.group_size"] = 1 // the replay syncs every append

	// Serving layers that a batch workload does not exercise.
	for _, k := range []string{
		"serve.recompute.cycles", "serve.recompute_ms_mean", "serve.ingest.rejected",
		"ingest_ack_p50_ms", "ingest_ack_p99_ms", "visible_lag_p50_ms", "visible_lag_p99_ms",
		"query_p50_ms", "query_p99_ms", "load.late_p99_ms",
	} {
		m[k] = 0
	}
	return nil
}

func statusMiB(sm *diffusion.StatusMatrix) float64 {
	return float64(sm.Beta()) * float64((sm.N()+63)/64) * 8 / mib
}

// putCoreCounts stores the pairwise and search counters. The dense engine
// counts pairs under core/imi, the sparse one under core/sparse.
func putCoreCounts(m map[string]float64, c map[string]int64) {
	m["core.imi.pairs"] = float64(c["core/imi/pairs"] + c["core/sparse/pairs"])
	m["core.imi.pairs_skipped"] = float64(c["core/sparse/pairs_skipped"])
	m["core.kernel.tiles"] = float64(c["core/kernel/tiles"])
	m["core.search.combos"] = float64(c["core/search/combos"])
	m["core.search.merges"] = float64(c["core/search/merges"])
	m["core.search.merge_ratio"] = ratio(c["core/search/merges"], c["core/search/combos"])
}

// putInfluence stores the probest and influence layers.
func putInfluence(m map[string]float64, tot map[string]float64, c map[string]int64) {
	m["probest_s"] = tot["bench/probest"]
	m["probest.em_iters"] = float64(c["probest/em_iters"])
	m["influence.ris_s"] = tot["bench/ris"]
	m["influence.sketches"] = float64(c["influence/sketches"])
	m["influence.ris_rounds"] = float64(c["influence/ris_rounds"])
	m["influence.lazy_skip_ratio"] = ratio(c["influence/lazy_skipped"], c["influence/coverage_evals"]+c["influence/lazy_skipped"])
	m["influence.mc_s"] = tot["bench/mc"]
	m["influence.mc_samples"] = float64(c["influence/mc_samples"])
}

func putWALSyncs(out *outcome, syncs []time.Duration) {
	d := summarize(millis(syncs))
	out.dists["serve.wal.sync_ms"] = d
	out.metrics["serve.wal.sync_p50_ms"] = d.Median
	out.metrics["serve.wal.sync_p99_ms"] = pctOf(sortedCopy(millis(syncs)), 99)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func allEqual(xs []string) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
