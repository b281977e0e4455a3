package main

import (
	"runtime"
	"time"

	"tends/internal/obs"
)

// spanParent is the layer tree the self times are computed over: each span
// name maps to the span that encloses it. Spans under bench/ are timed by
// the benchmark around a public call; the others are the spans the library
// already emits.
var spanParent = map[string]string{
	"diffusion/simulate": "bench/e2e",
	"core/infer":         "bench/e2e",
	"core/imi":           "core/infer",
	"core/threshold":     "core/infer",
	"core/search":        "core/infer",
	"bench/probest":      "bench/e2e",
	"bench/ris":          "bench/e2e",
	"bench/mc":           "bench/e2e",
}

// spanTotals returns the total seconds of every span in s.
func spanTotals(s obs.Snapshot) map[string]float64 {
	out := make(map[string]float64, len(s.Timings))
	for name, ts := range s.Timings {
		out[name] = float64(ts.TotalNS) / 1e9
	}
	return out
}

// selfTimes returns each span's total minus the totals of its children.
func selfTimes(totals map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(totals))
	for name, v := range totals {
		out[name] += v
		if p, ok := spanParent[name]; ok {
			if _, has := totals[p]; has {
				out[p] -= v
			}
		}
	}
	return out
}

// medianMaps returns the per-key median over a list of per-iteration maps.
func medianMaps(ms []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range ms {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

// procSample is a point reading of the process's resource counters.
type procSample struct {
	alloc, pause uint64
	gcs          uint32
	cpu          time.Duration
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{alloc: ms.TotalAlloc, pause: ms.PauseTotalNs, gcs: ms.NumGC, cpu: cpuTime()}
}

// procUse is the resource use of one iteration.
type procUse struct {
	allocMiB, gcs, pauseMS, cpuS float64
}

func (a procSample) to(b procSample) procUse {
	return procUse{
		allocMiB: float64(b.alloc-a.alloc) / mib,
		gcs:      float64(b.gcs - a.gcs),
		pauseMS:  float64(b.pause-a.pause) / 1e6,
		cpuS:     (b.cpu - a.cpu).Seconds(),
	}
}

// putProcUse stores the medians of the iterations' resource use.
func putProcUse(m map[string]float64, us []procUse) {
	col := func(f func(procUse) float64) float64 {
		xs := make([]float64, len(us))
		for i, u := range us {
			xs[i] = f(u)
		}
		return median(xs)
	}
	m["runtime.alloc_mb"] = col(func(u procUse) float64 { return u.allocMiB })
	m["runtime.gc_cycles"] = col(func(u procUse) float64 { return u.gcs })
	m["runtime.gc_pause_ms"] = col(func(u procUse) float64 { return u.pauseMS })
	m["proc.cpu_s"] = col(func(u procUse) float64 { return u.cpuS })
}
