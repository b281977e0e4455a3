package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// TimingStats is the serialized form of one Histogram: counts and
// nanosecond aggregates, plus quantiles approximated from the power-of-two
// buckets (each reported quantile is the upper bound of the bucket that
// contains it, so it overestimates by at most 2×).
type TimingStats struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MinNS   int64 `json:"min_ns"`
	MaxNS   int64 `json:"max_ns"`
	MeanNS  int64 `json:"mean_ns"`
	P50NS   int64 `json:"p50_ns"`
	P90NS   int64 `json:"p90_ns"`
	P99NS   int64 `json:"p99_ns"`
}

// Snapshot is a point-in-time copy of every metric in a Recorder. Metric
// updates racing a snapshot land in either this one or the next; no update
// is lost. encoding/json sorts map keys, so serialization is stable for a
// fixed set of values.
type Snapshot struct {
	UptimeNS int64                  `json:"uptime_ns"`
	Counters map[string]int64       `json:"counters,omitempty"`
	Gauges   map[string]float64     `json:"gauges,omitempty"`
	Timings  map[string]TimingStats `json:"timings,omitempty"`
}

// Snapshot copies the current value of every metric. A nil Recorder yields
// an empty snapshot.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s.UptimeNS = int64(time.Since(r.createdAt))
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histos) > 0 {
		s.Timings = make(map[string]TimingStats, len(r.histos))
		for name, h := range r.histos {
			s.Timings[name] = h.stats()
		}
	}
	return s
}

// stats summarizes a histogram. Counts are loaded bucket-first so that the
// total never exceeds the per-bucket sum seen by the quantile walk.
func (h *Histogram) stats() TimingStats {
	var ts TimingStats
	var counts [histBuckets]int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	for _, c := range counts {
		ts.Count += c
	}
	if ts.Count == 0 {
		return ts
	}
	ts.TotalNS = h.sum.Load()
	ts.MinNS = h.min.Load()
	ts.MaxNS = h.max.Load()
	ts.MeanNS = ts.TotalNS / ts.Count
	ts.P50NS = bucketQuantile(&counts, ts.Count, 0.50)
	ts.P90NS = bucketQuantile(&counts, ts.Count, 0.90)
	ts.P99NS = bucketQuantile(&counts, ts.Count, 0.99)
	return ts
}

// bucketQuantile returns the upper bound of the bucket holding the q-th
// quantile of the counted observations.
func bucketQuantile(counts *[histBuckets]int64, total int64, q float64) int64 {
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for k, c := range counts {
		seen += c
		if seen >= rank {
			if k == 0 {
				return 0
			}
			if k >= 63 {
				return math.MaxInt64
			}
			return int64(1) << k
		}
	}
	return counts[histBuckets-1]
}

// ReadSnapshot parses a snapshot previously serialized with WriteJSON.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: parse snapshot: %w", err)
	}
	return s, nil
}

// WriteJSON serializes a snapshot of r as indented JSON.
func (r *Recorder) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteText renders a snapshot of r as a human-readable table: counters,
// gauges, then timings, each section sorted by name.
func (r *Recorder) WriteText(w io.Writer) error {
	s := r.Snapshot()
	if len(s.Counters) > 0 {
		if _, err := fmt.Fprintln(w, "counters:"); err != nil {
			return err
		}
		for _, name := range sortedKeys(s.Counters) {
			if _, err := fmt.Fprintf(w, "  %-40s %12d\n", name, s.Counters[name]); err != nil {
				return err
			}
		}
	}
	if len(s.Gauges) > 0 {
		if _, err := fmt.Fprintln(w, "gauges:"); err != nil {
			return err
		}
		for _, name := range sortedKeys(s.Gauges) {
			if _, err := fmt.Fprintf(w, "  %-40s %12.3f\n", name, s.Gauges[name]); err != nil {
				return err
			}
		}
	}
	if len(s.Timings) > 0 {
		if _, err := fmt.Fprintf(w, "timings:%34s %12s %12s %12s %12s %12s\n", "count", "total", "mean", "p50", "p90", "max"); err != nil {
			return err
		}
		for _, name := range sortedKeys(s.Timings) {
			ts := s.Timings[name]
			if _, err := fmt.Fprintf(w, "  %-40s %12d %12s %12s %12s %12s %12s\n",
				name, ts.Count,
				fmtNS(ts.TotalNS), fmtNS(ts.MeanNS), fmtNS(ts.P50NS), fmtNS(ts.P90NS), fmtNS(ts.MaxNS)); err != nil {
				return err
			}
		}
	}
	return nil
}

// fmtNS renders nanoseconds at a readable precision.
func fmtNS(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d >= time.Microsecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
