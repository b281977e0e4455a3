package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// dist summarizes a sample of one timing: the median and the highest
// percentile of the ladder that has at least ten samples beyond it.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Pct    float64 `json:"pct,omitempty"`       // 0 when fewer than 20 samples
	PctVal float64 `json:"pct_value,omitempty"` // the value at Pct
	// Samples lists every value when there are few (the timed iterations).
	Samples []float64 `json:"samples,omitempty"`
}

var pctLadder = []float64{99.9, 99, 95, 90, 75, 50}

func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d.Median = median(s)
	if len(xs) < 20 {
		d.Samples = xs
	}
	for _, p := range pctLadder {
		if float64(len(s))*(1-p/100) >= 10 {
			d.Pct, d.PctVal = p, pctOf(s, p)
			break
		}
	}
	return d
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// pctOf returns the nearest-rank p-th percentile of sorted s.
func pctOf(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median of xs (any order).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		lo, hi := max(j-1, 0), min(j, len(s)-1)
		return (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

const mib = 1 << 20

// parentsDigest hashes a topology given as per-node parent lists.
func parentsDigest(parents [][]int) string {
	h := sha256.New()
	for v, ps := range parents {
		fmt.Fprintf(h, "%d:", v)
		for _, p := range ps {
			fmt.Fprintf(h, " %d", p)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// startPeakWindow returns memory freed by earlier work to the OS and
// restarts the kernel's peak-RSS count, so that the next peakRSSMiB covers
// only what follows, as if in a fresh process.
func startPeakWindow() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o644)
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
