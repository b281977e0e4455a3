package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// runCompare prints, for result sets from two commits, one row per
// (workload, metric) of the untraced runs with each side's median and
// quartiles, then the per-layer metrics and self times of the traced runs.
// Each side is a file, or a directory of files, holding the standard output
// of any number of runs; only their record lines are read.
func runCompare(w io.Writer, args []string, led ledger) error {
	if len(args) != 2 {
		return errors.New("usage: tendsbench compare <old results> <new results>")
	}
	var sides [2][]record
	for i, a := range args {
		recs, err := readRecords(a)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return fmt.Errorf("%s: no benchmark records", a)
		}
		sides[i] = recs
	}
	var sp struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("read BENCHMARK.json (run from the root of the checkout): %w", err)
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "END-TO-END (untraced runs)\t\told median [q1, q3] (n)\tnew median [q1, q3] (n)\tchange\tbound\tverdict")
	for _, wl := range workloadNames(sides) {
		for _, m := range sp.EndToEnd {
			old, neu := values(sides[0], wl, false, m.Name), values(sides[1], wl, false, m.Name)
			if len(old) == 0 && len(neu) == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.0f%%\t%s\n", wl, m.Name, quart(old), quart(neu),
				change(old, neu), 100*m.Bound, verdict(old, neu, m.Better, m.Bound))
		}
	}
	fmt.Fprintln(tw, "\nPER-LAYER (traced runs)\t\told median (n)\tnew median (n)\tchange\tshould move")
	for _, wl := range workloadNames(sides) {
		for _, m := range sp.PerLayer {
			old, neu := values(sides[0], wl, true, m.Name), values(sides[1], wl, true, m.Name)
			if len(old) == 0 && len(neu) == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", wl, m.Name, med(old), med(neu), change(old, neu),
				strings.Join(led.PerLayerMap[m.Name], ", "))
		}
	}
	fmt.Fprintln(tw, "\nSELF TIME PER SPAN (traced runs, s)\t\told median (n)\tnew median (n)\tchange\t")
	for _, wl := range workloadNames(sides) {
		for _, span := range spanNames(sides, wl) {
			old, neu := selfValues(sides[0], wl, span), selfValues(sides[1], wl, span)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t\n", wl, span, med(old), med(neu), change(old, neu))
		}
	}
	return tw.Flush()
}

// readRecords reads the record lines of a file or of every file in a
// directory.
func readRecords(path string) ([]record, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	var out []record
	for _, f := range files {
		recs, err := readRecordFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

func readRecordFile(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"record":`) {
			continue
		}
		var wrap struct {
			Record record `json:"record"`
		}
		if err := json.Unmarshal(line, &wrap); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, wrap.Record)
	}
	return out, sc.Err()
}

func workloadNames(sides [2][]record) []string {
	seen := map[string]bool{}
	var names []string
	for _, recs := range sides {
		for _, r := range recs {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				names = append(names, r.Workload)
			}
		}
	}
	sort.Strings(names)
	return names
}

func spanNames(sides [2][]record, wl string) []string {
	seen := map[string]bool{}
	var names []string
	for _, recs := range sides {
		for _, r := range recs {
			if r.Workload != wl || !r.Trace {
				continue
			}
			for s := range r.SelfS {
				if !seen[s] {
					seen[s] = true
					names = append(names, s)
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

func values(recs []record, wl string, traced bool, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == wl && r.Trace == traced {
			out = append(out, v)
		}
	}
	return out
}

func selfValues(recs []record, wl, span string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.SelfS[span]; ok && r.Workload == wl && r.Trace {
			out = append(out, v)
		}
	}
	return out
}

func quart(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), q1, q3, len(xs))
}

func med(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g (%d)", median(xs), len(xs))
}

func change(old, neu []float64) string {
	if len(old) == 0 || len(neu) == 0 || median(old) == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(median(neu)/median(old)-1))
}

// verdict compares the medians against the metric's bound. A side whose
// own quartile spread exceeds the bound cannot resolve a change that size.
func verdict(old, neu []float64, better string, bound float64) string {
	if len(old) == 0 || len(neu) == 0 || median(old) == 0 {
		return "-"
	}
	for _, xs := range [][]float64{old, neu} {
		if q1, q3 := quartiles(xs); (q3-q1)/median(xs) > bound {
			return "unresolved"
		}
	}
	worse := median(neu)/median(old) - 1
	if better == "higher" {
		worse = -worse
	}
	if worse > bound {
		return "WORSE"
	}
	return "ok"
}
