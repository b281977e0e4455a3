// Command obstat prints diagnostic statistics of observation files — the
// pre-flight check before running inference: are there enough processes,
// is the prevalence in an informative range, and does the pairwise
// infection-MI distribution carry signal above the pruning threshold?
//
// Usage:
//
//	obstat -status statuses.txt
//	obstat -graph network.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"tends/internal/core"
	"tends/internal/diffusion"
	"tends/internal/graph"
)

func main() {
	var (
		statusPath = flag.String("status", "", "status file to profile")
		graphPath  = flag.String("graph", "", "graph file to profile")
	)
	flag.Parse()
	if *statusPath == "" && *graphPath == "" {
		fmt.Fprintln(os.Stderr, "obstat: one of -status or -graph is required")
		flag.Usage()
		os.Exit(2)
	}
	if *statusPath != "" {
		if err := profileStatus(os.Stdout, *statusPath); err != nil {
			fmt.Fprintf(os.Stderr, "obstat: %v\n", err)
			os.Exit(1)
		}
	}
	if *graphPath != "" {
		if err := profileGraph(os.Stdout, *graphPath); err != nil {
			fmt.Fprintf(os.Stderr, "obstat: %v\n", err)
			os.Exit(1)
		}
	}
}

func profileStatus(w *os.File, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := diffusion.ReadStatus(f)
	if err != nil {
		return err
	}
	beta, n := m.Beta(), m.N()
	fmt.Fprintf(w, "observations: %d processes x %d nodes\n", beta, n)
	if beta == 0 || n == 0 {
		return nil
	}
	// Prevalence per process.
	var prevalences []float64
	for p := 0; p < beta; p++ {
		count := 0
		for v := 0; v < n; v++ {
			if m.Get(p, v) {
				count++
			}
		}
		prevalences = append(prevalences, float64(count)/float64(n))
	}
	sort.Float64s(prevalences)
	q := func(p float64) float64 { return prevalences[int(p*float64(len(prevalences)-1))] }
	fmt.Fprintf(w, "prevalence per process: min=%.2f median=%.2f max=%.2f\n", prevalences[0], q(0.5), prevalences[len(prevalences)-1])
	if q(0.5) > 0.7 {
		fmt.Fprintln(w, "warning: median prevalence above 0.7 — near-saturated diffusions carry little edge signal")
	}
	if q(0.5) < 0.02 {
		fmt.Fprintln(w, "warning: median prevalence below 0.02 — most processes barely spread")
	}
	// Degenerate columns.
	constant := 0
	for v := 0; v < n; v++ {
		c := m.CountInfected(v)
		if c == 0 || c == beta {
			constant++
		}
	}
	fmt.Fprintf(w, "constant-status nodes: %d / %d\n", constant, n)

	// IMI distribution and thresholds, read from the pairwise engine's rows
	// and value pool: no O(n²) triangle is built.
	imi, err := core.ComputeIMIContext(context.Background(), m, false, 0)
	if err != nil {
		return err
	}
	kmeans := core.SelectThreshold(imi)
	fdr := core.SelectThresholdFDR(imi, beta, 0.2)
	tau := kmeans
	if fdr > tau {
		tau = fdr
	}
	// Pairs at or above τ are counted: τ can be a pair's own value.
	positive, above := countPairs(imi, 0), countPairs(imi, math.Nextafter(tau, math.Inf(-1)))
	fmt.Fprintf(w, "pairwise IMI: %d positive of %d pairs", positive, imi.TotalPairs())
	if positive > 0 {
		fmt.Fprintf(w, ", max=%.4f", maxValue(imi))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "thresholds: kmeans=%.4f fdr=%.4f auto=%.4f\n", kmeans, fdr, tau)
	fmt.Fprintf(w, "candidate pairs above auto threshold: %d (%.1f per node)\n", above, 2*float64(above)/float64(n))
	return nil
}

// countPairs returns the number of unordered pairs whose value exceeds tau.
func countPairs(imi *core.SparseIMI, tau float64) int {
	count := 0
	for i := 0; i < imi.N(); i++ {
		for _, j := range imi.Candidates(i, tau) {
			if j > i {
				count++
			}
		}
	}
	return count
}

// maxValue returns the largest positive pairwise value; there must be one.
func maxValue(imi *core.SparseIMI) float64 {
	best := 0.0
	for i := 0; i < imi.N(); i++ {
		for _, j := range imi.Candidates(i, 0) {
			best = max(best, imi.At(i, j))
		}
	}
	return best
}

func profileGraph(w *os.File, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := graph.Read(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "graph: %d nodes, %d directed edges (avg degree %.2f)\n",
		g.NumNodes(), g.NumEdges(), g.AverageDegree())
	out := g.OutDegreeStats()
	in := g.InDegreeStats()
	fmt.Fprintf(w, "out-degree: min=%d max=%d mean=%.2f sd=%.2f\n", out.Min, out.Max, out.Mean, out.StdDev)
	fmt.Fprintf(w, "in-degree:  min=%d max=%d mean=%.2f sd=%.2f\n", in.Min, in.Max, in.Mean, in.StdDev)
	fmt.Fprintf(w, "reciprocity: %.3f  clustering: %.3f\n", g.Reciprocity(), g.ClusteringCoefficient())
	comps := g.WeaklyConnectedComponents()
	fmt.Fprintf(w, "weak components: %d (largest %d nodes)\n", len(comps), len(comps[0]))
	return nil
}
