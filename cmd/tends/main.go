// Command tends infers a diffusion network topology from a file of final
// infection statuses, writing the inferred edge list to stdout or a file.
//
// Usage:
//
//	tends -in statuses.txt [-out graph.txt] [-combo 2] [-scale 1.0]
//	      [-threshold t] [-mi] [-sparse] [-workers n] [-verbose]
//
// -sparse switches the pairwise stage to the sparse candidate engine: only
// node pairs that co-occur in at least one cascade are enumerated, which is
// sub-quadratic on sparse diffusion data. The inferred topology is
// bit-identical to the dense engine's. With -verbose it also reports how
// many pairs co-occur and how many of them the engine kept above the
// pruning threshold.
//
// -verbose prints the observation size, τ, the search's work (combinations
// enumerated, merges accepted, probes scored and probes answered from the
// greedy round's memo) and the inferred edge count and score.
//
// -workers bounds the goroutines used by the IMI stage and the per-node
// parent-set searches (0 = all CPUs, 1 = serial); the inferred topology is
// identical for any worker count.
//
// The input format is the one produced by `diffsim` (and
// diffusion.StatusMatrix.WriteStatus):
//
//	statuses <beta> <n>
//	0110...   (one '0'/'1' row of length n per diffusion process)
//
// The output is the graph text format: a "nodes <n>" header followed by one
// "<from> <to>" line per inferred directed edge.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"os/signal"
	"syscall"

	"tends/internal/core"
	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/obs"
	"tends/internal/probest"
)

func main() {
	var (
		inPath    = flag.String("in", "", "input status file (required)")
		outPath   = flag.String("out", "", "output graph file (default stdout)")
		combo     = flag.Int("combo", 0, "max parent-combination size (default 2)")
		scale     = flag.Float64("scale", 0, "threshold scale relative to auto tau (default 1)")
		threshold = flag.Float64("threshold", -1, "absolute IMI threshold; overrides -scale when >= 0 (NaN is an error)")
		useMI     = flag.Bool("mi", false, "use traditional MI instead of infection MI")
		sparse    = flag.Bool("sparse", false, "use the sparse candidate engine (identical output, sub-quadratic pairwise stage)")
		probsPath = flag.String("probs", "", "also estimate per-edge propagation probabilities into this file")
		workers   = flag.Int("workers", 0, "parallel search workers (0 = all CPUs)")
		verbose   = flag.Bool("verbose", false, "print threshold and score diagnostics to stderr")
		obsJSON   = flag.String("obs-json", "", "write an observability snapshot (stage timings, counters) as JSON to this file")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060")
	)
	flag.Parse()
	if *inPath == "" {
		fmt.Fprintln(os.Stderr, "tends: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if *combo < 0 || *workers < 0 || *scale < 0 {
		fmt.Fprintln(os.Stderr, "tends: -combo, -workers and -scale must be >= 0")
		flag.Usage()
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancels the inference cooperatively: the IMI and
	// parent-search loops notice the context, the partially written output
	// is abandoned, and the process exits with the conventional 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tends: pprof listen: %v\n", err)
			os.Exit(1)
		}
		go func() { _ = http.Serve(ln, nil) }()
		fmt.Fprintf(os.Stderr, "tends: pprof on http://%s/debug/pprof/\n", ln.Addr())
	}
	// The recorder is a side channel: the inferred topology is identical
	// with and without it, and the snapshot is written even after a
	// cancelled run (a partial stage profile is still diagnostic).
	var rec *obs.Recorder
	if *obsJSON != "" {
		rec = obs.New()
		ctx = obs.With(ctx, rec)
	}
	err := run(ctx, *inPath, *outPath, *combo, *scale, *threshold, *useMI, *sparse, *verbose, *workers)
	if *obsJSON != "" {
		if oerr := writeObsJSON(*obsJSON, rec); oerr != nil {
			fmt.Fprintf(os.Stderr, "tends: %v\n", oerr)
			if err == nil {
				err = oerr
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tends: %v\n", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
	if *probsPath != "" {
		if err := estimateProbs(*inPath, *outPath, *probsPath); err != nil {
			fmt.Fprintf(os.Stderr, "tends: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeObsJSON dumps the recorder's snapshot to path.
func writeObsJSON(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// estimateProbs re-reads the inference inputs/outputs and writes one
// "<from> <to> <probability>" line per inferred edge, returning the first
// write, flush or close error.
func estimateProbs(inPath, graphPath, probsPath string) error {
	if graphPath == "" {
		return fmt.Errorf("-probs requires -out (the inferred graph file)")
	}
	sf, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer sf.Close()
	sm, err := diffusion.ReadStatus(sf)
	if err != nil {
		return err
	}
	gf, err := os.Open(graphPath)
	if err != nil {
		return err
	}
	defer gf.Close()
	g, err := graph.Read(gf)
	if err != nil {
		return err
	}
	est, err := probest.Run(sm, g, probest.Options{})
	if err != nil {
		return err
	}
	out, err := os.Create(probsPath)
	if err != nil {
		return err
	}
	// A bufio.Writer keeps its first write error and Flush returns it.
	w := bufio.NewWriter(out)
	for _, e := range g.Edges() {
		fmt.Fprintf(w, "%d %d %.4f\n", e.From, e.To, est.Probs[e])
	}
	err = w.Flush()
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

func run(ctx context.Context, inPath, outPath string, combo int, scale, threshold float64, useMI, sparse, verbose bool, workers int) error {
	f, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	sm, err := diffusion.ReadStatus(f)
	if err != nil {
		return err
	}

	opt := core.Options{
		MaxComboSize:   combo,
		ThresholdScale: scale,
		TraditionalMI:  useMI,
		Sparse:         sparse,
		Workers:        workers,
	}
	// A negative threshold selects τ automatically; anything else, NaN
	// included, is fixed, so core rejects a NaN instead of ignoring it.
	if !(threshold < 0) {
		opt.FixedThreshold = &threshold
	}
	// -verbose reads the search's counters (and the sparse engine's pair
	// counters), so it needs a recorder even without -obs-json.
	rec := obs.From(ctx)
	if verbose && rec == nil {
		rec = obs.New()
		ctx = obs.With(ctx, rec)
	}
	res, err := core.InferContext(ctx, sm, opt)
	if err != nil {
		return err
	}
	if verbose {
		c := rec.Snapshot().Counters
		fmt.Fprintf(os.Stderr, "observations: beta=%d n=%d\n", sm.Beta(), sm.N())
		if sparse {
			coPairs, kept := c["core/sparse/pairs"], c["core/sparse/kept"]
			fmt.Fprintf(os.Stderr, "sparse pairs: co-occurring=%d kept=%d kept/co-occurring=%.4g\n",
				coPairs, kept, float64(kept)/float64(max(coPairs, 1)))
		}
		fmt.Fprintf(os.Stderr, "auto tau=%.6f used threshold=%.6f\n", res.AutoTau, res.Threshold)
		fmt.Fprintf(os.Stderr, "search: combos=%d merges=%d probes=%d probe_hits=%d tallies=%d\n",
			c["core/search/combos"], c["core/search/merges"], c["core/search/probes"], c["core/search/probe_hits"],
			c["core/search/tallies"])
		fmt.Fprintf(os.Stderr, "inferred edges=%d score g(T)=%.3f\n", res.Graph.NumEdges(), res.Score)
	}

	if outPath == "" {
		return graph.Write(os.Stdout, res.Graph)
	}
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	err = graph.Write(out, res.Graph)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}
