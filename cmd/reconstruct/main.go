// Command reconstruct runs any of the repository's reconstruction
// algorithms on observation files and writes the inferred edge list,
// optionally scoring it against a ground-truth graph — and, with -k or
// -immunize, continues into the full weighted-network pipeline the paper
// motivates: infer topology → estimate per-edge propagation probabilities
// (probest noisy-OR fit) → select influence seeds (RIS sketches) and/or an
// immunization set on the reconstructed weighted network.
//
// Usage:
//
//	reconstruct -algo tends   -status statuses.txt            [-out g.txt] [-truth t.txt]
//	reconstruct -algo netrate -cascades cascades.txt          [-out g.txt] [-truth t.txt]
//	reconstruct -algo multree -cascades cascades.txt -m 776   ...
//	reconstruct -algo netinf  -cascades cascades.txt -m 776   ...
//	reconstruct -algo lift    -cascades cascades.txt -m 776   ...
//	reconstruct -algo path    -cascades cascades.txt -m 776   ...
//
//	# fused pipeline: topology → edge probabilities → seed selection
//	reconstruct -algo tends -status statuses.txt -k 10 -report report.json
//	reconstruct -algo tends -status statuses.txt -immunize 5 -selector celf
//
// TENDS consumes a status file (it needs nothing else). The baselines
// consume a cascade file as produced by `diffsim -cascades`; MulTree,
// NetInf, LIFT and PATH additionally need the edge-count budget -m, and
// NetRate keeps edges above -minrate. With -truth, precision/recall/F of
// the result are printed to stderr.
//
// The pipeline stages run under one cancellable context (SIGINT/SIGTERM
// abort cleanly) with internal/obs phase spans; -report writes a JSON
// document with per-phase wall times, probest summary, chosen seeds with
// estimated and Monte-Carlo-validated spread, the immunization set, and
// all observability counters.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tends/internal/baselines/lift"
	"tends/internal/baselines/multree"
	"tends/internal/baselines/netinf"
	"tends/internal/baselines/netrate"
	"tends/internal/baselines/path"
	"tends/internal/core"
	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/influence"
	"tends/internal/metrics"
	"tends/internal/obs"
	"tends/internal/probest"
)

func main() {
	var o runOpts
	flag.StringVar(&o.algo, "algo", "", "algorithm: tends, netrate, multree, netinf, lift, path (required)")
	flag.StringVar(&o.statusPath, "status", "", "status file (tends)")
	flag.StringVar(&o.cascadePath, "cascades", "", "cascade file (baselines)")
	flag.StringVar(&o.outPath, "out", "", "output graph file (default stdout)")
	flag.StringVar(&o.truthPath, "truth", "", "optional ground-truth graph to score against")
	flag.IntVar(&o.m, "m", 0, "edge budget for multree/netinf/lift/path")
	flag.Float64Var(&o.minRate, "minrate", 0.01, "netrate: keep edges with rate above this")
	flag.IntVar(&o.k, "k", 0, "influence seed budget: >0 runs probest + seed selection on the reconstruction")
	flag.IntVar(&o.immunize, "immunize", 0, "immunization budget: >0 runs probest + greedy immunization")
	flag.IntVar(&o.samples, "samples", 1000, "Monte-Carlo samples for spread validation/immunization")
	flag.Float64Var(&o.risEps, "ris-eps", 0.02, "RIS adaptive-sampling stability tolerance")
	flag.StringVar(&o.selector, "selector", "ris", "seed selector: ris (sketches) or celf (lazy greedy Monte-Carlo)")
	flag.IntVar(&o.workers, "workers", 0, "worker goroutines for probest/influence (0 = GOMAXPROCS)")
	flag.Int64Var(&o.seed, "seed", 1, "base seed for the influence stage's derived RNG streams")
	flag.StringVar(&o.reportPath, "report", "", "write a JSON pipeline report to this file")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintf(os.Stderr, "reconstruct: %v\n", err)
		os.Exit(1)
	}
}

type runOpts struct {
	algo        string
	statusPath  string
	cascadePath string
	outPath     string
	truthPath   string
	m           int
	minRate     float64
	k           int
	immunize    int
	samples     int
	risEps      float64
	selector    string
	workers     int
	seed        int64
	reportPath  string
}

// report is the JSON document written by -report.
type report struct {
	Algo      string             `json:"algo"`
	Nodes     int                `json:"nodes"`
	Edges     int                `json:"edges"`
	Truth     *truthReport       `json:"truth,omitempty"`
	Probest   *probestReport     `json:"probest,omitempty"`
	Influence *influenceReport   `json:"influence,omitempty"`
	Immunize  *immunizeReport    `json:"immunize,omitempty"`
	PhaseMS   map[string]float64 `json:"phase_ms"`
	Counters  map[string]int64   `json:"counters"`
}

type truthReport struct {
	F         float64 `json:"f"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	TrueEdges int     `json:"true_edges"`
}

type probestReport struct {
	Edges    int     `json:"edges"`
	MeanProb float64 `json:"mean_prob"`
}

type influenceReport struct {
	Selector  string  `json:"selector"`
	K         int     `json:"k"`
	Seeds     []int   `json:"seeds"`
	EstSpread float64 `json:"est_spread"`
	MCSpread  float64 `json:"mc_spread"`
	Sketches  int     `json:"sketches,omitempty"`
}

type immunizeReport struct {
	K           int     `json:"k"`
	Blocked     []int   `json:"blocked"`
	SpreadAfter float64 `json:"spread_after"`
}

func run(ctx context.Context, o runOpts) error {
	rec := obs.New()
	ctx = obs.With(ctx, rec)
	phaseMS := make(map[string]float64)
	phase := func(name string) func() {
		span := rec.StartSpan("reconstruct/" + name)
		start := time.Now()
		return func() {
			span.End()
			phaseMS[name] = float64(time.Since(start).Nanoseconds()) / 1e6
		}
	}

	done := phase("infer")
	inferred, sm, err := infer(ctx, o)
	done()
	if err != nil {
		return err
	}
	rep := &report{
		Algo:     o.algo,
		Nodes:    inferred.NumNodes(),
		Edges:    inferred.NumEdges(),
		PhaseMS:  phaseMS,
		Counters: make(map[string]int64),
	}
	if o.truthPath != "" {
		truth, err := readGraphFile(o.truthPath)
		if err != nil {
			return err
		}
		if truth.NumNodes() != inferred.NumNodes() {
			return fmt.Errorf("truth graph %s has %d nodes, the inferred graph has %d", o.truthPath, truth.NumNodes(), inferred.NumNodes())
		}
		prf := metrics.Score(truth, inferred)
		rep.Truth = &truthReport{F: prf.F, Precision: prf.Precision, Recall: prf.Recall, TrueEdges: truth.NumEdges()}
		fmt.Fprintf(os.Stderr, "%s: F=%.3f precision=%.3f recall=%.3f (%d inferred, %d true)\n",
			o.algo, prf.F, prf.Precision, prf.Recall, inferred.NumEdges(), truth.NumEdges())
	}

	if o.k > 0 || o.immunize > 0 {
		if sm == nil {
			return fmt.Errorf("influence stage needs observations (status or cascade file)")
		}
		ep, err := estimateProbs(ctx, sm, inferred, o, rep, phase)
		if err != nil {
			return err
		}
		if o.k > 0 {
			if err := selectSeeds(ctx, ep, o, rep, phase); err != nil {
				return err
			}
		}
		if o.immunize > 0 {
			if err := immunizeNodes(ctx, ep, o, rep, phase); err != nil {
				return err
			}
		}
	}

	if o.reportPath != "" {
		snap := rec.Snapshot()
		for name, c := range snap.Counters {
			rep.Counters[name] = c
		}
		f, err := os.Create(o.reportPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if o.outPath == "" {
		return graph.Write(os.Stdout, inferred)
	}
	f, err := os.Create(o.outPath)
	if err != nil {
		return err
	}
	err = graph.Write(f, inferred)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// estimateProbs runs the probest fit on the reconstructed topology and
// converts the estimate into the simulator's CSR layout.
func estimateProbs(ctx context.Context, sm *diffusion.StatusMatrix, g *graph.Directed, o runOpts, rep *report, phase func(string) func()) (*diffusion.EdgeProbs, error) {
	done := phase("probest")
	defer done()
	est, err := probest.RunContext(ctx, sm, g, probest.Options{Workers: o.workers})
	if err != nil {
		return nil, err
	}
	// Summed in edge order: a map walk's random order would move the
	// mean's last bits from run to run.
	mean := 0.0
	for _, e := range g.Edges() {
		mean += est.Probs[e]
	}
	if len(est.Probs) > 0 {
		mean /= float64(len(est.Probs))
	}
	rep.Probest = &probestReport{Edges: len(est.Probs), MeanProb: mean}
	return est.EdgeProbs(g, 0)
}

// selectSeeds picks o.k influence seeds on the reconstructed weighted
// network and validates their expected spread with forward Monte-Carlo.
func selectSeeds(ctx context.Context, ep *diffusion.EdgeProbs, o runOpts, rep *report, phase func(string) func()) error {
	done := phase("influence")
	defer done()
	ir := &influenceReport{Selector: o.selector, K: o.k}
	switch o.selector {
	case "ris":
		res, err := influenceRIS(ctx, ep, o)
		if err != nil {
			return err
		}
		ir.Seeds = res.Seeds
		ir.Sketches = res.Sketches
		if len(res.Spreads) > 0 {
			ir.EstSpread = res.Spreads[len(res.Spreads)-1]
		}
	case "celf":
		seeds, spreads, err := influence.CELFSeeds(ctx, ep, influence.CELFOptions{
			K: o.k, Samples: o.samples, Workers: o.workers, Seed: o.seed,
		})
		if err != nil {
			return err
		}
		ir.Seeds = seeds
		if len(spreads) > 0 {
			ir.EstSpread = spreads[len(spreads)-1]
		}
	default:
		return fmt.Errorf("unknown selector %q (want ris or celf)", o.selector)
	}
	mc, err := influence.SpreadEst(ctx, ep, ir.Seeds, influence.SpreadOptions{
		Samples: o.samples, Workers: o.workers, Seed: o.seed + 1,
	})
	if err != nil {
		return err
	}
	ir.MCSpread = mc
	rep.Influence = ir
	fmt.Fprintf(os.Stderr, "influence: %d seeds, estimated spread %.1f, Monte-Carlo spread %.1f\n",
		len(ir.Seeds), ir.EstSpread, ir.MCSpread)
	return nil
}

func influenceRIS(ctx context.Context, ep *diffusion.EdgeProbs, o runOpts) (*influence.RISResult, error) {
	return influence.RISSeeds(ctx, ep, influence.RISOptions{
		K: o.k, Workers: o.workers, Seed: o.seed, Eps: o.risEps,
	})
}

// immunizeNodes picks o.immunize nodes to block on the reconstructed
// weighted network, minimizing expected outbreak size under random seeding.
func immunizeNodes(ctx context.Context, ep *diffusion.EdgeProbs, o runOpts, rep *report, phase func(string) func()) error {
	done := phase("immunize")
	defer done()
	numSeeds := o.k
	if numSeeds <= 0 {
		numSeeds = 1
	}
	blocked, spreads, err := influence.GreedyImmunizeOpt(ctx, ep, influence.ImmunizeOptions{
		K: o.immunize, NumSeeds: numSeeds, Samples: o.samples, Workers: o.workers, Seed: o.seed + 2,
	})
	if err != nil {
		return err
	}
	imr := &immunizeReport{K: o.immunize, Blocked: blocked}
	if len(spreads) > 0 {
		imr.SpreadAfter = spreads[len(spreads)-1]
	}
	rep.Immunize = imr
	fmt.Fprintf(os.Stderr, "immunize: blocked %v, expected spread after %.1f\n", blocked, imr.SpreadAfter)
	return nil
}

// infer runs the topology stage and also returns the final-status
// observations (needed by the probest stage), when the input provides them.
func infer(ctx context.Context, o runOpts) (*graph.Directed, *diffusion.StatusMatrix, error) {
	switch o.algo {
	case "tends":
		if o.statusPath == "" {
			return nil, nil, fmt.Errorf("tends needs -status")
		}
		sm, err := readStatusFile(o.statusPath)
		if err != nil {
			return nil, nil, err
		}
		res, err := core.InferContext(ctx, sm, core.Options{})
		if err != nil {
			return nil, nil, err
		}
		return res.Graph, sm, nil
	case "netrate":
		sim, err := readCascadeFile(o.cascadePath)
		if err != nil {
			return nil, nil, err
		}
		preds, err := netrate.InferContext(ctx, sim, netrate.Options{})
		if err != nil {
			return nil, nil, err
		}
		g := graph.New(sim.N)
		for _, we := range preds {
			if we.Weight > o.minRate {
				g.AddEdge(we.From, we.To)
			}
		}
		return g, sim.Statuses, nil
	case "multree", "netinf", "lift", "path":
		sim, err := readCascadeFile(o.cascadePath)
		if err != nil {
			return nil, nil, err
		}
		if o.m <= 0 {
			return nil, nil, fmt.Errorf("%s needs a positive edge budget -m", o.algo)
		}
		var g *graph.Directed
		switch o.algo {
		case "multree":
			g, err = multree.Infer(sim, o.m, multree.Options{})
		case "netinf":
			g, err = netinf.Infer(sim, o.m, netinf.Options{})
		case "lift":
			g, err = lift.InferTopM(sim, o.m, lift.Options{})
		default: // path
			var traces []path.Trace
			traces, err = path.TracesFromCascades(sim, 3)
			if err == nil {
				g, err = path.InferTopM(sim.N, traces, o.m)
			}
		}
		if err != nil {
			return nil, nil, err
		}
		return g, sim.Statuses, nil
	case "":
		return nil, nil, fmt.Errorf("-algo is required")
	default:
		return nil, nil, fmt.Errorf("unknown algorithm %q", o.algo)
	}
}

func readStatusFile(path string) (*diffusion.StatusMatrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return diffusion.ReadStatus(f)
}

func readCascadeFile(path string) (*diffusion.Result, error) {
	if path == "" {
		return nil, fmt.Errorf("this algorithm needs -cascades")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return diffusion.ReadCascades(f)
}

func readGraphFile(path string) (*graph.Directed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f)
}
