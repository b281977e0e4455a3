package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tends/internal/chaos"
	"tends/internal/experiments"
	"tends/internal/obs"
)

// scaleOpts carries the flag values of benchfig's scale-study mode, which
// runs one large-n LFR point end to end instead of regenerating a figure.
// The workload is derived deterministically from -seed, so independent
// processes can each run one shard (-shard i/k) and their journals merge
// (-merge) into the same topology an unsharded run would produce; a lost
// shard reruns with -shard i/k -shard-resume and continues its journal.
type scaleOpts struct {
	run       bool
	n         int
	beta      int
	deg       float64
	exp       float64
	mixing    float64
	seeds     int
	mu        float64
	sparse    bool
	shardSpec string
	mergeSpec string

	shardResume   bool // -shard: continue the partial journal at -checkpoint
	mergeDegraded bool // -merge: accept an incomplete shard set

	explicit map[string]bool // the flags set on the command line
}

// figureOnlyFlags are the flags of figure and study runs, which a scale run
// would ignore.
var figureOnlyFlags = []string{
	"fig", "all", "study", "csv", "repeats", "algos", "cell-timeout", "retries",
	"node-deadline", "combo-budget",
	"model", "delay", "delay-param", "recovery", "reinfect", "missing", "uncertain",
}

func registerScaleFlags(s *scaleOpts) {
	flag.BoolVar(&s.run, "scale", false, "run the large-n scale study instead of a figure")
	flag.IntVar(&s.n, "scale-n", 10000, "scale study: number of nodes")
	flag.IntVar(&s.beta, "scale-beta", 256, "scale study: diffusion processes (observations)")
	flag.Float64Var(&s.deg, "scale-deg", 10, "scale study: LFR average degree")
	flag.Float64Var(&s.exp, "scale-exp", 2, "scale study: LFR degree power-law exponent")
	flag.Float64Var(&s.mixing, "scale-mixing", 0.1, "scale study: LFR mixing parameter")
	flag.IntVar(&s.seeds, "scale-seeds", 10, "scale study: seed infections per diffusion process")
	flag.Float64Var(&s.mu, "scale-mu", 0.08, "scale study: mean per-edge propagation probability (subcritical keeps co-pairs sparse)")
	flag.BoolVar(&s.sparse, "sparse", false, "use the sparse candidate engine (bit-identical results, sub-quadratic pairwise stage)")
	flag.StringVar(&s.shardSpec, "shard", "", `run one shard of the scale study, e.g. "0/4"; requires -checkpoint for the shard journal`)
	flag.StringVar(&s.mergeSpec, "merge", "", `comma-separated shard journals (globs allowed, e.g. 'shards/*.journal') to merge into the final topology`)
	flag.BoolVar(&s.shardResume, "shard-resume", false, "shard: continue the partial journal at -checkpoint (torn tails truncated; corrupt journals restart fresh)")
	flag.BoolVar(&s.mergeDegraded, "merge-degraded", false, "merge: accept an incomplete shard set and produce the partial topology plus a missing-node report")
}

// parseShardSpec parses "i/k" into (index, count).
func parseShardSpec(spec string) (int, int, error) {
	var idx, count int
	if n, err := fmt.Sscanf(spec, "%d/%d", &idx, &count); n != 2 || err != nil {
		return 0, 0, fmt.Errorf("usage: -shard wants i/k, got %q", spec)
	}
	if count < 1 || idx < 0 || idx >= count {
		return 0, 0, fmt.Errorf("usage: -shard %q out of range (want 0 <= i < k)", spec)
	}
	return idx, count, nil
}

func (s *scaleOpts) config(o runOpts) experiments.ScaleConfig {
	return experiments.ScaleConfig{
		N:         s.n,
		Beta:      s.beta,
		AvgDegree: s.deg,
		DegreeExp: s.exp,
		Mixing:    s.mixing,
		Seeds:     s.seeds,
		EdgeProb:  s.mu,
		Seed:      o.seed,
		Workers:   o.workers,
		Sparse:    s.sparse,
	}
}

// scaleInjector builds the chaos injector of the scale modes from the
// shared -chaos/-chaos-seed flags; nil when chaos is off.
func scaleInjector(o runOpts) (*chaos.Injector, error) {
	if o.chaosSpec == "" {
		return nil, nil
	}
	rules, err := chaos.ParseSpec(o.chaosSpec)
	if err != nil {
		return nil, fmt.Errorf("usage: -chaos: %w", err)
	}
	return chaos.New(o.chaosSeed, rules), nil
}

// expandMergeSpec resolves the -merge argument: comma-separated segments,
// each either a literal path or a glob, into a sorted path list.
func expandMergeSpec(spec string) ([]string, error) {
	var paths []string
	for _, seg := range strings.Split(spec, ",") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		matches, err := filepath.Glob(seg)
		if err != nil {
			return nil, fmt.Errorf("usage: -merge pattern %q: %w", seg, err)
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("-merge: no shard journals match %q", seg)
		}
		paths = append(paths, matches...)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("-merge: empty journal list %q", spec)
	}
	sort.Strings(paths)
	return paths, nil
}

// loadShardJournals reads shard journals for a merge. A torn tail keeps
// the journal's intact records (reported to stderr with its byte offset)
// unless strict (-resume-strict). Any other damage, a missing header, or a
// record that does not decode refuses the merge; with degraded set that
// journal is instead dropped with a stderr warning, so the merge report
// lists its nodes as missing.
func loadShardJournals(paths []string, strict, degraded bool) ([]*experiments.ShardHeader, []map[int][]int, error) {
	var headers []*experiments.ShardHeader
	var nodes []map[int][]int
	for _, path := range paths {
		h, ns, warn, err := experiments.LoadShardJournal(path, strict)
		if err != nil && degraded {
			fmt.Fprintf(os.Stderr, "benchfig: degraded merge: dropping %s: %v\n", path, err)
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if warn != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %s: ignoring %s\n", path, warn)
		}
		headers = append(headers, h)
		nodes = append(nodes, ns)
	}
	return headers, nodes, nil
}

// validate rejects the flags the chosen scale mode would silently ignore.
func (s scaleOpts) validate(o runOpts) error {
	for _, name := range figureOnlyFlags {
		if s.explicit[name] {
			return fmt.Errorf("usage: -%s applies to figure and study runs, not to -scale, -shard or -merge", name)
		}
	}
	switch {
	case s.shardSpec != "" && s.mergeSpec != "":
		return fmt.Errorf("usage: -shard runs one shard and -merge merges finished ones; pass one of them")
	case s.shardResume && s.shardSpec == "":
		return fmt.Errorf("usage: -shard-resume continues a shard journal and needs -shard")
	case s.mergeDegraded && s.mergeSpec == "":
		return fmt.Errorf("usage: -merge-degraded needs -merge")
	case o.resume != "":
		return fmt.Errorf("usage: -resume continues a figure run; a scale shard resumes with -shard i/k -shard-resume")
	case o.checkpoint != "" && s.shardSpec == "":
		return fmt.Errorf("usage: -checkpoint in a scale run names a shard journal and needs -shard")
	case o.resumeStrict && s.mergeSpec == "":
		return fmt.Errorf("usage: -resume-strict in a scale run applies to -merge")
	}
	return nil
}

// runScale executes the scale study in one of three modes: a full run, one
// shard of k (journaled incrementally to -checkpoint, resumable), or a
// merge of shard journals.
func runScale(ctx context.Context, o runOpts, s scaleOpts) (int, error) {
	if err := s.validate(o); err != nil {
		return exitErr, err
	}
	cfg := s.config(o)
	injector, err := scaleInjector(o)
	if err != nil {
		return exitErr, err
	}
	var rec *obs.Recorder
	if o.obsJSON != "" {
		rec = obs.New()
		cfg.Obs = rec
	}
	if injector != nil {
		ctx = chaos.With(ctx, injector)
	}
	writeObs := func() error {
		if o.obsJSON == "" {
			return nil
		}
		f, err := os.Create(o.obsJSON)
		if err != nil {
			return err
		}
		if err := rec.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	switch {
	case s.mergeSpec != "":
		paths, err := expandMergeSpec(s.mergeSpec)
		if err != nil {
			return exitErr, err
		}
		if s.mergeDegraded {
			// The degraded merge tolerates what the strict path rejects:
			// journals that never got a header (a worker killed before its
			// search started leaves a header-only file), damaged journals,
			// truncated journals, and absent shards. Unloadable journals are
			// dropped with a warning; the report accounts for every node they
			// would have carried.
			headers, nodes, _ := loadShardJournals(paths, false, true)
			if len(headers) == 0 {
				return exitErr, fmt.Errorf("merge: none of the %d journals is usable", len(paths))
			}
			merged, rep, err := experiments.MergeScaleShardsDegraded(ctx, cfg, headers, nodes)
			if err != nil {
				return exitErr, err
			}
			printDegradedMerge(cfg, merged, rep)
			if rep.Complete {
				return exitOK, writeObs()
			}
			return exitFailedCells, writeObs()
		}
		headers, nodes, err := loadShardJournals(paths, o.resumeStrict, false)
		if err != nil {
			return exitErr, err
		}
		merged, err := experiments.MergeScaleShards(ctx, cfg, headers, nodes)
		if err != nil {
			return exitErr, err
		}
		fmt.Printf("scale merge: n=%d shards=%d threshold=%.6g edges=%d\n",
			cfg.N, len(headers), merged.Threshold, merged.Graph.NumEdges())
		fmt.Printf("P=%.4f R=%.4f F=%.4f\n", merged.Score.Precision, merged.Score.Recall, merged.Score.F)
		return exitOK, writeObs()

	case s.shardSpec != "":
		idx, count, err := parseShardSpec(s.shardSpec)
		if err != nil {
			return exitErr, err
		}
		if o.checkpoint == "" {
			return exitErr, fmt.Errorf("usage: -shard requires -checkpoint for the shard journal")
		}
		cfg.ShardIndex, cfg.ShardCount = idx, count
		res, err := experiments.RunShardWorker(ctx, cfg, o.checkpoint, s.shardResume)
		if err != nil {
			return exitErr, err
		}
		fmt.Printf("scale shard %d/%d: n=%d sparse=%v threshold=%.6g workload=%v infer=%v journal=%s\n",
			idx, count, cfg.N, cfg.Sparse, res.Inference.Threshold,
			res.WorkloadDur.Round(time.Millisecond), res.InferDur.Round(time.Millisecond), o.checkpoint)
		return exitOK, writeObs()

	default:
		res, err := experiments.RunScale(ctx, cfg)
		if err != nil {
			return exitErr, err
		}
		fmt.Printf("scale run: n=%d beta=%d sparse=%v threshold=%.6g edges=%d\n",
			cfg.N, cfg.Beta, cfg.Sparse, res.Inference.Threshold, res.Inference.Graph.NumEdges())
		fmt.Printf("P=%.4f R=%.4f F=%.4f workload=%v infer=%v\n",
			res.Score.Precision, res.Score.Recall, res.Score.F,
			res.WorkloadDur.Round(time.Millisecond), res.InferDur.Round(time.Millisecond))
		return exitOK, writeObs()
	}
}

// printDegradedMerge renders a degraded merge: the partial topology's
// stats in the same shape the complete merge prints, plus the structured
// missing-set accounting on stderr.
func printDegradedMerge(cfg experiments.ScaleConfig, merged *experiments.MergedScaleResult, rep *experiments.MergeReport) {
	fmt.Printf("scale merge degraded: n=%d shards=%d/%d threshold=%.6g edges=%d missing_nodes=%d\n",
		cfg.N, len(rep.PresentShards), rep.ShardCount, merged.Threshold, merged.Graph.NumEdges(), len(rep.MissingNodes))
	fmt.Printf("P=%.4f R=%.4f F=%.4f\n", merged.Score.Precision, merged.Score.Recall, merged.Score.F)
	if !rep.Complete {
		fmt.Fprintf(os.Stderr, "benchfig: degraded merge: missing shards %v; %d of %d nodes merged, %d missing\n",
			rep.MissingShards, rep.MergedNodes, rep.N, len(rep.MissingNodes))
	}
}
