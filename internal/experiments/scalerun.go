package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"tends/internal/chaos"
	"tends/internal/core"
	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/lfr"
	"tends/internal/metrics"
	"tends/internal/obs"
)

// ScaleConfig describes one point of the large-n scale study: an LFR
// network, a subcritical diffusion workload over it, and the inference
// configuration. Everything is derived deterministically from Seed, so a
// shard or a rerun can regenerate the identical workload — the property the
// sharded runner relies on to merge without shipping observation data
// between shards.
type ScaleConfig struct {
	N         int     // number of nodes
	Beta      int     // diffusion processes (observations); 0 means 256
	AvgDegree float64 // LFR average degree; 0 means 10
	DegreeExp float64 // LFR degree power-law exponent; 0 means 2
	Mixing    float64 // LFR mixing parameter; 0 means the LFR default (0.1)
	Seeds     int     // absolute seed infections per process; 0 means 10
	// EdgeProb is the mean per-edge propagation probability; 0 means 0.08.
	// With AvgDegree 10 this keeps the branching factor below 1, so
	// cascades stay local and the co-occurring pair count grows ~linearly
	// in n instead of quadratically — the regime the sparse engine's
	// complexity model assumes (see EXPERIMENTS.md).
	EdgeProb float64
	Seed     int64

	Workers      int
	ShardIndex   int // see core.Options
	ShardCount   int
	MaxComboSize int

	// Journal, when non-nil, streams the shard's results incrementally: the
	// header is written as soon as the threshold is selected (core's
	// OnSearchStart hook) and each node's parents as soon as its search
	// completes (OnNodeDone) — so a killed worker leaves a resumable partial
	// journal instead of nothing, which -shard-resume continues.
	Journal *ShardJournal

	// ResumeHeader/ResumeNodes continue a partial shard journal: nodes
	// already journaled are skipped by the search (their recorded parents
	// are folded into the result), and the header's threshold is
	// cross-checked bit-for-bit against the freshly selected τ — the
	// regenerated workload must select the identical threshold, or the
	// journal belongs to a different run. Requires Journal (the continuation
	// is appended to it, with no second header).
	ResumeHeader *ShardHeader
	ResumeNodes  map[int][]int

	Obs *obs.Recorder // optional observability stream
}

func (c ScaleConfig) withDefaults() (ScaleConfig, error) {
	if c.N <= 0 {
		return c, fmt.Errorf("scale: N must be positive, got %d", c.N)
	}
	if c.Beta == 0 {
		c.Beta = 256
	}
	if c.AvgDegree == 0 {
		c.AvgDegree = 10
	}
	if c.DegreeExp == 0 {
		c.DegreeExp = 2
	}
	if c.Seeds == 0 {
		c.Seeds = 10
	}
	if c.EdgeProb == 0 {
		c.EdgeProb = 0.08
	}
	if c.Beta < 1 {
		return c, fmt.Errorf("scale: Beta must be positive, got %d", c.Beta)
	}
	if c.Seeds < 1 || c.Seeds > c.N {
		return c, fmt.Errorf("scale: Seeds %d out of [1, N]", c.Seeds)
	}
	if c.EdgeProb <= 0 || c.EdgeProb >= 1 {
		return c, fmt.Errorf("scale: EdgeProb %v out of (0,1)", c.EdgeProb)
	}
	return c, nil
}

// BuildScaleWorkload generates the ground-truth network and the diffusion
// observations for one scale point. Deterministic in cfg: the same Seed
// yields bit-identical statuses on every call, on every shard.
func BuildScaleWorkload(ctx context.Context, cfg ScaleConfig) (*graph.Directed, *diffusion.StatusMatrix, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net, err := lfr.Generate(lfr.Params{
		N:         cfg.N,
		AvgDegree: cfg.AvgDegree,
		DegreeExp: cfg.DegreeExp,
		Mixing:    cfg.Mixing,
	}, rng)
	if err != nil {
		return nil, nil, fmt.Errorf("scale: generate network: %w", err)
	}
	ep := diffusion.NewEdgeProbs(net.Graph, cfg.EdgeProb, 0.05, rng)
	sim, err := diffusion.SimulateContext(ctx, ep, diffusion.Config{
		Alpha: float64(cfg.Seeds) / float64(cfg.N),
		Beta:  cfg.Beta,
	}, rng)
	if err != nil {
		return nil, nil, fmt.Errorf("scale: simulate: %w", err)
	}
	return net.Graph, sim.Statuses, nil
}

// ScaleResult is the outcome of one scale run (one shard of one, when
// sharded).
type ScaleResult struct {
	Truth     *graph.Directed
	Inference *core.Result
	// Score is the precision/recall/F of the inferred topology against the
	// ground truth. Meaningful only for unsharded runs: a shard's graph
	// holds just its own nodes' parents, so its recall is ~1/k of the
	// merged network's. Merge shards first, then score.
	Score       metrics.PRF
	WorkloadDur time.Duration
	InferDur    time.Duration
}

// RunScale executes one scale point end to end: workload generation,
// inference (optionally one shard of k), and — when
// unsharded — scoring against the generated truth. With cfg.Journal set the
// shard's header and node records stream out incrementally as the search
// progresses; with cfg.ResumeHeader/ResumeNodes set, already-journaled
// nodes are skipped and their recorded parents folded back in, so the
// continuation's journal composes to the byte-identical topology a fresh
// run would have produced.
func RunScale(ctx context.Context, cfg ScaleConfig) (*ScaleResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.ResumeHeader != nil && cfg.Journal == nil {
		return nil, fmt.Errorf("scale: ResumeHeader set without Journal")
	}
	if h := cfg.ResumeHeader; h != nil {
		count := cfg.ShardCount
		if count < 1 {
			count = 1
		}
		if h.N != cfg.N || h.Beta != cfg.Beta || h.Seed != cfg.Seed ||
			h.ShardIndex != cfg.ShardIndex || h.ShardCount != count {
			return nil, fmt.Errorf("scale: resume journal describes shard %d/%d of run (n=%d β=%d seed=%d), config says shard %d/%d of (n=%d β=%d seed=%d)",
				h.ShardIndex, h.ShardCount, h.N, h.Beta, h.Seed,
				cfg.ShardIndex, count, cfg.N, cfg.Beta, cfg.Seed)
		}
	}
	if cfg.Obs != nil {
		ctx = obs.With(ctx, cfg.Obs)
	}
	// Each shard is its own chaos decision scope, so the fault sequence is
	// reproducible at any worker count.
	ctx = chaos.WithScope(ctx, chaos.Tag(cfg.Seed, "scale.shard",
		fmt.Sprintf("%d/%d", cfg.ShardIndex, cfg.ShardCount)))
	t0 := time.Now()
	truth, statuses, err := BuildScaleWorkload(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res := &ScaleResult{Truth: truth, WorkloadDur: time.Since(t0)}

	opt := core.Options{
		Workers:      cfg.Workers,
		ShardIndex:   cfg.ShardIndex,
		ShardCount:   cfg.ShardCount,
		MaxComboSize: cfg.MaxComboSize,
	}
	if cfg.Journal != nil {
		rec := obs.From(ctx)
		resumed := cfg.ResumeNodes
		if len(resumed) > 0 {
			opt.SkipNodes = make(map[int]bool, len(resumed))
			for node := range resumed {
				opt.SkipNodes[node] = true
			}
			rec.Counter("scale/resume/nodes_skipped").Add(int64(len(resumed)))
		}
		opt.OnSearchStart = func(tau float64) error {
			if cfg.ResumeHeader != nil {
				// The regenerated pairwise stage must reselect the exact
				// threshold the journal was written under, or its node
				// records belong to a different run.
				if tau != cfg.ResumeHeader.Threshold {
					return fmt.Errorf("scale: resume threshold drift: journal has %v, run selected %v", cfg.ResumeHeader.Threshold, tau)
				}
				return nil
			}
			count := cfg.ShardCount
			if count < 1 {
				count = 1
			}
			return cfg.Journal.WriteHeader(ShardHeader{
				ShardIndex: cfg.ShardIndex,
				ShardCount: count,
				N:          cfg.N,
				Beta:       cfg.Beta,
				Seed:       cfg.Seed,
				Threshold:  tau,
			})
		}
		opt.OnNodeDone = func(node int, parents []int) error {
			if err := cfg.Journal.AppendNode(node, parents); err != nil {
				return err
			}
			rec.Counter("scale/journal/nodes").Inc()
			return nil
		}
	}
	t1 := time.Now()
	inf, err := core.InferContext(ctx, statuses, opt)
	if err != nil {
		return nil, fmt.Errorf("scale: infer: %w", err)
	}
	// Fold the resumed nodes' recorded parents back into the result, so the
	// continuation's in-memory topology equals what a fresh full shard run
	// would have produced.
	if len(cfg.ResumeNodes) > 0 {
		for node, parents := range cfg.ResumeNodes {
			inf.Parents[node] = parents
		}
		inf.Graph = graph.FromParents(inf.Graph.NumNodes(), inf.Parents)
	}
	res.Inference = inf
	res.InferDur = time.Since(t1)
	if cfg.ShardCount <= 1 {
		res.Score = metrics.Score(truth, inf.Graph)
	}
	return res, nil
}

// RunShardWorker runs one shard end to end: open (or resume) the shard
// journal at path, run the shard with incremental journaling, and close the
// journal. With resume set, a partial journal at path is continued
// node-for-node — a torn tail (the writer was killed mid-append) is
// truncated away first; a journal corrupted beyond that, or absent, is
// replaced and the shard restarts from scratch, since redoing the shard
// beats dying on an unreadable file. This is the body of benchfig's
// -shard [-shard-resume] mode.
func RunShardWorker(ctx context.Context, cfg ScaleConfig, path string, resume bool) (*ScaleResult, error) {
	if resume {
		rs, err := OpenShardResume(path)
		switch {
		case err == nil:
			defer rs.Close()
			cfg.Journal = rs.Journal
			cfg.ResumeHeader = rs.Header
			cfg.ResumeNodes = rs.Nodes
			if cfg.Obs != nil {
				if rs.TruncatedBytes > 0 {
					cfg.Obs.Counter("scale/resume/torn_tail_bytes").Add(rs.TruncatedBytes)
				}
				cfg.Obs.Counter("scale/resume/continued").Inc()
			}
			return RunScale(ctx, cfg)
		case errors.Is(err, ErrJournalCorrupt) || errors.Is(err, os.ErrNotExist):
			// Unusable journal: fall through and start the shard fresh.
			if cfg.Obs != nil && errors.Is(err, ErrJournalCorrupt) {
				cfg.Obs.Counter("scale/resume/corrupt_restart").Inc()
			}
		default:
			return nil, err
		}
	}
	j, err := CreateShardJournal(path)
	if err != nil {
		return nil, err
	}
	cfg.Journal = j
	cfg.ResumeHeader, cfg.ResumeNodes = nil, nil
	res, err := RunScale(ctx, cfg)
	if cerr := j.Close(); err == nil && cerr != nil {
		return nil, cerr
	}
	return res, err
}

// MergedScaleResult is a sharded run reassembled into a full topology and
// scored against the regenerated ground truth.
type MergedScaleResult struct {
	Graph     *graph.Directed
	Parents   [][]int
	Threshold float64
	Score     metrics.PRF
}

// MergeScaleShards composes parsed shard journals into the final network
// and scores it. cfg must be the configuration the shards ran (it is
// cross-checked against the headers); the ground truth is regenerated from
// cfg.Seed rather than carried through the journals.
func MergeScaleShards(ctx context.Context, cfg ScaleConfig, headers []*ShardHeader, nodes []map[int][]int) (*MergedScaleResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	parents, ref, err := MergeShardJournals(headers, nodes)
	if err != nil {
		return nil, err
	}
	res, err := scoreMergedShards(ctx, cfg, ref, parents)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// MergeScaleShardsDegraded is MergeScaleShards without the completeness
// requirement: whatever shards survived compose into the best partial
// topology, and the returned report accounts for exactly which shards and
// nodes are missing. The partial network is still scored against the
// regenerated truth — recall reflects the missing nodes, which is honest.
func MergeScaleShardsDegraded(ctx context.Context, cfg ScaleConfig, headers []*ShardHeader, nodes []map[int][]int) (*MergedScaleResult, *MergeReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	parents, ref, rep, err := MergeShardJournalsDegraded(headers, nodes)
	if err != nil {
		return nil, nil, err
	}
	res, err := scoreMergedShards(ctx, cfg, ref, parents)
	if err != nil {
		return nil, nil, err
	}
	return res, rep, nil
}

// scoreMergedShards cross-checks the merged headers against the run config,
// rebuilds the topology, and scores it against the regenerated truth.
func scoreMergedShards(ctx context.Context, cfg ScaleConfig, ref *ShardHeader, parents [][]int) (*MergedScaleResult, error) {
	if ref.N != cfg.N || ref.Beta != cfg.Beta || ref.Seed != cfg.Seed {
		return nil, fmt.Errorf("merge: journals describe run (n=%d β=%d seed=%d), config says (n=%d β=%d seed=%d)",
			ref.N, ref.Beta, ref.Seed, cfg.N, cfg.Beta, cfg.Seed)
	}
	g := graph.FromParents(cfg.N, parents)
	truth, _, err := BuildScaleWorkload(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &MergedScaleResult{
		Graph:     g,
		Parents:   parents,
		Threshold: ref.Threshold,
		Score:     metrics.Score(truth, g),
	}, nil
}
