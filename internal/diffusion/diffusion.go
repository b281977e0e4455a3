// Package diffusion simulates independent-cascade diffusion processes on a
// directed network, producing the observation data every reconstruction
// algorithm in this repository consumes.
//
// Following the paper's Section V-A ("Infection Data"): per-edge propagation
// probabilities are drawn once per network from a Gaussian with mean μ and
// standard deviation 0.05 (so >95% of probabilities fall within μ±0.1),
// clamped into (0,1). Each process seeds ⌈α·n⌉ uniformly random initially
// infected nodes, then spreads in rounds — every newly infected node gets
// exactly one chance to infect each currently uninfected child with the
// edge's probability — until no new infections occur.
//
// The simulator records, per process:
//
//   - the final infection status vector (what TENDS and LIFT see),
//   - the seed set (what LIFT additionally needs),
//   - the full cascade with discrete rounds and continuous timestamps
//     (what the timestamp-based baselines NetRate/MulTree/NetInf need).
//
// Continuous timestamps model incubation: an infection that occurs in round
// r is stamped r plus an exponential delay, matching the transmission-delay
// models those baselines assume.
package diffusion

import (
	"context"
	"fmt"
	"math/rand"

	"tends/internal/graph"
	"tends/internal/stats"
)

// EdgeProbs holds per-edge propagation probabilities for a network in a
// flat CSR layout: children[off[u]:off[u+1]] are u's children in ascending
// order (the g.Edges() order) with probs aligned index-for-index, so the
// simulator's innermost trial loop runs over two parallel slices with zero
// map lookups. The layout snapshots g's topology at construction time;
// edges added to g afterwards have probability 0 and are never traversed.
type EdgeProbs struct {
	g        *graph.Directed
	off      []int32   // len n+1; per-node spans into children/probs
	children []int32   // flattened child lists, ascending per node
	probs    []float64 // aligned with children
}

// newEdgeProbs lays out g's adjacency in CSR form with zeroed probabilities.
func newEdgeProbs(g *graph.Directed) *EdgeProbs {
	n := g.NumNodes()
	ep := &EdgeProbs{
		g:        g,
		off:      make([]int32, n+1),
		children: make([]int32, 0, g.NumEdges()),
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Children(u) {
			ep.children = append(ep.children, int32(v))
		}
		ep.off[u+1] = int32(len(ep.children))
	}
	ep.probs = make([]float64, len(ep.children))
	return ep
}

// NewEdgeProbs draws a propagation probability for every edge of g from a
// truncated Gaussian with mean mu and standard deviation sigma.
func NewEdgeProbs(g *graph.Directed, mu, sigma float64, rng *rand.Rand) *EdgeProbs {
	// CSR order is exactly g.Edges() order, so the RNG draw sequence is the
	// same as iterating g.Edges() — fixed-seed workloads are unchanged.
	ep := newEdgeProbs(g)
	for k := range ep.probs {
		ep.probs[k] = stats.TruncatedGaussian(rng, mu, sigma, 0, 1)
	}
	return ep
}

// UniformEdgeProbs assigns probability p to every edge of g.
func UniformEdgeProbs(g *graph.Directed, p float64) *EdgeProbs {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("diffusion: probability %v outside (0,1)", p))
	}
	ep := newEdgeProbs(g)
	for k := range ep.probs {
		ep.probs[k] = p
	}
	return ep
}

// EdgeProbsFromMap builds edge probabilities from an explicit per-edge map
// (e.g. the output of a probability estimator). Every edge of g must have a
// probability in (0, 1); entries for non-edges are rejected.
func EdgeProbsFromMap(g *graph.Directed, probs map[graph.Edge]float64) (*EdgeProbs, error) {
	return ClampedEdgeProbs(g, probs, 0)
}

// ClampedEdgeProbs is EdgeProbsFromMap with every probability first
// clamped into [floor, 1−floor] when floor > 0: raised to floor when below
// it, then lowered to 1−floor when above that. Each edge of g is looked up
// once, in CSR order. With every edge found, probs holds a key that is no
// edge exactly when it has more keys than g has edges; only then are its
// keys searched, to name one.
func ClampedEdgeProbs(g *graph.Directed, probs map[graph.Edge]float64, floor float64) (*EdgeProbs, error) {
	ep := newEdgeProbs(g)
	k := 0
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Children(u) {
			e := graph.Edge{From: u, To: v}
			p, ok := probs[e]
			if !ok {
				return nil, fmt.Errorf("diffusion: missing probability for edge %v", e)
			}
			if floor > 0 {
				if p < floor {
					p = floor
				}
				if p > 1-floor {
					p = 1 - floor
				}
			}
			if p <= 0 || p >= 1 {
				return nil, fmt.Errorf("diffusion: probability %v for edge %v outside (0,1)", p, e)
			}
			ep.probs[k] = p
			k++
		}
	}
	if len(probs) != k {
		for e := range probs {
			if !g.HasEdge(e.From, e.To) {
				return nil, fmt.Errorf("diffusion: probability given for non-edge %v", e)
			}
		}
	}
	return ep, nil
}

// Prob returns the propagation probability of edge (from, to); zero if the
// edge does not exist (or was added to the graph after construction).
func (ep *EdgeProbs) Prob(from, to int) float64 {
	if from < 0 || from >= len(ep.off)-1 {
		return 0
	}
	lo, hi := int(ep.off[from]), int(ep.off[from+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(ep.children[mid]) < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(ep.off[from+1]) && int(ep.children[lo]) == to {
		return ep.probs[lo]
	}
	return 0
}

// Graph returns the underlying network.
func (ep *EdgeProbs) Graph() *graph.Directed { return ep.g }

// Infection records one node infection within a cascade.
type Infection struct {
	Node   int
	Round  int     // discrete diffusion round; seeds are round 0
	Time   float64 // continuous timestamp; seeds are 0
	Parent int     // infecting node, -1 for seeds
}

// Cascade is the full trace of one diffusion process.
type Cascade struct {
	Seeds      []int
	Infections []Infection // in infection order (seeds first)
}

// InfectionTimes returns a dense n-sized slice of continuous infection
// timestamps; uninfected nodes are marked with -1.
func (c *Cascade) InfectionTimes(n int) []float64 {
	times := make([]float64, n)
	for i := range times {
		times[i] = -1
	}
	for _, inf := range c.Infections {
		times[inf.Node] = inf.Time
	}
	return times
}

// Result is the output of simulating β diffusion processes.
type Result struct {
	N        int
	Statuses *StatusMatrix // β×n final infection statuses
	Cascades []Cascade     // per-process traces, len β
}

// Config controls a simulation run.
type Config struct {
	Alpha float64 // initial infection ratio; seeds = max(1, round(alpha*n))
	Beta  int     // number of diffusion processes
}

// Simulate runs cfg.Beta independent-cascade processes on the network
// described by ep and returns the observations.
//
// It consumes rng. The outputs are those of drawing every value from rng in
// turn, but the simulation reads them in blocks: when rng's source is Go's
// math/rand generator (a recurrence the first 671 values are checked
// against), later values are computed from the recurrence rather than drawn;
// otherwise each block is pulled from rng. Either way it reads past its last
// draw, so rng's state afterwards is unspecified: a caller that needs more
// values after a simulation must use another generator.
func Simulate(ep *EdgeProbs, cfg Config, rng *rand.Rand) (*Result, error) {
	return SimulateContext(context.Background(), ep, cfg, rng)
}

// SimulateContext is Simulate under a context. The simulation itself is
// never cancelled: partial observation data is useless, even though at
// n=10⁵ simulating can cost more than inferring. The context only carries
// the observability recorder (see internal/obs), which tallies processes,
// infections and diffusion rounds and times the whole run, and the chaos
// injector.
// Results are identical to Simulate's for the same inputs, and rng is
// consumed as there.
//
// It is the zero-Scenario entry point of the scenario engine (see
// SimulateScenarioContext): independent cascade, unit exponential delays,
// clean observations — the RNG draw sequence is unchanged from before the
// engine existed, which the golden fixtures and the map-oracle test pin.
func SimulateContext(ctx context.Context, ep *EdgeProbs, cfg Config, rng *rand.Rand) (*Result, error) {
	sr, err := SimulateScenarioContext(ctx, ep, cfg, Scenario{}, rng)
	if err != nil {
		return nil, err
	}
	return sr.Result, nil
}

// simScratch holds the per-process working state of the process runners,
// allocated once per Simulate call and reused across its β cascades. Only
// the cascade trace itself (which escapes into the Result) is allocated per
// process.
type simScratch struct {
	src      *stream    // the run's random values; rng reads the same stream
	rng      *rand.Rand // rand.New(src)
	recips   []uint64   // recipTable(n), for permPrefix
	perm     []int      // seed buffer: the numSeeds-long prefix of the permutation
	infected []bool     // cleared after each process via the infection list
	times    []float64  // valid only for nodes infected in the current process
	// frontier and next grow by append and keep their capacity for the
	// next process: rounds are far smaller than n on sparse networks, and
	// an n-capacity pair costs 16n bytes per simulation.
	frontier []int
	next     []int
	state    []uint8   // S/I/R compartments; allocated only for SIR/SIS runs
	thresh   []float64 // LT node thresholds, redrawn every process; LT only
	accum    []float64 // LT accumulated in-weights, cleared per process; LT only
	ltFrom   []int32   // LT last frontier parent per node this round, −1 between rounds; LT only
	touched  []int     // LT nodes whose accumulator grew this round; LT only
}

func newSimScratch(src *stream, n, numSeeds int) *simScratch {
	return &simScratch{
		src:      src,
		rng:      rand.New(src),
		recips:   recipTable(n),
		perm:     make([]int, numSeeds),
		infected: make([]bool, n),
		times:    make([]float64, n),
		frontier: make([]int, 0, numSeeds),
		next:     make([]int, 0, numSeeds),
	}
}

// seeds draws the process's seeds: rng.Perm(n)[:numSeeds] with Perm's
// full draw sequence, so fixed-seed cascades are byte-identical to the
// allocating version.
func (sc *simScratch) seeds() []int {
	return permPrefix(sc.src, len(sc.infected), len(sc.perm), sc.recips, sc.perm)
}

// runProcess executes a single independent-cascade process.
func runProcess(ep *EdgeProbs, delay DelaySampler, sc *simScratch) Cascade {
	rng := sc.rng
	seeds := sc.seeds()
	infected, times := sc.infected, sc.times
	var cascade Cascade
	cascade.Seeds = append([]int(nil), seeds...)

	frontier, next := sc.frontier[:0], sc.next[:0]
	for _, s := range seeds {
		infected[s] = true
		times[s] = 0
		cascade.Infections = append(cascade.Infections, Infection{Node: s, Round: 0, Time: 0, Parent: -1})
		frontier = append(frontier, s)
	}
	round := 0
	for len(frontier) > 0 {
		round++
		next = next[:0]
		for _, u := range frontier {
			tu := times[u]
			// The innermost trial loop: CSR spans only, no map lookups.
			for k, end := int(ep.off[u]), int(ep.off[u+1]); k < end; k++ {
				v := int(ep.children[k])
				if infected[v] {
					continue
				}
				if rng.Float64() < ep.probs[k] {
					infected[v] = true
					// Continuous time: parent's time plus one transmission
					// delay — exponential by default, the model NetRate
					// assumes; see DelaySampler for the alternatives.
					t := tu + delay.Sample(rng)
					times[v] = t
					cascade.Infections = append(cascade.Infections, Infection{Node: v, Round: round, Time: t, Parent: u})
					next = append(next, v)
				}
			}
		}
		frontier, next = next, frontier
	}
	// Reset the infected marks for the next process; times needs no reset
	// because it is only read for nodes infected in the same process.
	for _, inf := range cascade.Infections {
		infected[inf.Node] = false
	}
	sc.frontier, sc.next = frontier, next
	return cascade
}
