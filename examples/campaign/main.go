// Campaign planning: close the loop the paper's introduction sketches —
// observe past diffusions, reconstruct the network, then design the next
// campaign.
//
// The program never looks at the true network while planning: it infers the
// topology with TENDS from adoption snapshots, fits propagation
// probabilities with the noisy-OR estimator, and picks seeds by
// reverse-reachable-sketch influence maximization (influence.RISSeeds) on
// the *reconstructed* weighted network. The chosen seed set is then scored
// by Monte-Carlo simulation on the hidden true network against two
// baselines (random seeds and top-degree-on-true-network seeds), showing
// that a network learned from statuses alone is good enough to plan with.
// The prevention half immunizes users chosen by greedy immunization on the
// reconstruction and measures outbreaks on the true network with and
// without them.
//
//	go run ./examples/campaign
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"tends"
	"tends/internal/diffusion"
	"tends/internal/influence"
	"tends/internal/lfr"
)

const seedBudget = 5

func main() {
	// Hidden ground truth: a 150-user community network.
	res, err := lfr.Generate(lfr.Params{N: 150, AvgDegree: 4, DegreeExp: 2}, rand.New(rand.NewSource(17)))
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	truth := res.Graph
	trueProbs := diffusion.NewEdgeProbs(truth, 0.3, 0.05, rand.New(rand.NewSource(18)))

	// Step 1: observe 300 past campaigns (final adoption snapshots only).
	sim, err := diffusion.Simulate(trueProbs, diffusion.Config{Alpha: 0.1, Beta: 300}, rand.New(rand.NewSource(19)))
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}

	// Step 2: reconstruct the topology from the snapshots.
	inferred, err := tends.Infer(sim.Statuses, tends.Options{})
	if err != nil {
		log.Fatalf("infer: %v", err)
	}
	prf := tends.Score(truth, inferred.Graph)
	fmt.Printf("reconstructed topology: F=%.3f (%d inferred vs %d true links)\n",
		prf.F, inferred.Graph.NumEdges(), truth.NumEdges())

	// Step 3: fit propagation probabilities on the inferred topology.
	est, err := tends.EstimateProbabilities(sim.Statuses, inferred.Graph)
	if err != nil {
		log.Fatalf("estimate probabilities: %v", err)
	}
	inferredProbs, err := diffusion.EdgeProbsFromMap(inferred.Graph, clamp(est.Probs))
	if err != nil {
		log.Fatalf("weighted network: %v", err)
	}

	// Step 4: plan the next campaign on the reconstructed network.
	ctx := context.Background()
	plan, err := influence.RISSeeds(ctx, inferredProbs, influence.RISOptions{K: seedBudget, Seed: 20})
	if err != nil {
		log.Fatalf("seed selection: %v", err)
	}
	seeds := plan.Seeds

	// Step 5: evaluate every strategy on the hidden true network, all on
	// the same Monte-Carlo streams.
	eval := influence.SpreadOptions{Samples: 5000, Seed: 21}
	planned, err := influence.SpreadEst(ctx, trueProbs, seeds, eval)
	if err != nil {
		log.Fatal(err)
	}
	random := rand.New(rand.NewSource(22)).Perm(truth.NumNodes())[:seedBudget]
	randomSpread, err := influence.SpreadEst(ctx, trueProbs, random, eval)
	if err != nil {
		log.Fatal(err)
	}
	topDegree := topOutDegree(truth, seedBudget)
	degreeSpread, err := influence.SpreadEst(ctx, trueProbs, topDegree, eval)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nexpected adopters per strategy (%d seeds, true network):\n", seedBudget)
	fmt.Printf("  planned on inferred network: %6.1f  (seeds %v)\n", planned, seeds)
	fmt.Printf("  top-degree on TRUE network:  %6.1f  (an oracle baseline)\n", degreeSpread)
	fmt.Printf("  random seeds:                %6.1f\n", randomSpread)

	// The flip side: prevention. Pick users to immunize (suspend, vaccinate)
	// on the reconstructed network and measure outbreak shrinkage on the
	// true one: 100 draws of 15 random sources among the other users each
	// spread over the true network and over a copy with the immunized users
	// cut out.
	immunized, _, err := influence.GreedyImmunizeOpt(ctx, inferredProbs, influence.ImmunizeOptions{
		K: seedBudget, NumSeeds: 15, Samples: 200, Seed: 23,
	})
	if err != nil {
		log.Fatalf("greedy immunize: %v", err)
	}
	protectedProbs, free, err := withoutNodes(trueProbs, immunized)
	if err != nil {
		log.Fatal(err)
	}
	var baseline, protected float64
	draw := rand.New(rand.NewSource(24))
	for d := 0; d < 100; d++ {
		sources := make([]int, 15)
		for i, j := range draw.Perm(len(free))[:15] {
			sources[i] = free[j]
		}
		opt := influence.SpreadOptions{Samples: 30, Seed: int64(25 + d)}
		open, err1 := influence.SpreadEst(ctx, trueProbs, sources, opt)
		cut, err2 := influence.SpreadEst(ctx, protectedProbs, sources, opt)
		if err := errors.Join(err1, err2); err != nil {
			log.Fatal(err)
		}
		baseline += open / 100
		protected += cut / 100
	}
	fmt.Printf("\noutbreak containment (15 random sources, true network):\n")
	fmt.Printf("  no intervention:             %6.1f infected\n", baseline)
	fmt.Printf("  %d users immunized (planned): %6.1f infected\n", seedBudget, protected)
}

// withoutNodes returns a copy of the weighted network in which the dropped
// nodes have no edges — they can neither be infected nor transmit — and
// the nodes kept.
func withoutNodes(ep *diffusion.EdgeProbs, drop []int) (*diffusion.EdgeProbs, []int, error) {
	dropped := make(map[int]bool, len(drop))
	for _, v := range drop {
		dropped[v] = true
	}
	var kept []int
	for v := 0; v < ep.Graph().NumNodes(); v++ {
		if !dropped[v] {
			kept = append(kept, v)
		}
	}
	g := tends.NewGraph(ep.Graph().NumNodes())
	probs := make(map[tends.Edge]float64)
	for _, e := range ep.Graph().Edges() {
		if !dropped[e.From] && !dropped[e.To] {
			g.AddEdge(e.From, e.To)
			probs[e] = ep.Prob(e.From, e.To)
		}
	}
	cut, err := diffusion.EdgeProbsFromMap(g, probs)
	return cut, kept, err
}

// clamp nudges estimated probabilities into the open interval the simulator
// requires.
func clamp(probs map[tends.Edge]float64) map[tends.Edge]float64 {
	out := make(map[tends.Edge]float64, len(probs))
	for e, p := range probs {
		if p <= 0 {
			p = 1e-4
		}
		if p >= 1 {
			p = 1 - 1e-4
		}
		out[e] = p
	}
	return out
}

func topOutDegree(g *tends.Graph, k int) []int {
	nodes := make([]int, g.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	sort.Slice(nodes, func(a, b int) bool { return g.OutDegree(nodes[a]) > g.OutDegree(nodes[b]) })
	return nodes[:k]
}
