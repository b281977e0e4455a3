package diffusion

import "sort"

// The Linear Threshold model (ModelLT) runs through SimulateScenario. TENDS's
// derivation assumes nothing about the diffusion mechanism beyond
// "infections are caused by parents", so LT observations exercise its
// robustness to model mismatch (Fig. 14).

// ltInWeights computes each node's normalized in-weights: the propagation
// probabilities of ep scaled per node so in-weights sum to at most 1 (the
// standard LT normalization). Built once per simulation, shared read-only
// across its β processes.
func ltInWeights(ep *EdgeProbs) []map[int]float64 {
	g := ep.Graph()
	n := g.NumNodes()
	weights := make([]map[int]float64, n)
	for v := 0; v < n; v++ {
		parents := g.Parents(v)
		if len(parents) == 0 {
			continue
		}
		var sum float64
		for _, u := range parents {
			sum += ep.Prob(u, v)
		}
		scale := 1.0
		if sum > 1 {
			scale = 1 / sum
		}
		w := make(map[int]float64, len(parents))
		for _, u := range parents {
			w[u] = ep.Prob(u, v) * scale
		}
		weights[v] = w
	}
	return weights
}

// runLTProcess executes one Linear Threshold process in st, drawing the n
// thresholds before the seed permutation. The thresholds are overwritten and
// the infected marks and accumulators cleared every process, so st carries
// nothing from one process to the next.
func runLTProcess(weights []map[int]float64, delay DelaySampler, st *simScratch) Cascade {
	n, rng := len(st.infected), st.rng
	thresholds, infected, accum, times := st.thresh, st.infected, st.accum, st.times
	for v := range thresholds {
		thresholds[v] = rng.Float64()
	}
	var cascade Cascade
	seeds := st.seeds()
	cascade.Seeds = append([]int(nil), seeds...)
	frontier := make([]int, 0, len(seeds))
	for _, s := range seeds {
		infected[s] = true
		times[s] = 0
		cascade.Infections = append(cascade.Infections, Infection{Node: s, Round: 0, Time: 0, Parent: -1})
		frontier = append(frontier, s)
	}
	round := 0
	for len(frontier) > 0 {
		round++
		// Fold the newly infected nodes' weights into their uninfected
		// children and fire the ones whose accumulated weight crosses the
		// threshold.
		touched := make(map[int]int) // child -> one infecting parent this round
		for v := 0; v < n; v++ {
			if infected[v] || weights[v] == nil {
				continue
			}
			for _, u := range frontier {
				if w, ok := weights[v][u]; ok && w > 0 {
					accum[v] += w
					touched[v] = u
				}
			}
		}
		// Fire in node order so RNG consumption and trace order stay
		// deterministic (map iteration order must not leak into either).
		candidates := make([]int, 0, len(touched))
		for v := range touched {
			candidates = append(candidates, v)
		}
		sort.Ints(candidates)
		var next []int
		for _, v := range candidates {
			if accum[v] >= thresholds[v] {
				u := touched[v]
				infected[v] = true
				t := times[u] + delay.Sample(rng)
				times[v] = t
				cascade.Infections = append(cascade.Infections, Infection{Node: v, Round: round, Time: t, Parent: u})
				next = append(next, v)
			}
		}
		frontier = next
	}
	for _, inf := range cascade.Infections {
		infected[inf.Node] = false
	}
	clear(accum)
	return cascade
}
