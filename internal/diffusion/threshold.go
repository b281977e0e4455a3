package diffusion

import "slices"

// The Linear Threshold model (ModelLT) runs through SimulateScenario. TENDS's
// derivation assumes nothing about the diffusion mechanism beyond
// "infections are caused by parents", so LT observations exercise its
// robustness to model mismatch (Fig. 14).

// ltInWeights computes every edge's normalized weight, aligned with ep's
// CSR children: the propagation probabilities scaled per child so its
// in-weights sum to at most 1 (the standard LT normalization). The CSR
// lists parents in ascending order for every child, so each child's sum
// adds its parents' probabilities in that order. Built once per
// simulation, shared read-only across its β processes.
func ltInWeights(ep *EdgeProbs) []float64 {
	sum := make([]float64, len(ep.off)-1)
	for k, v := range ep.children {
		sum[v] += ep.probs[k]
	}
	weights := make([]float64, len(ep.children))
	for k, v := range ep.children {
		scale := 1.0
		if sum[v] > 1 {
			scale = 1 / sum[v]
		}
		weights[k] = ep.probs[k] * scale
	}
	return weights
}

// runLTProcess executes one Linear Threshold process in st, drawing the n
// thresholds before the seed permutation. The thresholds are overwritten,
// the infected marks and accumulators cleared every process and the parent
// marks every round, so st carries nothing from one process to the next.
func runLTProcess(ep *EdgeProbs, weights []float64, delay DelaySampler, st *simScratch) Cascade {
	rng := st.rng
	thresholds, infected, accum, times, from := st.thresh, st.infected, st.accum, st.times, st.ltFrom
	for v := range thresholds {
		thresholds[v] = rng.Float64()
	}
	var cascade Cascade
	seeds := st.seeds()
	cascade.Seeds = append([]int(nil), seeds...)
	frontier, next, touched := st.frontier[:0], st.next[:0], st.touched
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
		// children, in frontier order, so every accumulator adds its terms
		// in that order and from[v] ends as v's last frontier parent.
		touched = touched[:0]
		for _, u := range frontier {
			for k, end := int(ep.off[u]), int(ep.off[u+1]); k < end; k++ {
				v := ep.children[k]
				if w := weights[k]; !infected[v] && w > 0 {
					accum[v] += w
					if from[v] < 0 {
						touched = append(touched, int(v))
					}
					from[v] = int32(u)
				}
			}
		}
		// Fire the children whose accumulated weight crosses the threshold
		// in node order, so RNG consumption and trace order stay
		// deterministic.
		slices.Sort(touched)
		next = next[:0]
		for _, v := range touched {
			u := int(from[v])
			from[v] = -1
			if accum[v] >= thresholds[v] {
				infected[v] = true
				t := times[u] + delay.Sample(rng)
				times[v] = t
				cascade.Infections = append(cascade.Infections, Infection{Node: v, Round: round, Time: t, Parent: u})
				next = append(next, v)
			}
		}
		frontier, next = next, frontier
	}
	for _, inf := range cascade.Infections {
		infected[inf.Node] = false
	}
	clear(accum)
	st.frontier, st.next, st.touched = frontier, next, touched
	return cascade
}
