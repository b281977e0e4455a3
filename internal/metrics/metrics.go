// Package metrics implements the evaluation criteria of the paper's
// Section V-A: precision, recall and F-score of inferred directed edges
// against a ground-truth network, plus the best-F threshold sweep the paper
// uses to give weighted predictors (NetRate) preferential treatment.
package metrics

import (
	"sort"

	"tends/internal/graph"
)

// PRF bundles precision, recall and their harmonic mean.
type PRF struct {
	Precision, Recall, F float64
	TP, FP, FN           int
}

// Score compares the inferred edge set against the truth. An edge counts as
// a true positive only with matching direction. The two graphs must have the
// same node count; Score panics on an inferred edge outside the truth's node
// range, so callers reading graphs from files check the counts first.
func Score(truth, inferred *graph.Directed) PRF {
	var r PRF
	for _, e := range inferred.Edges() {
		if truth.HasEdge(e.From, e.To) {
			r.TP++
		} else {
			r.FP++
		}
	}
	r.FN = truth.NumEdges() - r.TP
	r.fill()
	return r
}

// ScoreEdges is Score for a plain edge list.
func ScoreEdges(truth *graph.Directed, inferred []graph.Edge) PRF {
	var r PRF
	seen := make(map[graph.Edge]struct{}, len(inferred))
	for _, e := range inferred {
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		if truth.HasEdge(e.From, e.To) {
			r.TP++
		} else {
			r.FP++
		}
	}
	r.FN = truth.NumEdges() - r.TP
	r.fill()
	return r
}

func (r *PRF) fill() {
	if r.TP+r.FP > 0 {
		r.Precision = float64(r.TP) / float64(r.TP+r.FP)
	}
	if r.TP+r.FN > 0 {
		r.Recall = float64(r.TP) / float64(r.TP+r.FN)
	}
	if r.Precision+r.Recall > 0 {
		r.F = 2 * r.Precision * r.Recall / (r.Precision + r.Recall)
	}
}

// WeightedEdge is an edge with a confidence weight, as produced by
// algorithms that infer transmission rates rather than a hard edge set.
type WeightedEdge struct {
	graph.Edge
	Weight float64
}

// BestF sweeps thresholds over the distinct weights of the predictions and
// returns the highest F-score achievable by keeping edges with weight
// strictly above a threshold, together with that threshold. An edge listed
// more than once counts once, at its strongest weight. This is the
// "preferential treatment" the paper gives NetRate in accuracy comparisons.
func BestF(truth *graph.Directed, predictions []WeightedEdge) (best PRF, threshold float64) {
	if len(predictions) == 0 {
		return PRF{FN: truth.NumEdges()}, 0
	}
	sorted := append([]WeightedEdge(nil), predictions...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Weight > sorted[j].Weight })

	// Walk predictions from strongest to weakest, maintaining running
	// TP/FP over each edge's first occurrence. At each distinct weight
	// boundary, evaluate F for "keep everything seen so far".
	seen := make(map[graph.Edge]struct{}, len(sorted))
	tp, fp := 0, 0
	m := truth.NumEdges()
	bestF := -1.0
	for i := 0; i < len(sorted); {
		w := sorted[i].Weight
		for ; i < len(sorted) && sorted[i].Weight == w; i++ {
			e := sorted[i].Edge
			if _, dup := seen[e]; dup {
				continue
			}
			seen[e] = struct{}{}
			if truth.HasEdge(e.From, e.To) {
				tp++
			} else {
				fp++
			}
		}
		cur := PRF{TP: tp, FP: fp, FN: m - tp}
		cur.fill()
		if cur.F > bestF {
			bestF = cur.F
			best = cur
			switch {
			case i < len(sorted):
				threshold = (w + sorted[i].Weight) / 2
			case w > 0:
				threshold = w / 2
			default:
				// Keep-everything with a weakest weight ≤ 0: w/2 would not
				// be strictly below w, silently dropping the last tie group.
				threshold = w - 1
			}
		}
	}
	return best, threshold
}

// TopK keeps the k highest-weight predictions (ties broken by edge order)
// and scores them; algorithms like MulTree and LIFT that require the true
// edge count are evaluated this way.
func TopK(truth *graph.Directed, predictions []WeightedEdge, k int) PRF {
	sorted := append([]WeightedEdge(nil), predictions...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Weight > sorted[j].Weight })
	if k > len(sorted) {
		k = len(sorted)
	}
	edges := make([]graph.Edge, 0, k)
	for _, we := range sorted[:k] {
		edges = append(edges, we.Edge)
	}
	return ScoreEdges(truth, edges)
}
