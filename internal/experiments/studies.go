package experiments

import (
	"fmt"
	"sort"

	"tends/internal/diffusion"
)

// Studies returns the ablation and extension studies beyond the paper's
// figures (DESIGN.md §6), keyed by name. Each is a Figure on the NetSci
// workload at the paper's defaults, run by RunContext like any figure. The
// ablations are one point whose algorithms are TENDS variants (see
// tendsVariants), so every variant of a study sees the same workload. The
// map is kept apart from Figures so that a full figure run stays Figs. 1–16.
func Studies() map[string]Figure {
	ablation := func(id, title string, algos ...Algorithm) Figure {
		return Figure{ID: id, Title: title, Algorithms: algos, Points: []Point{netSciPoint("default", diffusion.Scenario{})}}
	}
	timestamps := Figure{
		ID:         "timestamps",
		Title:      "Extension: Gaussian noise on infection timestamps on NetSci",
		Algorithms: []Algorithm{AlgoTENDS, AlgoMulTree, AlgoNetRate},
	}
	for _, sigma := range []float64{0, 0.5, 1, 2} {
		timestamps.Points = append(timestamps.Points,
			netSciPoint(fmt.Sprintf("sigma=%.1f", sigma), diffusion.Scenario{TimestampNoise: sigma}))
	}
	return map[string]Figure{
		"threshold": ablation("threshold", "Ablation: threshold selection on NetSci",
			AlgoTENDS, "TENDS-KM", "TENDS-KMN", "TENDS-FDR"),
		"greedy": ablation("greedy", "Ablation: greedy parent search on NetSci",
			AlgoTENDS, "TENDS-STAT", "TENDS-NOBD", "TENDS-C3", "TENDS-C1", "TENDS-BP"),
		"penalty": ablation("penalty", "Ablation: statistical-error penalty on NetSci",
			AlgoTENDS, "TENDS-BIC", "TENDS-NOPN"),
		"treemodel": ablation("treemodel", "Ablation: all trees (MulTree) vs best tree (NetInf) on NetSci",
			AlgoMulTree, AlgoNetInf),
		"timestamps": timestamps,
	}
}

// StudyNames returns the names of Studies in ascending order.
func StudyNames() []string {
	var names []string
	for name := range Studies() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// netSciPoint is one NetSci point at the paper's default μ, α and β.
func netSciPoint(label string, sc diffusion.Scenario) Point {
	return Point{Label: label, Workload: Workload{
		Network: netSciNetwork,
		Mu:      DefaultMu, Alpha: DefaultAlpha, Beta: DefaultBeta,
		Scenario: sc,
	}}
}
