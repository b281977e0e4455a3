package experiments

import (
	"fmt"

	"tends/internal/diffusion"
)

// ScenarioAlgorithms is the comparison set of the scenario-robustness
// figures (Figs. 12–15). MulTree is dropped from the default set: the
// robustness sweeps multiply points by models/rates and MulTree dominates
// the runtime without changing the story.
var ScenarioAlgorithms = []Algorithm{AlgoTENDS, AlgoNetRate, AlgoLIFT}

// Fig12Missing — F vs missing-observation rate on NetSci: every status
// cell is erased independently with the swept probability after the
// diffusion completes (diffusion.Missing).
func Fig12Missing() Figure {
	fig := Figure{
		ID:            "Fig12",
		Title:         "Effect of Missing Observations on NetSci",
		Algorithms:    ScenarioAlgorithms,
		ScenarioSweep: "missing",
	}
	for _, rate := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
		fig.Points = append(fig.Points, netSciPoint(fmt.Sprintf("miss=%.1f", rate), diffusion.Scenario{Missing: rate}))
	}
	return fig
}

// Fig13Uncertain — F vs uncertain-observation rate on NetSci: the swept
// fraction of status cells is replaced by a probabilistic report and
// re-binarized (diffusion.Uncertain).
func Fig13Uncertain() Figure {
	fig := Figure{
		ID:            "Fig13",
		Title:         "Effect of Uncertain Observations on NetSci",
		Algorithms:    ScenarioAlgorithms,
		ScenarioSweep: "uncertain",
	}
	for _, rate := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
		fig.Points = append(fig.Points, netSciPoint(fmt.Sprintf("unc=%.1f", rate), diffusion.Scenario{Uncertain: rate}))
	}
	return fig
}

// Fig14Models — per-model robustness on NetSci: the same network and
// observation budget under IC, LT, SIR (recovery 0.5) and SIS (recovery
// 0.5, reinfection 0.3) dynamics.
func Fig14Models() Figure {
	fig := Figure{
		ID:            "Fig14",
		Title:         "Robustness Across Diffusion Models on NetSci",
		Algorithms:    ScenarioAlgorithms,
		ScenarioSweep: "model",
	}
	scenarios := []diffusion.Scenario{
		{Model: diffusion.ModelIC},
		{Model: diffusion.ModelLT},
		{Model: diffusion.ModelSIR, Recovery: 0.5},
		{Model: diffusion.ModelSIS, Recovery: 0.5, Reinfection: 0.3},
	}
	for _, sc := range scenarios {
		fig.Points = append(fig.Points, netSciPoint(string(sc.Model), sc))
	}
	return fig
}

// Fig15Delays — effect of the continuous-time transmission-delay law on
// NetSci: exponential, power-law and Rayleigh delays at their default
// parameters. NetRate runs with the matching likelihood at each point.
func Fig15Delays() Figure {
	fig := Figure{
		ID:            "Fig15",
		Title:         "Effect of Transmission Delay Law on NetSci",
		Algorithms:    ScenarioAlgorithms,
		ScenarioSweep: "delay",
	}
	for _, law := range diffusion.DelayModels() {
		fig.Points = append(fig.Points, netSciPoint(string(law), diffusion.Scenario{Delay: law}))
	}
	return fig
}

// ScenarioOverride carries CLI scenario flags onto a figure's points.
// String fields: empty means keep the point's value. Float fields: a
// negative value means keep (so 0, a meaningful rate, stays expressible).
type ScenarioOverride struct {
	Model      string
	Delay      string
	DelayParam float64
	Recovery   float64
	Reinfect   float64
	Missing    float64
	Uncertain  float64
}

// IsZero reports whether the override changes nothing.
func (o ScenarioOverride) IsZero() bool {
	return o.Model == "" && o.Delay == "" && o.DelayParam < 0 &&
		o.Recovery < 0 && o.Reinfect < 0 && o.Missing < 0 && o.Uncertain < 0
}

// ApplyScenario returns fig with the override applied to every point's
// workload scenario. The dimension the figure itself sweeps
// (fig.ScenarioSweep) is left untouched, so overriding e.g. the model does
// not flatten Fig. 12's missing-rate axis. Recovery applies only to points
// whose (post-override) model is SIR or SIS, and reinfection only to SIS
// points — the parameters do not exist elsewhere. Every resulting scenario
// is validated, so a bad flag combination fails here rather than mid-sweep.
func ApplyScenario(fig Figure, ov ScenarioOverride) (Figure, error) {
	if ov.IsZero() {
		return fig, nil
	}
	if ov.Model != "" {
		if _, err := diffusion.ParseModel(ov.Model); err != nil {
			return fig, err
		}
	}
	if ov.Delay != "" {
		if _, err := diffusion.ParseDelayModel(ov.Delay); err != nil {
			return fig, err
		}
	}
	points := make([]Point, len(fig.Points))
	copy(points, fig.Points)
	fig.Points = points
	for i := range fig.Points {
		sc := &fig.Points[i].Workload.Scenario
		if ov.Model != "" && fig.ScenarioSweep != "model" {
			sc.Model = diffusion.Model(ov.Model)
		}
		if fig.ScenarioSweep != "delay" {
			if ov.Delay != "" {
				sc.Delay = diffusion.DelayModel(ov.Delay)
			}
			if ov.DelayParam >= 0 {
				sc.DelayParam = ov.DelayParam
			}
		}
		model := sc.Normalized().Model
		if ov.Recovery >= 0 && (model == diffusion.ModelSIR || model == diffusion.ModelSIS) {
			sc.Recovery = ov.Recovery
		}
		if ov.Reinfect >= 0 && model == diffusion.ModelSIS {
			sc.Reinfection = ov.Reinfect
		}
		if ov.Missing >= 0 && fig.ScenarioSweep != "missing" {
			sc.Missing = ov.Missing
		}
		if ov.Uncertain >= 0 && fig.ScenarioSweep != "uncertain" {
			sc.Uncertain = ov.Uncertain
		}
		if err := sc.Validate(); err != nil {
			return fig, fmt.Errorf("%s %s: %w", fig.ID, fig.Points[i].Label, err)
		}
	}
	return fig, nil
}
