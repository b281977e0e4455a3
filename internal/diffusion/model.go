package diffusion

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"tends/internal/chaos"
	"tends/internal/obs"
)

// Model names a diffusion mechanism the scenario engine can simulate. All
// models share the network layout (EdgeProbs CSR), the seed-selection
// protocol (⌈α·n⌉ uniform seeds via the same permutation draws), the
// bit-packed final-status output, and the continuous-time stamping of
// infections — they differ only in how infections spread between rounds.
type Model string

const (
	// ModelIC is the paper's independent-cascade process: every newly
	// infected node gets exactly one chance to infect each uninfected child.
	ModelIC Model = "ic"
	// ModelLT is the linear-threshold process: each node draws a threshold
	// θ_v ~ U(0, 1) per process and is infected in the round its infected
	// parents' normalized weights first reach θ_v (see ltInWeights).
	ModelLT Model = "lt"
	// ModelSIR adds recovery: an infectious node keeps attempting to infect
	// its children each round while it persists (see Scenario.Recovery) and
	// is permanently removed when it recovers.
	ModelSIR Model = "sir"
	// ModelSIS is SIR where a recovering node may return to susceptible
	// (see Scenario.Reinfection) and be infected again later.
	ModelSIS Model = "sis"
)

// Models lists the supported diffusion models in canonical order.
func Models() []Model {
	return []Model{ModelIC, ModelLT, ModelSIR, ModelSIS}
}

// ParseModel maps a CLI/config string to a Model. The empty string is the
// independent-cascade default.
func ParseModel(s string) (Model, error) {
	switch Model(s) {
	case "", ModelIC:
		return ModelIC, nil
	case ModelLT:
		return ModelLT, nil
	case ModelSIR:
		return ModelSIR, nil
	case ModelSIS:
		return ModelSIS, nil
	}
	return "", fmt.Errorf("diffusion: unknown model %q (have ic, lt, sir, sis)", s)
}

// DefaultSISMaxRounds caps SIS processes with reinfection enabled, which
// (unlike IC/LT/SIR) are not guaranteed to die out on their own.
const DefaultSISMaxRounds = 1000

// Scenario selects a diffusion model, a transmission-delay law, and an
// observation-dirtying stage, composable in any combination. The zero value
// is the repository's historical behavior — independent cascade with unit
// exponential delays and clean observations — byte-identical to Simulate.
type Scenario struct {
	// Model is the diffusion mechanism; empty means ModelIC.
	Model Model
	// Delay is the continuous transmission-delay law; empty means
	// DelayExponential. DelayParam is its shape parameter (0 = the law's
	// default, see NewDelaySampler).
	Delay      DelayModel
	DelayParam float64

	// Recovery is the per-round probability that an infectious SIR/SIS node
	// *persists* (defers recovery) for another round of infection attempts,
	// so the infectious period is 1 + Geometric(1-Recovery) rounds. It is
	// deliberately parameterized as persistence, not a textbook recovery
	// rate: Recovery = 0 gives exactly one attempt round per node, which
	// collapses SIR onto IC bit-for-bit — the differential anchor the model
	// suite verifies. Must be in [0, 1); 1 would never terminate.
	Recovery float64
	// Reinfection is the probability that a recovering SIS node returns to
	// susceptible instead of being removed, in [0, 1]. Reinfection = 0
	// collapses SIS onto SIR bit-for-bit. Reinfected nodes do not add trace
	// entries (the cascade records first infections); they are tallied on
	// ScenarioResult.Reinfections and the diffusion/model/sis/reinfections
	// counter.
	Reinfection float64
	// MaxRounds caps the number of diffusion rounds per process; 0 means
	// unlimited, except for SIS with Reinfection > 0 where it defaults to
	// DefaultSISMaxRounds because such processes need not die out.
	MaxRounds int

	// Missing masks each (process, node) observation as unreported with
	// this rate; Uncertain replaces each surviving observation with a
	// probabilistic report at this rate (see Missing and Uncertain). Both
	// in [0, 1]; rate 0 consumes no RNG draws and changes nothing. When
	// both are set, Uncertain applies first (sensor noise happens at the
	// observer) and Missing second: missingness always wins.
	Missing   float64
	Uncertain float64
	// TimestampNoise is the standard deviation of the Gaussian noise the
	// last dirty stage adds to every non-seed infection time (see
	// PerturbTimestamps): observed onsets that do not reflect the true
	// infection times. Statuses are untouched. 0 consumes no RNG draws.
	TimestampNoise float64
}

// Normalized returns sc with empty model/delay resolved to their defaults
// and the SIS round cap applied, so consumers can switch on exact values.
func (sc Scenario) Normalized() Scenario {
	if sc.Model == "" {
		sc.Model = ModelIC
	}
	if sc.Delay == "" {
		sc.Delay = DelayExponential
	}
	if sc.MaxRounds == 0 && sc.Model == ModelSIS && sc.Reinfection > 0 {
		sc.MaxRounds = DefaultSISMaxRounds
	}
	return sc
}

// Validate rejects unknown models/delays, out-of-range rates, and model
// knobs applied to models that do not have them.
func (sc Scenario) Validate() error {
	sc = sc.Normalized()
	switch sc.Model {
	case ModelIC, ModelLT, ModelSIR, ModelSIS:
	default:
		return fmt.Errorf("diffusion: unknown model %q (have ic, lt, sir, sis)", sc.Model)
	}
	if _, err := NewDelaySampler(sc.Delay, sc.DelayParam); err != nil {
		return err
	}
	if sc.Recovery < 0 || sc.Recovery >= 1 || math.IsNaN(sc.Recovery) {
		return fmt.Errorf("diffusion: recovery %v outside [0,1)", sc.Recovery)
	}
	if sc.Recovery > 0 && sc.Model != ModelSIR && sc.Model != ModelSIS {
		return fmt.Errorf("diffusion: recovery requires model sir or sis, not %q", sc.Model)
	}
	if sc.Reinfection < 0 || sc.Reinfection > 1 || math.IsNaN(sc.Reinfection) {
		return fmt.Errorf("diffusion: reinfection %v outside [0,1]", sc.Reinfection)
	}
	if sc.Reinfection > 0 && sc.Model != ModelSIS {
		return fmt.Errorf("diffusion: reinfection requires model sis, not %q", sc.Model)
	}
	if sc.MaxRounds < 0 {
		return fmt.Errorf("diffusion: max rounds %d must be non-negative", sc.MaxRounds)
	}
	if sc.Missing < 0 || sc.Missing > 1 || math.IsNaN(sc.Missing) {
		return fmt.Errorf("diffusion: missing rate %v outside [0,1]", sc.Missing)
	}
	if sc.Uncertain < 0 || sc.Uncertain > 1 || math.IsNaN(sc.Uncertain) {
		return fmt.Errorf("diffusion: uncertain rate %v outside [0,1]", sc.Uncertain)
	}
	if sc.TimestampNoise < 0 || math.IsNaN(sc.TimestampNoise) || math.IsInf(sc.TimestampNoise, 1) {
		return fmt.Errorf("diffusion: timestamp noise %v must be finite and non-negative", sc.TimestampNoise)
	}
	return nil
}

// ScenarioResult is a simulation Result plus the scenario's observation
// side channels. Result reflects what the observer reports after the dirty
// stages: masked cells are cleared from Statuses and dropped from Cascades,
// uncertain cells are binarized at report probability 0.5, and non-seed
// infection times carry the timestamp noise.
type ScenarioResult struct {
	*Result
	// MissingMask marks the (process, node) cells masked as unreported;
	// nil when Scenario.Missing is 0.
	MissingMask *StatusMatrix
	// Probs holds the probabilistic reports of the uncertain stage, row
	// major (process·n + node): certainly-infected cells are 1, certainly
	// uninfected 0, uncertain cells strictly inside (see Uncertain). Nil
	// when Scenario.Uncertain is 0.
	Probs []float64
	// Reinfections counts SIS nodes that were infected again after
	// returning to susceptible (not represented in Cascades, which record
	// first infections only).
	Reinfections int
}

// SimulateScenario runs cfg.Beta diffusion processes under the scenario's
// model and delay law, then applies its dirty-observation stages. With the
// zero Scenario it is Simulate exactly — same RNG draw sequence, same
// bytes out. It consumes rng: the simulation reads rng's values in blocks
// (see Simulate), and rng's state afterwards is unspecified.
func SimulateScenario(ep *EdgeProbs, cfg Config, sc Scenario, rng *rand.Rand) (*ScenarioResult, error) {
	return SimulateScenarioContext(context.Background(), ep, cfg, sc, rng)
}

// SimulateScenarioContext is SimulateScenario under a context carrying the
// observability recorder and chaos injector (shared with SimulateContext:
// the chaos site fires once per simulation regardless of entry point).
// The counter diffusion/rng/fallback adds 1 when rng's source failed the
// check for Go's generator, so every value was pulled from rng (see
// Simulate).
func SimulateScenarioContext(ctx context.Context, ep *EdgeProbs, cfg Config, sc Scenario, rng *rand.Rand) (*ScenarioResult, error) {
	fallback := obs.From(ctx).Counter("diffusion/rng/fallback")
	s := newStream(rng)
	out, err := simulateStream(ctx, ep, cfg, sc, s)
	if s.fallback {
		fallback.Inc()
	}
	return out, err
}

// simulateStream is SimulateScenarioContext drawing from s, which it leaves
// positioned after the run's last draw.
func simulateStream(ctx context.Context, ep *EdgeProbs, cfg Config, sc Scenario, s *stream) (*ScenarioResult, error) {
	sc = sc.Normalized()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := chaos.Maybe(ctx, chaos.SiteSimulate); err != nil {
		return nil, err
	}
	rec := obs.From(ctx)
	defer rec.StartSpan("diffusion/simulate").End()
	procC := rec.Counter("diffusion/processes")
	infC := rec.Counter("diffusion/infections")
	roundC := rec.Counter("diffusion/rounds")
	modelC := rec.Counter("diffusion/model/" + string(sc.Model) + "/processes")
	n := ep.g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("diffusion: empty network")
	}
	if cfg.Beta <= 0 {
		return nil, fmt.Errorf("diffusion: Beta must be positive, got %d", cfg.Beta)
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("diffusion: Alpha %v outside (0,1]", cfg.Alpha)
	}
	delay, err := NewDelaySampler(sc.Delay, sc.DelayParam)
	if err != nil {
		return nil, err
	}
	numSeeds := int(cfg.Alpha*float64(n) + 0.5)
	if numSeeds < 1 {
		numSeeds = 1
	}
	if numSeeds > n {
		numSeeds = n
	}
	res := &Result{
		N:        n,
		Statuses: NewStatusMatrix(cfg.Beta, n),
		Cascades: make([]Cascade, cfg.Beta),
	}
	st := newSimScratch(s, n, numSeeds)
	var ltWeights []float64
	switch sc.Model {
	case ModelLT:
		ltWeights = ltInWeights(ep)
		st.thresh, st.accum, st.ltFrom = make([]float64, n), make([]float64, n), make([]int32, n)
		for v := range st.ltFrom {
			st.ltFrom[v] = -1
		}
	case ModelSIR, ModelSIS:
		st.state = make([]uint8, n)
	}
	var reinf int64
	for proc := 0; proc < cfg.Beta; proc++ {
		var cascade Cascade
		switch sc.Model {
		case ModelIC:
			cascade = runProcess(ep, delay, st)
		case ModelLT:
			cascade = runLTProcess(ep, ltWeights, delay, st)
		default:
			cascade = runSIRProcess(ep, sc, sc.Model == ModelSIS, delay, st, &reinf)
		}
		res.Cascades[proc] = cascade
		for _, inf := range cascade.Infections {
			res.Statuses.Set(proc, inf.Node, true)
		}
		procC.Inc()
		modelC.Inc()
		infC.Add(int64(len(cascade.Infections)))
		// Infections are appended in round order, so the last one carries
		// the process's final round.
		if len(cascade.Infections) > 0 {
			roundC.Add(int64(cascade.Infections[len(cascade.Infections)-1].Round))
		}
	}
	if reinf > 0 {
		rec.Counter("diffusion/model/sis/reinfections").Add(reinf)
	}
	out := &ScenarioResult{Result: res, Reinfections: int(reinf)}
	// Dirty stages: Uncertain first (sensor noise happens at the observer),
	// then Missing (an unreported cell stays unreported — missingness wins),
	// then TimestampNoise on the surviving trace.
	if sc.Uncertain > 0 {
		dirtied, probs, cells, err := uncertain(out.Result, sc.Uncertain, st.rng)
		if err != nil {
			return nil, err
		}
		out.Result, out.Probs = dirtied, probs
		rec.Counter("diffusion/dirty/uncertain_cells").Add(int64(cells))
	}
	if sc.Missing > 0 {
		dirtied, mask, cells, err := missing(out.Result, sc.Missing, st.rng)
		if err != nil {
			return nil, err
		}
		out.Result, out.MissingMask = dirtied, mask
		rec.Counter("diffusion/dirty/missing_cells").Add(int64(cells))
	}
	if sc.TimestampNoise > 0 {
		if out.Result, err = PerturbTimestamps(out.Result, sc.TimestampNoise, st.rng); err != nil {
			return nil, err
		}
	}
	return out, nil
}
