package diffusion

import (
	"math"
	"math/rand"
	"testing"

	"tends/internal/graph"
)

// scenarioNetwork builds a fixed mid-density network with Gaussian edge
// probabilities for the differential suite.
func scenarioNetwork(t *testing.T, netSeed, probSeed int64) *EdgeProbs {
	t.Helper()
	g := graph.GNM(60, 300, rand.New(rand.NewSource(netSeed)))
	return NewEdgeProbs(g, 0.3, 0.05, rand.New(rand.NewSource(probSeed)))
}

// requireSameResult asserts two results are byte-identical: statuses,
// seeds, full traces, and bit-exact timestamps.
func requireSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.N != want.N || len(got.Cascades) != len(want.Cascades) {
		t.Fatalf("shape mismatch: N=%d/%d cascades=%d/%d", got.N, want.N, len(got.Cascades), len(want.Cascades))
	}
	for p := range want.Cascades {
		for v := 0; v < want.N; v++ {
			if got.Statuses.Get(p, v) != want.Statuses.Get(p, v) {
				t.Fatalf("status (%d,%d) differs", p, v)
			}
		}
		gc, wc := got.Cascades[p], want.Cascades[p]
		if len(gc.Seeds) != len(wc.Seeds) || len(gc.Infections) != len(wc.Infections) {
			t.Fatalf("process %d: trace shape differs: %d/%d seeds, %d/%d infections",
				p, len(gc.Seeds), len(wc.Seeds), len(gc.Infections), len(wc.Infections))
		}
		for k := range gc.Seeds {
			if gc.Seeds[k] != wc.Seeds[k] {
				t.Fatalf("process %d: seed %d differs: %d vs %d", p, k, gc.Seeds[k], wc.Seeds[k])
			}
		}
		for k := range gc.Infections {
			gi, wi := gc.Infections[k], wc.Infections[k]
			if gi.Node != wi.Node || gi.Round != wi.Round || gi.Parent != wi.Parent {
				t.Fatalf("process %d infection %d differs: %+v vs %+v", p, k, gi, wi)
			}
			if math.Float64bits(gi.Time) != math.Float64bits(wi.Time) {
				t.Fatalf("process %d infection %d: time %v vs %v", p, k, gi.Time, wi.Time)
			}
		}
	}
}

// TestScenarioZeroMatchesSimulate: the zero Scenario is the legacy IC
// simulator exactly — same draws, same bytes.
func TestScenarioZeroMatchesSimulate(t *testing.T) {
	cfg := Config{Alpha: 0.15, Beta: 40}
	ep := scenarioNetwork(t, 1, 2)
	want, err := Simulate(ep, cfg, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scenario{{}, {Model: ModelIC}, {Model: ModelIC, Delay: DelayExponential}} {
		got, err := SimulateScenario(ep, cfg, sc, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, got.Result, want)
		if got.MissingMask != nil || got.Probs != nil || got.Reinfections != 0 {
			t.Fatalf("clean scenario produced dirty side channels: %+v", got)
		}
	}
}

// TestSIRZeroRecoveryMatchesIC is the suite's anchor: SIR with Recovery=0
// gives every infectious node exactly one attempt round, which is the
// independent-cascade semantics — statuses AND traces must be bit-for-bit
// identical, proving the SIR loop consumes the same RNG draws in the same
// order as the IC loop.
func TestSIRZeroRecoveryMatchesIC(t *testing.T) {
	cfg := Config{Alpha: 0.1, Beta: 50}
	for _, seed := range []int64{7, 42, 1234} {
		ep := scenarioNetwork(t, seed, seed+1)
		want, err := Simulate(ep, cfg, rand.New(rand.NewSource(seed*31)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := SimulateScenario(ep, cfg, Scenario{Model: ModelSIR}, rand.New(rand.NewSource(seed*31)))
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, got.Result, want)
	}
}

// TestSISZeroReinfectionMatchesSIR: with Reinfection=0 a recovering SIS
// node is removed exactly like in SIR, and no reinfection coin is drawn,
// so SIS collapses onto SIR draw-for-draw at any recovery level.
func TestSISZeroReinfectionMatchesSIR(t *testing.T) {
	cfg := Config{Alpha: 0.1, Beta: 40}
	for _, recovery := range []float64{0, 0.3, 0.7} {
		ep := scenarioNetwork(t, 11, 12)
		want, err := SimulateScenario(ep, cfg, Scenario{Model: ModelSIR, Recovery: recovery}, rand.New(rand.NewSource(55)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := SimulateScenario(ep, cfg, Scenario{Model: ModelSIS, Recovery: recovery}, rand.New(rand.NewSource(55)))
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, got.Result, want.Result)
		if got.Reinfections != 0 {
			t.Fatalf("SIS without reinfection counted %d reinfections", got.Reinfections)
		}
	}
}

// TestLTScenarioMatchesSimulateLT: the LT model routed through the
// scenario engine (scratch reuse, prefix-only seed draw) reproduces the
// direct transcription of the model in simulateLT, draw for draw.
func TestLTScenarioMatchesSimulateLT(t *testing.T) {
	cfg := Config{Alpha: 0.15, Beta: 30}
	ep := scenarioNetwork(t, 21, 22)
	want := simulateLT(ep, cfg, rand.New(rand.NewSource(77)))
	got, err := SimulateScenario(ep, cfg, Scenario{Model: ModelLT}, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got.Result, want)
}

// simulateLT is a reference Linear Threshold simulator with no shared
// scratch: per process it draws n thresholds θ_v ~ U(0, 1), then the seeds
// as rng.Perm(n)[:k]; each round every uninfected node adds the normalized
// weights of its parents on the frontier (in frontier order) and, in node
// order, fires once its sum reaches θ_v, stamped with its last such
// parent's time plus a unit exponential delay.
func simulateLT(ep *EdgeProbs, cfg Config, rng *rand.Rand) *Result {
	g := ep.Graph()
	n := g.NumNodes()
	k := min(max(int(cfg.Alpha*float64(n)+0.5), 1), n)
	scale := make([]float64, n)
	for v := range scale {
		sum := 0.0
		for _, u := range g.Parents(v) {
			sum += ep.Prob(u, v)
		}
		scale[v] = 1 / max(sum, 1)
	}
	res := &Result{N: n, Statuses: NewStatusMatrix(cfg.Beta, n), Cascades: make([]Cascade, cfg.Beta)}
	for p := range res.Cascades {
		theta := make([]float64, n)
		for v := range theta {
			theta[v] = rng.Float64()
		}
		infected := make([]bool, n)
		times := make([]float64, n)
		accum := make([]float64, n)
		c := &res.Cascades[p]
		c.Seeds = rng.Perm(n)[:k]
		frontier := append([]int(nil), c.Seeds...)
		for _, s := range c.Seeds {
			infected[s] = true
			c.Infections = append(c.Infections, Infection{Node: s, Parent: -1})
		}
		for round := 1; len(frontier) > 0; round++ {
			var next []int
			from := make([]int, n)
			for v := 0; v < n; v++ {
				from[v] = -1
				if infected[v] {
					continue
				}
				for _, u := range frontier {
					if g.HasEdge(u, v) && ep.Prob(u, v) > 0 {
						accum[v] += ep.Prob(u, v) * scale[v]
						from[v] = u
					}
				}
			}
			for v := 0; v < n; v++ {
				if u := from[v]; u >= 0 && accum[v] >= theta[v] {
					infected[v] = true
					times[v] = times[u] + rng.ExpFloat64()
					c.Infections = append(c.Infections, Infection{Node: v, Round: round, Time: times[v], Parent: u})
					next = append(next, v)
				}
			}
			frontier = next
		}
		for _, inf := range c.Infections {
			res.Statuses.Set(p, inf.Node, true)
		}
	}
	return res
}

// TestSIRRecoveredStaysRecovered: in SIR a node is infected at most once —
// no node appears twice in a trace, seeds included, and the engine counts
// zero reinfections at any recovery level.
func TestSIRRecoveredStaysRecovered(t *testing.T) {
	cfg := Config{Alpha: 0.1, Beta: 60}
	for _, recovery := range []float64{0, 0.4, 0.8} {
		ep := scenarioNetwork(t, 31, 32)
		res, err := SimulateScenario(ep, cfg, Scenario{Model: ModelSIR, Recovery: recovery}, rand.New(rand.NewSource(66)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Reinfections != 0 {
			t.Fatalf("recovery=%v: SIR counted %d reinfections", recovery, res.Reinfections)
		}
		for p, c := range res.Cascades {
			seen := make(map[int]bool)
			for _, inf := range c.Infections {
				if seen[inf.Node] {
					t.Fatalf("recovery=%v process %d: node %d infected twice", recovery, p, inf.Node)
				}
				seen[inf.Node] = true
				if !res.Statuses.Get(p, inf.Node) {
					t.Fatalf("recovery=%v process %d: trace node %d missing from statuses", recovery, p, inf.Node)
				}
			}
		}
	}
}

// TestSIRInfectionMonotoneInRecovery: a longer infectious period (higher
// persistence) can only add infection attempts, so total infections across
// a fixed workload grow with the recovery knob. The runs use independent
// RNG streams, so the comparison is aggregate (β=80 processes), not
// per-process.
func TestSIRInfectionMonotoneInRecovery(t *testing.T) {
	cfg := Config{Alpha: 0.1, Beta: 80}
	ep := scenarioNetwork(t, 41, 42)
	total := func(recovery float64) int {
		res, err := SimulateScenario(ep, cfg, Scenario{Model: ModelSIR, Recovery: recovery}, rand.New(rand.NewSource(88)))
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, c := range res.Cascades {
			sum += len(c.Infections)
		}
		return sum
	}
	lo, mid, hi := total(0), total(0.5), total(0.9)
	if !(lo < mid && mid < hi) {
		t.Fatalf("infections not monotone in recovery: %d (0) vs %d (0.5) vs %d (0.9)", lo, mid, hi)
	}
}

// TestSISReinfectionOccursAndTerminates: with reinfection enabled on a
// dense-enough network, nodes do get infected again (the counter and the
// result field agree), traces still record first infections only, and the
// default round cap keeps the process finite.
func TestSISReinfectionOccursAndTerminates(t *testing.T) {
	g := graph.GNM(30, 400, rand.New(rand.NewSource(51)))
	ep := NewEdgeProbs(g, 0.4, 0.05, rand.New(rand.NewSource(52)))
	sc := Scenario{Model: ModelSIS, Recovery: 0.2, Reinfection: 0.9}
	res, err := SimulateScenario(ep, Config{Alpha: 0.1, Beta: 20}, sc, rand.New(rand.NewSource(53)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reinfections == 0 {
		t.Fatal("expected reinfections on a dense network with reinfection=0.9")
	}
	for p, c := range res.Cascades {
		seen := make(map[int]bool)
		for _, inf := range c.Infections {
			if seen[inf.Node] {
				t.Fatalf("process %d: node %d has two trace entries", p, inf.Node)
			}
			seen[inf.Node] = true
			if inf.Round > DefaultSISMaxRounds {
				t.Fatalf("process %d: round %d exceeds default cap", p, inf.Round)
			}
		}
	}
}

// TestScenarioScratchReuse: scenario simulations must be independent of
// scratch history — running SIS (which dirties the compartment state)
// twice with identical seeds gives identical results, proving the
// per-process reset restores the baseline.
func TestScenarioScratchReuse(t *testing.T) {
	ep := scenarioNetwork(t, 61, 62)
	sc := Scenario{Model: ModelSIS, Recovery: 0.5, Reinfection: 0.5}
	a, err := SimulateScenario(ep, Config{Alpha: 0.2, Beta: 30}, sc, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateScenario(ep, Config{Alpha: 0.2, Beta: 30}, sc, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, a.Result, b.Result)
	if a.Reinfections != b.Reinfections {
		t.Fatalf("reinfections differ across identical runs: %d vs %d", a.Reinfections, b.Reinfections)
	}
}

func TestParseModel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Model
		ok   bool
	}{
		{"", ModelIC, true}, {"ic", ModelIC, true}, {"lt", ModelLT, true},
		{"sir", ModelSIR, true}, {"sis", ModelSIS, true},
		{"IC", "", false}, {"seir", "", false},
	} {
		got, err := ParseModel(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Fatalf("ParseModel(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Fatalf("ParseModel(%q) accepted", tc.in)
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	valid := []Scenario{
		{},
		{Model: ModelSIR, Recovery: 0.9},
		{Model: ModelSIS, Recovery: 0.5, Reinfection: 1},
		{Delay: DelayPowerLaw, DelayParam: 3.5},
		{Missing: 1, Uncertain: 1},
		{Model: ModelSIS, MaxRounds: 10},
	}
	for _, sc := range valid {
		if err := sc.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v", sc, err)
		}
	}
	invalid := []Scenario{
		{Model: "seir"},
		{Delay: "gamma"},
		{DelayParam: -1},
		{DelayParam: math.NaN()},
		{Model: ModelSIR, Recovery: 1},
		{Model: ModelSIR, Recovery: -0.1},
		{Recovery: 0.5},                     // recovery without an epidemic model
		{Model: ModelSIR, Reinfection: 0.5}, // reinfection outside SIS
		{Model: ModelSIS, Reinfection: 1.5},
		{MaxRounds: -1},
		{Missing: -0.1},
		{Missing: 1.1},
		{Uncertain: math.NaN()},
	}
	for _, sc := range invalid {
		if err := sc.Validate(); err == nil {
			t.Fatalf("Validate(%+v) accepted", sc)
		}
	}
}

// TestScenarioNormalized pins the default resolution consumers switch on.
func TestScenarioNormalized(t *testing.T) {
	got := Scenario{}.Normalized()
	if got.Model != ModelIC || got.Delay != DelayExponential || got.MaxRounds != 0 {
		t.Fatalf("zero scenario normalized to %+v", got)
	}
	sis := Scenario{Model: ModelSIS, Reinfection: 0.5}.Normalized()
	if sis.MaxRounds != DefaultSISMaxRounds {
		t.Fatalf("SIS round cap not applied: %+v", sis)
	}
	capped := Scenario{Model: ModelSIS, Reinfection: 0.5, MaxRounds: 7}.Normalized()
	if capped.MaxRounds != 7 {
		t.Fatalf("explicit round cap overridden: %+v", capped)
	}
}

// TestSimulateScenarioRejectsInvalid: simulation surfaces scenario and
// config validation errors instead of running.
func TestSimulateScenarioRejectsInvalid(t *testing.T) {
	ep := scenarioNetwork(t, 71, 72)
	rng := rand.New(rand.NewSource(1))
	if _, err := SimulateScenario(ep, Config{Alpha: 0.1, Beta: 5}, Scenario{Model: "seir"}, rng); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := SimulateScenario(ep, Config{Alpha: 0, Beta: 5}, Scenario{}, rng); err == nil {
		t.Fatal("invalid alpha accepted")
	}
	if _, err := SimulateScenario(ep, Config{Alpha: 0.1, Beta: 0}, Scenario{}, rng); err == nil {
		t.Fatal("invalid beta accepted")
	}
}
