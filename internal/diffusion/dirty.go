package diffusion

import (
	"fmt"
	"math"
	"math/rand"
)

// checkRate validates a dirty-stage rate.
func checkRate(name string, rate float64) error {
	if rate < 0 || rate > 1 || math.IsNaN(rate) {
		return fmt.Errorf("diffusion: %s rate %v outside [0,1]", name, rate)
	}
	return nil
}

// Missing models unreported observations: each (process, node) cell is
// independently masked as missing with probability rate — the monitoring
// gap of "Learning Diffusions under Uncertainty", where some nodes are
// simply never surveyed in some processes. It returns the dirtied result
// (masked cells cleared from Statuses; their seed entries and infection
// records dropped from Cascades, since an unobserved infection yields no
// trace either) and the mask of missing cells.
//
// One uniform draw is consumed per cell in row-major (process, node) order
// regardless of the cell's status, so the mask pattern at a fixed seed is
// independent of the simulation outcome. rate 0 returns the input result
// unchanged (no copies, no draws); rate 1 masks everything.
func Missing(res *Result, rate float64, rng *rand.Rand) (*Result, *StatusMatrix, error) {
	out, mask, _, err := missing(res, rate, rng)
	return out, mask, err
}

func missing(res *Result, rate float64, rng *rand.Rand) (*Result, *StatusMatrix, int, error) {
	if err := checkRate("missing", rate); err != nil {
		return nil, nil, 0, err
	}
	beta, n := res.Statuses.Beta(), res.Statuses.N()
	mask := NewStatusMatrix(beta, n)
	if rate == 0 {
		return res, mask, 0, nil
	}
	out := &Result{
		N:        res.N,
		Statuses: NewStatusMatrix(beta, n),
		Cascades: make([]Cascade, len(res.Cascades)),
	}
	masked := 0
	for p := 0; p < beta; p++ {
		for v := 0; v < n; v++ {
			if rng.Float64() < rate {
				mask.Set(p, v, true)
				masked++
				continue
			}
			if res.Statuses.Get(p, v) {
				out.Statuses.Set(p, v, true)
			}
		}
	}
	for ci, c := range res.Cascades {
		if ci >= beta {
			// Defensive: a cascade beyond the status matrix has no mask
			// column; pass it through untouched.
			out.Cascades[ci] = c
			continue
		}
		nc := Cascade{}
		for _, s := range c.Seeds {
			if !mask.Get(ci, s) {
				nc.Seeds = append(nc.Seeds, s)
			}
		}
		for _, inf := range c.Infections {
			if !mask.Get(ci, inf.Node) {
				nc.Infections = append(nc.Infections, inf)
			}
		}
		out.Cascades[ci] = nc
	}
	return out, mask, masked, nil
}

// Uncertain-report overlap window: a truly infected cell reports
// confidence q ~ U[uncertainLo, 1), a truly uninfected one q ~ U[0,
// uncertainHi), so the two distributions overlap on [uncertainLo,
// uncertainHi) and a 0.5 cutoff misclassifies an uncertain cell with
// probability (0.5-uncertainLo)/(1-uncertainLo) = 0.375 on either side.
const (
	uncertainLo = 0.2
	uncertainHi = 0.8
)

// Uncertain models unreliable sensing: each (process, node) cell is
// independently replaced, with probability rate, by a probabilistic report
// — a confidence q that the node was infected, drawn from the overlapping
// windows above — instead of a ground-truth bit. The returned probs slice
// is row-major (process·n + node) with certain cells at exactly 0 or 1;
// the returned result binarizes reports at q ≥ 0.5 (so 3 in 8
// uncertain cells flip), dropping infection records whose report went
// uninfected and keeping status-only false positives (a 0→1 flip has no
// timestamp to invent).
//
// Two uniform draws at most are consumed per cell — the gate, then q if
// the gate fires — in row-major order. rate 0 returns the input result
// unchanged with a nil probs slice (no copies, no draws).
func Uncertain(res *Result, rate float64, rng *rand.Rand) (*Result, []float64, error) {
	out, probs, _, err := uncertain(res, rate, rng)
	return out, probs, err
}

func uncertain(res *Result, rate float64, rng *rand.Rand) (*Result, []float64, int, error) {
	if err := checkRate("uncertain", rate); err != nil {
		return nil, nil, 0, err
	}
	if rate == 0 {
		return res, nil, 0, nil
	}
	beta, n := res.Statuses.Beta(), res.Statuses.N()
	probs := make([]float64, beta*n)
	out := &Result{
		N:        res.N,
		Statuses: NewStatusMatrix(beta, n),
		Cascades: make([]Cascade, len(res.Cascades)),
	}
	cells := 0
	for p := 0; p < beta; p++ {
		for v := 0; v < n; v++ {
			s := res.Statuses.Get(p, v)
			var q float64
			if rng.Float64() < rate {
				cells++
				if s {
					q = uncertainLo + (1-uncertainLo)*rng.Float64()
				} else {
					q = uncertainHi * rng.Float64()
				}
			} else if s {
				q = 1
			}
			probs[p*n+v] = q
			if q >= 0.5 {
				out.Statuses.Set(p, v, true)
			}
		}
	}
	for ci, c := range res.Cascades {
		if ci >= beta {
			out.Cascades[ci] = c
			continue
		}
		nc := Cascade{}
		for _, s := range c.Seeds {
			if out.Statuses.Get(ci, s) {
				nc.Seeds = append(nc.Seeds, s)
			}
		}
		for _, inf := range c.Infections {
			if out.Statuses.Get(ci, inf.Node) {
				nc.Infections = append(nc.Infections, inf)
			}
		}
		out.Cascades[ci] = nc
	}
	return out, probs, cells, nil
}

// PerturbTimestamps returns a deep copy of the result in which every
// non-seed infection's continuous timestamp is shifted by Gaussian noise
// with the given standard deviation (floored at a small positive value so
// time ordering constraints of downstream consumers stay satisfiable) —
// the incubation-period model of the paper's introduction: observed onset
// times do not reflect the true infection times. Final statuses are
// untouched, so status-only methods are unaffected by construction while
// cascade-based methods see scrambled orderings. It is the scenario's
// TimestampNoise stage.
func PerturbTimestamps(res *Result, sigma float64, rng *rand.Rand) (*Result, error) {
	if sigma < 0 || math.IsNaN(sigma) {
		return nil, fmt.Errorf("diffusion: timestamp noise %v must be non-negative", sigma)
	}
	out := &Result{
		N:        res.N,
		Statuses: res.Statuses, // statuses are immutable here; share
		Cascades: make([]Cascade, len(res.Cascades)),
	}
	for i, c := range res.Cascades {
		nc := Cascade{
			Seeds:      append([]int(nil), c.Seeds...),
			Infections: make([]Infection, len(c.Infections)),
		}
		copy(nc.Infections, c.Infections)
		for j := range nc.Infections {
			if nc.Infections[j].Parent == -1 {
				continue // seeds stay at t=0
			}
			t := nc.Infections[j].Time + rng.NormFloat64()*sigma
			if t < 1e-9 {
				t = 1e-9
			}
			nc.Infections[j].Time = t
		}
		out.Cascades[i] = nc
	}
	return out, nil
}
