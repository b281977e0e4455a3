package diffusion

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// FuzzReadStatus: the status parser must never panic, and accepted input
// must survive a write/read round trip.
func FuzzReadStatus(f *testing.F) {
	f.Add("statuses 2 3\n010\n111\n")
	f.Add("statuses 0 0\n")
	f.Add("# c\nstatuses 1 1\n1\n")
	f.Add("statuses 1 3\n01\n")
	f.Add("statuses -1 2\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		m, err := ReadStatus(strings.NewReader(input))
		if err != nil {
			return
		}
		checkTailBits(t, m)
		var buf bytes.Buffer
		if err := m.WriteStatus(&buf); err != nil {
			t.Fatalf("accepted matrix failed to serialize: %v", err)
		}
		back, err := ReadStatus(&buf)
		if err != nil {
			t.Fatalf("own serialization rejected: %v", err)
		}
		if back.Beta() != m.Beta() || back.N() != m.N() {
			t.Fatal("round trip changed dimensions")
		}
		for p := 0; p < m.Beta(); p++ {
			for v := 0; v < m.N(); v++ {
				if m.Get(p, v) != back.Get(p, v) {
					t.Fatal("round trip changed a cell")
				}
			}
		}
	})
}

// FuzzDelaySampler: for every law and any parameter, a constructed sampler
// must only ever produce finite, non-negative delays, so timestamps stay
// monotone along parent chains for any RNG state and parent time.
func FuzzDelaySampler(f *testing.F) {
	f.Add(uint8(0), 0.0, int64(1), 0.0)
	f.Add(uint8(1), 2.0, int64(2), 1.5)
	f.Add(uint8(2), 0.5, int64(3), 100.0)
	f.Add(uint8(7), 1e308, int64(4), 0.0)
	f.Add(uint8(1), -1.0, int64(5), 0.0)
	f.Fuzz(func(t *testing.T, lawIdx uint8, param float64, seed int64, parent float64) {
		laws := DelayModels()
		law := laws[int(lawIdx)%len(laws)]
		s, err := NewDelaySampler(law, param)
		if err != nil {
			if param >= 0 && !math.IsNaN(param) && !math.IsInf(param, 0) {
				t.Fatalf("valid parameter %v rejected: %v", param, err)
			}
			return
		}
		if math.IsNaN(parent) || math.IsInf(parent, 0) || parent < 0 {
			parent = 0
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			d := s.Sample(rng)
			if math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("%s(param=%v) draw %d not finite: %v", law, param, i, d)
			}
			if d < 0 {
				t.Fatalf("%s(param=%v) draw %d negative: %v", law, param, i, d)
			}
			if child := parent + d; child < parent {
				t.Fatalf("%s(param=%v): child time %v before parent %v", law, param, child, parent)
			}
		}
	})
}

// fuzzResult builds a self-consistent Result (statuses match traces) from
// fuzz-controlled dimensions and a seed, for the dirty-stage fuzzer.
func fuzzResult(beta, n int, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	res := &Result{N: n, Statuses: NewStatusMatrix(beta, n), Cascades: make([]Cascade, beta)}
	for p := 0; p < beta; p++ {
		var c Cascade
		prev := -1
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.3 {
				res.Statuses.Set(p, v, true)
				inf := Infection{Node: v, Round: 0, Time: 0, Parent: -1}
				if prev >= 0 && rng.Float64() < 0.5 {
					inf.Round = 1
					inf.Time = rng.Float64() * 10
					inf.Parent = prev
				} else {
					c.Seeds = append(c.Seeds, v)
				}
				c.Infections = append(c.Infections, inf)
				prev = v
			}
		}
		res.Cascades[p] = c
	}
	return res
}

// FuzzDirtyObservations: Missing and Uncertain must never panic for any
// rate and input shape; they preserve matrix dimensions, rate 0 is the
// identity, and rate 1 is total (every cell masked / every cell reported
// probabilistically).
func FuzzDirtyObservations(f *testing.F) {
	f.Add(uint8(3), uint8(5), 0.5, int64(1))
	f.Add(uint8(0), uint8(0), 0.0, int64(2))
	f.Add(uint8(1), uint8(64), 1.0, int64(3))
	f.Add(uint8(10), uint8(1), -0.5, int64(4))
	f.Add(uint8(2), uint8(2), math.NaN(), int64(5))
	f.Fuzz(func(t *testing.T, betaRaw, nRaw uint8, rate float64, seed int64) {
		beta, n := int(betaRaw%16), int(nRaw)
		res := fuzzResult(beta, n, seed)
		rng := rand.New(rand.NewSource(seed + 1))
		mOut, mask, mErr := Missing(res, rate, rng)
		uOut, probs, uErr := Uncertain(res, rate, rng)
		if rate < 0 || rate > 1 || math.IsNaN(rate) {
			if mErr == nil || uErr == nil {
				t.Fatalf("invalid rate %v accepted", rate)
			}
			return
		}
		if mErr != nil || uErr != nil {
			t.Fatalf("valid rate %v rejected: %v / %v", rate, mErr, uErr)
		}
		if mOut.Statuses.Beta() != beta || mOut.Statuses.N() != n || mask.Beta() != beta || mask.N() != n {
			t.Fatal("Missing changed dimensions")
		}
		if uOut.Statuses.Beta() != beta || uOut.Statuses.N() != n {
			t.Fatal("Uncertain changed dimensions")
		}
		if rate == 0 {
			if mOut != res || uOut != res || probs != nil {
				t.Fatal("rate 0 is not the identity")
			}
		}
		if rate > 0 && len(probs) != beta*n {
			t.Fatalf("probs length %d, want %d", len(probs), beta*n)
		}
		for p := 0; p < beta; p++ {
			for v := 0; v < n; v++ {
				if rate == 1 && !mask.Get(p, v) {
					t.Fatalf("rate 1 left cell (%d,%d) unmasked", p, v)
				}
				if mask.Get(p, v) && mOut.Statuses.Get(p, v) {
					t.Fatalf("masked cell (%d,%d) still infected", p, v)
				}
				if rate > 0 {
					q := probs[p*n+v]
					if q < 0 || q > 1 || math.IsNaN(q) {
						t.Fatalf("report %v outside [0,1]", q)
					}
					if rate == 1 && q == 1 {
						t.Fatalf("rate 1 left a certain report at (%d,%d)", p, v)
					}
					if uOut.Statuses.Get(p, v) != (q >= 0.5) {
						t.Fatalf("binarized status disagrees with report at (%d,%d)", p, v)
					}
				}
			}
		}
	})
}

// FuzzReadCascades: the cascade parser must never panic, and accepted input
// must produce a result whose statuses match its infections.
func FuzzReadCascades(f *testing.F) {
	f.Add("cascades 1 4\n0;0@0.000000 1@1.500000\n")
	f.Add("cascades 0 1\n")
	f.Add("cascades 1 2\n0,1;0@0 1@0\n")
	f.Add("cascades 1 4\n0 0@0\n")
	f.Add("cascades 1 4\n0;9@0\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		res, err := ReadCascades(strings.NewReader(input))
		if err != nil {
			return
		}
		for p, c := range res.Cascades {
			for _, inf := range c.Infections {
				if inf.Node < 0 || inf.Node >= res.N {
					t.Fatalf("accepted out-of-range node %d", inf.Node)
				}
				if !res.Statuses.Get(p, inf.Node) {
					t.Fatal("infection not reflected in statuses")
				}
			}
		}
	})
}
