package core

import (
	"math"
	"testing"

	"tends/internal/diffusion"
)

// buildIMI creates a status matrix whose IMI matrix has controlled
// structure: `pairs` perfectly coupled node pairs plus `noise` independent
// nodes, over beta processes.
func buildStructured(beta, pairs, noise int, seed int64) *diffusion.StatusMatrix {
	n := 2*pairs + noise
	m := diffusion.NewStatusMatrix(beta, n)
	rng := newTestRand(seed)
	for p := 0; p < beta; p++ {
		for k := 0; k < pairs; k++ {
			v := rng.Intn(2) == 0
			m.Set(p, 2*k, v)
			m.Set(p, 2*k+1, v)
		}
		for j := 0; j < noise; j++ {
			m.Set(p, 2*pairs+j, rng.Intn(2) == 0)
		}
	}
	return m
}

func TestChiSquared1Tail(t *testing.T) {
	// Known quantiles of chi-squared with 1 degree of freedom.
	cases := []struct{ t, p float64 }{
		{0, 1},
		{-5, 1},
		{3.841, 0.05},
		{6.635, 0.01},
		{10.828, 0.001},
	}
	for _, tc := range cases {
		if got := chiSquared1Tail(tc.t); math.Abs(got-tc.p) > 0.002 {
			t.Fatalf("chiSquared1Tail(%v) = %v, want %v", tc.t, got, tc.p)
		}
	}
}

func TestSelectThresholdFDRSeparates(t *testing.T) {
	m := buildStructured(200, 4, 12, 1)
	imi := denseIMI(m, false, 0)
	tau := SelectThresholdFDR(imi, 200, 0.2)
	// All 4 coupled pairs must survive, i.e. sit above tau.
	for k := 0; k < 4; k++ {
		if v := imi.At(2*k, 2*k+1); v <= tau {
			t.Fatalf("coupled pair %d IMI %v not above FDR threshold %v", k, v, tau)
		}
	}
	// The threshold must be clearly above the noise scale ~1/beta.
	if tau < 1.0/200 {
		t.Fatalf("FDR threshold %v below the noise floor", tau)
	}
}

func TestSelectThresholdFDRNoSignal(t *testing.T) {
	// Pure noise at small beta: nothing should be significant, so the
	// threshold lands above the maximum value and prunes everything.
	m := randomStatus(30, 10, 2)
	imi := denseIMI(m, false, 0)
	tau := SelectThresholdFDR(imi, 30, 0.01)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			if imi.At(i, j) > tau {
				t.Fatalf("noise pair (%d,%d) above FDR threshold", i, j)
			}
		}
	}
}

func TestSelectThresholdFDRAlphaMonotone(t *testing.T) {
	// A looser FDR level can only lower (or keep) the threshold.
	m := buildStructured(150, 3, 10, 3)
	imi := denseIMI(m, false, 0)
	strict := SelectThresholdFDR(imi, 150, 0.01)
	loose := SelectThresholdFDR(imi, 150, 0.4)
	if loose > strict {
		t.Fatalf("loose alpha raised the threshold: %v > %v", loose, strict)
	}
}

func TestSelectThresholdFDRPanicsOnBadAlpha(t *testing.T) {
	m := randomStatus(10, 3, 1)
	imi := denseIMI(m, false, 0)
	for _, alpha := range []float64{0, 1, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha=%v should panic", alpha)
				}
			}()
			SelectThresholdFDR(imi, 10, alpha)
		}()
	}
}

func TestPenaltyModes(t *testing.T) {
	m := randomStatus(100, 5, 7)
	s := NewScorer(m)
	parents := []int{1, 2}
	paper := s.LocalScoreParts(0, parents)

	s.SetPenaltyMode(PenaltyNone)
	none := s.LocalScoreParts(0, parents)
	if none.Penalty != 0 {
		t.Fatalf("PenaltyNone penalty = %v", none.Penalty)
	}
	if none.LogLikelihood != paper.LogLikelihood {
		t.Fatal("penalty mode changed the likelihood")
	}

	s.SetPenaltyMode(PenaltyBIC)
	bic := s.LocalScoreParts(0, parents)
	wantBIC := 0.5 * math.Log2(100) * float64(bic.Observed)
	if math.Abs(bic.Penalty-wantBIC) > 1e-9 {
		t.Fatalf("BIC penalty = %v, want %v", bic.Penalty, wantBIC)
	}
	// With balanced random columns, the BIC penalty should be at least the
	// paper penalty (log2(beta) per combo vs log2(Nij+1) with Nij < beta).
	if bic.Penalty < paper.Penalty {
		t.Fatalf("BIC penalty %v below paper penalty %v", bic.Penalty, paper.Penalty)
	}
}
