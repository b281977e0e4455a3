package experiments

import (
	"context"
	"testing"
	"time"

	"tends/internal/core"
)

// TestSparseIMIBeatsDenseAtScale times the pairwise build that counts joint
// infections by the cascade walk against the one that counts them by
// popcount, on the n=10⁴, β=256 scale workload (seed 1), best of three runs
// each. Only 2.8% of the 5·10⁷ pairs co-occur there, so the walk must be at
// least 5× faster (7–9× on a 2-vCPU VM). The popcount side takes about
// half a second per run, so -short and the race detector skip the test.
func TestSparseIMIBeatsDenseAtScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("wall-clock comparison at n=10⁴")
	}
	ctx := context.Background()
	_, sm, err := BuildScaleWorkload(ctx, ScaleConfig{N: 10000, Beta: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	best := func(run func() error) time.Duration {
		d := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if err := run(); err != nil {
				t.Fatal(err)
			}
			d = min(d, time.Since(start))
		}
		return d
	}
	var coPairs, totalPairs int64
	sparse := best(func() error {
		sp, err := core.ComputeSparseIMIContext(ctx, sm, false, 0)
		if err == nil {
			coPairs, totalPairs = sp.CoPairs(), sp.TotalPairs()
		}
		return err
	})
	dense := best(func() error {
		_, err := core.ComputeIMIContext(ctx, sm, false, 0)
		return err
	})
	speedup := float64(dense) / float64(sparse)
	t.Logf("n=10000 β=256: co-pairs %d of %d, sparse %v, dense %v, speedup %.1f×", coPairs, totalPairs, sparse, dense, speedup)
	if speedup < 5 {
		t.Fatalf("sparse IMI %v is only %.1f× faster than dense %v, want ≥5×", sparse, speedup, dense)
	}
}
