package diffusion

import (
	"math/rand"
	"testing"

	"tends/internal/graph"
)

func benchNetwork(b *testing.B) *EdgeProbs {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := graph.GNM(200, 800, rng)
	return NewEdgeProbs(g, 0.3, 0.05, rng)
}

func BenchmarkSimulateIC(b *testing.B) {
	ep := benchNetwork(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := Simulate(ep, Config{Alpha: 0.15, Beta: 150}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateICDense stresses the trial loop on a dense network
// (average degree 40), where per-edge probability lookups dominate.
func BenchmarkSimulateICDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.GNM(200, 8000, rng)
	ep := NewEdgeProbs(g, 0.1, 0.05, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := Simulate(ep, Config{Alpha: 0.15, Beta: 150}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateLT(b *testing.B) {
	ep := benchNetwork(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := SimulateLT(ep, Config{Alpha: 0.15, Beta: 150}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateScenario times the scenario engine's SIR, SIS and
// dirty-observation paths on the dense network of BenchmarkSimulateICDense
// (GNM(200, 8000), μ=0.1, α=0.15, β=150).
func BenchmarkSimulateScenario(b *testing.B) {
	for _, bc := range []struct {
		name string
		sc   Scenario
	}{
		{"sir", Scenario{Model: ModelSIR, Recovery: 0.5}},
		{"sis", Scenario{Model: ModelSIS, Recovery: 0.5, Reinfection: 0.3, MaxRounds: 50}},
		{"dirty", Scenario{Missing: 0.2, Uncertain: 0.2}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g := graph.GNM(200, 8000, rand.New(rand.NewSource(1)))
			rng := rand.New(rand.NewSource(2))
			ep := NewEdgeProbs(g, 0.1, 0.05, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SimulateScenario(ep, Config{Alpha: 0.15, Beta: 150}, bc.sc, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkJointCounts(b *testing.B) {
	m := NewStatusMatrix(150, 200)
	rng := rand.New(rand.NewSource(2))
	for p := 0; p < 150; p++ {
		for v := 0; v < 200; v++ {
			m.Set(p, v, rng.Intn(2) == 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.JointCounts(i%200, (i+7)%200)
	}
}

// seedSink keeps BenchmarkSeedDraw's results live.
var seedSink []int

// BenchmarkSeedDraw times one process's seed draw at n=10⁵, k=10: the
// allocating rand.Perm, permPrefix, and the bare n Int31 draws both make,
// which is the floor while the golden fixtures pin the RNG stream.
func BenchmarkSeedDraw(b *testing.B) {
	const n, k = 100000, 10
	buf := make([]int, k)
	b.Run("perm", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			seedSink = rng.Perm(n)[:k]
		}
	})
	b.Run("prefix", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			seedSink = permPrefix(rng, n, k, buf)
		}
	})
	b.Run("draws", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				rng.Int31()
			}
		}
	})
}
