package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"tends/internal/graph"
)

// Micro-benchmarks of the TENDS hot paths at the paper's default workload
// scale (n=200, β=150).

func BenchmarkComputeIMI(b *testing.B) {
	m := randomStatus(150, 200, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeIMIContext(context.Background(), m, false, 0)
	}
}

// The acceptance-scale IMI benchmark (n=300), serial vs all-cores.
func BenchmarkComputeIMI300Serial(b *testing.B) {
	m := randomStatus(150, 300, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeIMIContext(context.Background(), m, false, 1)
	}
}

func BenchmarkComputeIMI300Parallel(b *testing.B) {
	m := randomStatus(150, 300, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeIMIContext(context.Background(), m, false, runtime.GOMAXPROCS(0))
	}
}

// BenchmarkEnumerateCombos exercises the prefix-sharing DFS over a
// realistic candidate pool (16 candidates, pairs and triples).
func BenchmarkEnumerateCombos(b *testing.B) {
	s := NewScorer(randomStatus(150, 200, 42))
	cands := make([]int, 16)
	for i := range cands {
		cands[i] = 2 + 3*i
	}
	for _, size := range []int{2, 3} {
		opt := Options{MaxComboSize: size}.withDefaults()
		b.Run(map[int]string{2: "eta2", 3: "eta3"}[size], func(b *testing.B) {
			sc := s.newScratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if combos, _ := enumerateCombos(context.Background(), s, 0, cands, opt, time.Time{}, sc); len(combos) == 0 {
					b.Fatal("no combinations enumerated")
				}
			}
		})
	}
}

func BenchmarkSelectThresholdKMeans(b *testing.B) {
	m := randomStatus(150, 200, 42)
	imi := denseIMI(m, false, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectThreshold(imi)
	}
}

func BenchmarkSelectThresholdFDR(b *testing.B) {
	m := randomStatus(150, 200, 42)
	imi := denseIMI(m, false, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectThresholdFDR(imi, 150, 0.2)
	}
}

func BenchmarkLocalScoreSmall(b *testing.B) {
	s := NewScorer(randomStatus(150, 200, 42))
	parents := []int{3, 17}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LocalScore(0, parents)
	}
}

func BenchmarkLocalScoreLarge(b *testing.B) {
	s := NewScorer(randomStatus(150, 200, 42))
	parents := []int{3, 17, 42, 77, 101, 150, 163, 199}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LocalScore(0, parents)
	}
}

// BenchmarkAdaptiveMerge isolates the greedy merge over a pre-enumerated
// combination pool — the stage the mask-based membership test targets.
func BenchmarkAdaptiveMerge(b *testing.B) {
	s := NewScorer(randomStatus(150, 200, 42))
	cands := make([]int, 16)
	for i := range cands {
		cands[i] = 2 + 3*i
	}
	opt := Options{MaxComboSize: 2}.withDefaults()
	combos, _ := enumerateCombos(context.Background(), s, 0, cands, opt, time.Time{}, s.newScratch())
	if len(combos) == 0 {
		b.Fatal("no combinations enumerated")
	}
	sc := s.newScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adaptiveMerge(context.Background(), s, 0, combos, opt, coreTel{}, time.Time{}, sc)
	}
}

func BenchmarkInferChain200(b *testing.B) {
	g := graph.Chain(200)
	g.Symmetrize()
	m := simulateOn(b, g, 0.3, 0.15, 150, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Infer(m, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
