package lfr

import (
	"math/rand"
	"testing"
)

// BenchmarkLFRGenerate builds the n=10⁵ network of the scale benchmark
// (average degree 10, degree exponent 2, about 10⁶ directed edges).
func BenchmarkLFRGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Params{N: 100_000, AvgDegree: 10, DegreeExp: 2}, rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
	}
}
