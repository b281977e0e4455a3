// Package kernel holds the word-level popcount primitives of the dense
// pairwise IMI stage. Everything operates on raw []uint64 bit columns (the
// layout of diffusion.StatusMatrix.ColumnData) with no package
// dependencies, so the hot loops can be fuzzed, benchmarked, and
// race-tested in isolation.
//
// All functions are pure, allocation-free, and bit-exact: they compute
// integer popcounts of ANDed words, so their results are identical across
// architectures, word orders, and call patterns.
package kernel

import "math/bits"

// AndCount returns popcount(a & b) over len(a) words; b must be at least as
// long as a. This is the n11 cell of a pair's 2×2 contingency table when a
// and b are two nodes' packed status columns.
func AndCount(a, b []uint64) int {
	n := 0
	w := 0
	if len(a) >= 4 {
		_ = b[len(a)-1] // hoist the bounds check out of the unrolled loop
		for ; w+4 <= len(a); w += 4 {
			n += bits.OnesCount64(a[w]&b[w]) +
				bits.OnesCount64(a[w+1]&b[w+1]) +
				bits.OnesCount64(a[w+2]&b[w+2]) +
				bits.OnesCount64(a[w+3]&b[w+3])
		}
	}
	for ; w < len(a); w++ {
		n += bits.OnesCount64(a[w] & b[w])
	}
	return n
}

// BlockAndCounts computes dst[r] = popcount(bases[r·words : (r+1)·words] &
// probe) for every r < len(dst). bases is a tile of len(dst) contiguous
// columns (the dense engine's row block), probe a single streamed column of
// the same width. The probe stays cache-hot across the whole tile, so the
// per-pair cost is one pass over the block's words.
func BlockAndCounts(dst []int, bases []uint64, probe []uint64, words int) {
	for r := range dst {
		dst[r] = AndCount(bases[r*words:(r+1)*words], probe)
	}
}
