package experiments

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix whose
// outputs pass BigCrush even on sequential inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cellSeed derives the workload seed of one (point, repeat) cell from the
// base seed. Every algorithm at the cell shares the seed, so they all see
// the same network and cascades. The chained SplitMix64 mix keeps the
// streams collision-free for any point/repeat grid — the previous
// base+point*1000+repeat derivation silently reused seeds across points
// once Repeats reached 1000.
func cellSeed(base int64, point, rep int) int64 {
	h := splitmix64(uint64(base))
	h = splitmix64(h ^ uint64(point))
	h = splitmix64(h ^ uint64(rep))
	return int64(h)
}

// retrySeedTag separates the retry seed stream from the primary cellSeed
// stream: without it, attempt 0's reseeded retries could collide with other
// cells' primary seeds. Arbitrary odd constant.
const retrySeedTag = 0xa5a5_5a5a_d00d_feed

// retrySeed derives the workload seed of retry attempt ≥ 1 of one
// (point, repeat) task. Chained like cellSeed but tagged, so the retry
// streams are deterministic, per-attempt distinct, and disjoint from every
// primary stream.
func retrySeed(base int64, point, rep, attempt int) int64 {
	h := splitmix64(uint64(base) ^ retrySeedTag)
	h = splitmix64(h ^ uint64(point))
	h = splitmix64(h ^ uint64(rep))
	h = splitmix64(h ^ uint64(attempt))
	return int64(h)
}
