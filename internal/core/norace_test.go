//go:build !race

package core

// raceEnabled reports whether the test binary runs under the race detector,
// whose slowdown makes wall-clock assertions meaningless.
const raceEnabled = false
