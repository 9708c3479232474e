//go:build !race

package market

// raceEnabled reports whether this binary was built with the race detector,
// whose instrumentation adds allocations of its own — see engine_rng_test.go.
const raceEnabled = false
