//go:build !race

package trustd

// raceEnabled reports whether this binary was built with the race detector,
// whose instrumentation adds allocations of its own.
const raceEnabled = false
