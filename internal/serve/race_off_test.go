//go:build !race

package serve

// raceEnabled reports whether the race detector is instrumenting this
// build. TestCacheSteadyStateAllocs's byte bound describes the
// uninstrumented build and is only applied there.
const raceEnabled = false
