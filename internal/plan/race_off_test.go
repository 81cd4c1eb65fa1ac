//go:build !race

package plan

// raceEnabled reports whether the race detector is instrumenting this
// build. TestWarmReplayAllocatesOnlyResults's byte bound describes the
// uninstrumented build and is only applied there.
const raceEnabled = false
