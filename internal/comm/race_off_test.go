//go:build !race

package comm_test

// raceEnabled reports whether the race detector is instrumenting this
// build. TestHotPathAllocsBounded's byte bound describes the
// uninstrumented build and is only applied there.
const raceEnabled = false
