//go:build !race

package comm_test

// raceEnabled reports whether the race detector is instrumenting this
// build: under it sync.Pool drops a share of its puts, so the pooled hot
// paths allocate now and then and TestHotPathAllocsBounded's byte bound
// only holds uninstrumented.
const raceEnabled = false
