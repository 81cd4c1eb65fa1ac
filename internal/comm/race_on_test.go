//go:build race

package comm_test

const raceEnabled = true
