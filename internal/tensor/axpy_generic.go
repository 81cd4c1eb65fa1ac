//go:build !amd64 || race

package tensor

// axpyPacked is the Go loop on every other GOARCH and under the race
// detector, which cannot see memory accesses made from assembly.
func axpyPacked(s float32, x, y []float32) { axpyLoop(s, x, y) }
