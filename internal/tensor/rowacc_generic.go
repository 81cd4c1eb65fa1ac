//go:build !amd64 || race

package tensor

// rowAccPacked is the Go loop on every other GOARCH and under the race
// detector, which cannot see memory accesses made from assembly.
func rowAccPacked(out, vals []float32, idx []int32, ptr []int64, in []float32, f int, set bool) int64 {
	return rowAccLoop(out, vals, idx, ptr, in, f, set)
}
