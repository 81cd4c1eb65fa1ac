//go:build !amd64 || race

package sparse

// spmmRowPacked is the Go loop on every other GOARCH and under the race
// detector, which cannot see memory accesses made from assembly.
func spmmRowPacked(out, vals []float32, cols []int32, in []float32, f int) int64 {
	return spmmRowLoop(out, vals, cols, in, f)
}
