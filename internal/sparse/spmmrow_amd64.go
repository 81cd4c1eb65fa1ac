//go:build !race

package sparse

// spmmRowPacked is spmmRowLoop in SSE2 (the amd64 baseline, so no
// CPU-feature probe), keeping column chunks of the output row in registers
// across all of the row's entries. It requires len(out) >= f and
// len(vals) >= len(cols).
//
//go:noescape
func spmmRowPacked(out, vals []float32, cols []int32, in []float32, f int) int64
