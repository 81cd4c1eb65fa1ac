//go:build !race

package tensor

// rowAccPacked is rowAccLoop in SSE2 (the amd64 baseline, so no
// CPU-feature probe), keeping column chunks of each output row in
// registers across all of that row's entries.
//
//go:noescape
func rowAccPacked(out, vals []float32, idx []int32, ptr []int64, in []float32, f int) int64
