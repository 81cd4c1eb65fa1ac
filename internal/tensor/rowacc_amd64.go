//go:build !race

package tensor

// rowAccPacked is rowAccLoop in SSE2 (the amd64 baseline, so no
// CPU-feature probe), keeping column chunks of out in registers across
// all of the entries. It requires len(out) >= f and len(vals) >= len(idx).
//
//go:noescape
func rowAccPacked(out, vals []float32, idx []int32, in []float32, f int) int64
