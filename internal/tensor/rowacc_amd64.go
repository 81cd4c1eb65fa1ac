//go:build !race

package tensor

// rowAccPacked is rowAccLoop in SSE2 (the amd64 baseline), keeping column
// chunks of each output row in registers across all of that row's
// entries; its 64- and 32-float chunks run as VEX instructions when
// useVEX is set.
//
//go:noescape
func rowAccPacked(out, vals []float32, idx []int32, ptr []int64, in []float32, f int) int64

// useVEX is whether the CPU has AVX and the OS saves YMM state, probed
// once; rowAccPacked reads it. Only the tests flip it, to run both paths.
var useVEX = hasAVX()

func hasAVX() bool
