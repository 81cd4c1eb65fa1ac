//go:build !race

package tensor

// rowAccPacked is rowAccLoop in SSE2 (the amd64 baseline), keeping column
// chunks of each output row in registers across all of that row's
// entries; its wide chunks run as EVEX instructions when useEVEX is set,
// else as VEX instructions when useVEX is. With useEVEX the set form runs
// rows of 3 to 48 floats in one masked EVEX pass.
//
//go:noescape
func rowAccPacked(out, vals []float32, idx []int32, ptr []int64, in []float32, f int, set bool) int64

// useEVEX is whether the CPU has AVX-512F and AVX-512VL and the OS saves
// ZMM state, and useVEX whether it has AVX and the OS saves YMM state,
// each probed once;
// rowAccPacked reads them. Only the tests flip them, to run every path.
var (
	useEVEX = hasAVX512()
	useVEX  = hasAVX()
)

func hasAVX() bool

func hasAVX512() bool
