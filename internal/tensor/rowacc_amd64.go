//go:build !race

package tensor

// rowAccPacked is rowAccLoop in SSE2 (the amd64 baseline), keeping column
// chunks of each output row in registers across all of that row's
// entries; its wide chunks run as EVEX instructions when useEVEX is set,
// else as VEX instructions when useVEX is.
//
//go:noescape
func rowAccPacked(out, vals []float32, idx []int32, ptr []int64, in []float32, f int) int64

// useEVEX is whether the CPU has AVX-512F and the OS saves ZMM state, and
// useVEX whether it has AVX and the OS saves YMM state, each probed once;
// rowAccPacked reads them. Only the tests flip them, to run every path.
var (
	useEVEX = hasAVX512()
	useVEX  = hasAVX()
)

func hasAVX() bool

func hasAVX512() bool
