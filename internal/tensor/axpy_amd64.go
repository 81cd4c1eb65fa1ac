//go:build !race

package tensor

// axpyPacked is axpyLoop four floats at a time (SSE2, the amd64 baseline, so
// no CPU-feature probe). It requires len(y) >= len(x).
//
//go:noescape
func axpyPacked(s float32, x, y []float32)
