package tensor

// axpyMinWidth is the narrowest row given to the packed routine. Measured on
// 16-deep products, MatMulTB's row accumulation overtakes its dot product at
// 12 floats; Axpy shares the constant, since train-redist, the one benchmark
// workload with narrower rows, read the same end to end with it at 4 or 12.
const axpyMinWidth = 12

// Axpy computes y[j] += s*x[j] for every j < len(x); y must be at least as
// long as x. It is the inner loop under Gemm, MatMulTA, MatMulTB,
// sparse.MaskedSpMM and the comm reductions: packed SSE2 on amd64 for rows of
// axpyMinWidth floats or more, axpyLoop for narrower rows, on every other
// GOARCH and under -race. sparse.SpMMInto does not call it: its row kernel
// keeps the output row in registers across a row's entries, with the bits
// of one Axpy per entry.
//
// Each element sees exactly one IEEE-754 single-precision multiply followed
// by one add, never a fused multiply-add, so the packed routine and the Go
// loop produce the same bits and either may serve any row.
func Axpy(s float32, x, y []float32) {
	if len(x) < axpyMinWidth {
		axpyLoop(s, x, y)
		return
	}
	axpyPacked(s, x, y[:len(x)])
}

// axpyLoop is Axpy as a plain Go loop: the portable implementation and the
// test oracle. The conversion rounds the product, which keeps compilers that
// fuse x*y+z (arm64, GOAMD64=v3) from doing so; on baseline amd64 it compiles
// to nothing.
func axpyLoop(s float32, x, y []float32) {
	for j, v := range x {
		y[j] += float32(s * v)
	}
}
