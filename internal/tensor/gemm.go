package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// ParallelRows runs fn over [0, rows) split into contiguous chunks, one per
// worker. Chunks are disjoint so results are deterministic.
func ParallelRows(rows int, fn func(r0, r1 int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		if rows > 0 {
			fn(0, rows)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for r0 := 0; r0 < rows; r0 += chunk {
		r1 := min(r0+chunk, rows)
		wg.Add(1)
		go func(a, b int) {
			defer wg.Done()
			fn(a, b)
		}(r0, r1)
	}
	wg.Wait()
}

// MatMul returns C = A * B.
func MatMul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewDense(a.Rows, b.Cols)
	Gemm(1, a, b, 0, c)
	return c
}

// Gemm computes C = alpha*A*B + beta*C in place.
//
// The kernel iterates i-k-j with the inner j loop, Axpy, over contiguous rows
// of B and C, which keeps a deterministic summation order. (The Go compiler
// vectorizes nothing; the packed Axpy is what makes that loop wide.)
func Gemm(alpha float32, a, b *Dense, beta float32, c *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: Gemm shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	n := b.Cols
	ParallelRows(a.Rows, func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			ci := c.Data[i*n : (i+1)*n]
			scaleRow(ci, beta)
			for k, av := range a.Data[i*a.Cols : (i+1)*a.Cols] {
				if av != 0 {
					Axpy(alpha*av, b.Data[k*n:(k+1)*n], ci)
				}
			}
		}
	})
}

// scaleRow multiplies ci by beta; beta == 0 clears it, so stale NaNs and
// infinities do not survive.
func scaleRow(ci []float32, beta float32) {
	if beta == 0 {
		clear(ci)
	} else if beta != 1 {
		for j := range ci {
			ci[j] *= beta
		}
	}
}

// MatMulTA returns C = Aᵀ * B without materializing Aᵀ.
func MatMulTA(a, b *Dense) *Dense {
	c := NewDense(a.Cols, b.Cols)
	MatMulTAInto(a, b, c)
	return c
}

// MatMulTAInto computes c = Aᵀ * B, overwriting c.
//
// A is m x k, B is m x n, C is k x n. The parallel split is over rows of C
// (columns of A); each worker clears its own output rows, then scans A and B
// once accumulating only into them, so the result is deterministic.
func MatMulTAInto(a, b, c *Dense) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTA shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	n := b.Cols
	ParallelRows(a.Cols, func(k0, k1 int) {
		clear(c.Data[k0*n : k1*n])
		for i := 0; i < a.Rows; i++ {
			bi := b.Data[i*n : (i+1)*n]
			for k := k0; k < k1; k++ {
				if av := a.Data[i*a.Cols+k]; av != 0 {
					Axpy(av, bi, c.Data[k*n:(k+1)*n])
				}
			}
		}
	})
}

// MatMulTB returns C = A * Bᵀ.
func MatMulTB(a, b *Dense) *Dense {
	c := NewDense(a.Rows, b.Rows)
	MatMulTBInto(a, b, c)
	return c
}

// MatMulTBInto computes c = A * Bᵀ, overwriting c.
//
// A is m x k, B is n x k, C is m x n. Narrow outputs take one dot product
// per element. Wider ones transpose B (the small operand: a weight matrix)
// and accumulate each cleared output row with Axpy over ascending t, without
// zero-skip: per element those are the dot product's products added in the
// dot product's order starting from +0, so the bits are the same.
func MatMulTBInto(a, b, c *Dense) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTB shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	k, n := a.Cols, b.Rows
	if n < axpyMinWidth {
		ParallelRows(a.Rows, func(r0, r1 int) {
			for i := r0; i < r1; i++ {
				ai := a.Data[i*k : (i+1)*k]
				ci := c.Data[i*n : (i+1)*n]
				for j := range ci {
					bj := b.Data[j*k : (j+1)*k]
					var s float32
					for t, av := range ai {
						s += float32(av * bj[t]) // rounded like Axpy's
					}
					ci[j] = s
				}
			}
		})
		return
	}
	bt := make([]float32, k*n)
	b.transposeInto(bt)
	ParallelRows(a.Rows, func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			ci := c.Data[i*n : (i+1)*n]
			clear(ci)
			for t, av := range a.Data[i*k : (i+1)*k] {
				Axpy(av, bt[t*n:(t+1)*n], ci)
			}
		}
	})
}

// GemmFLOPs returns the fused multiply-add count of an (m x k)*(k x n) GEMM.
func GemmFLOPs(m, k, n int) int64 { return int64(m) * int64(k) * int64(n) }
