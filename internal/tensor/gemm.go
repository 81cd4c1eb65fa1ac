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

// The products gather entries into fixed blocks on the worker's stack and
// hand each output row's first block to RowSet and every later one to
// RowAcc, so no output is cleared before it is written. A partial sum
// crosses from one block to the next through a float32 store and load,
// which are exact, so the block sizes change no bits; they were chosen with
// the kernel micro-benchmarks.
const (
	// rowBlock is the most entries one RowAcc call of MatMulInto or
	// MatMulTBInto takes.
	rowBlock = 128
	// panelRows is how many rows of A and B one MatMulTAInto panel spans:
	// B's panel stays in cache while every output row of the worker walks
	// it.
	panelRows = 64
)

// MatMul returns C = A * B.
func MatMul(a, b *Dense) *Dense {
	c := NewDense(a.Rows, b.Cols)
	MatMulInto(a, b, c)
	return c
}

// MatMulInto computes c = A * B, overwriting c.
//
// A is m x k, B is k x n. Per row i of C, each worker gathers the nonzero
// A[i,k] with their k, in ascending k, and sums the rows k of B they
// weight, rowBlock entries per call: RowSet for the first block (an empty
// row sets +0), RowAcc for each later non-empty one. Zero entries of A are
// skipped: the gather stores every entry and advances only past a nonzero
// one, so it selects where a branch would mispredict on about half of a
// post-ReLU row.
func MatMulInto(a, b, c *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	n := b.Cols
	ParallelRows(a.Rows, func(r0, r1 int) {
		var vals [rowBlock]float32
		var idx [rowBlock]int32
		for i := r0; i < r1; i++ {
			ci := c.Data[i*n : (i+1)*n]
			p, set := 0, true
			for k, av := range a.Data[i*a.Cols : (i+1)*a.Cols] {
				vals[p], idx[p] = av, int32(k)
				if av != 0 {
					p++
				}
				if p == rowBlock {
					if set {
						RowSet(ci, vals[:], idx[:], b.Data, n)
					} else {
						RowAcc(ci, vals[:], idx[:], b.Data, n)
					}
					p, set = 0, false
				}
			}
			if set {
				RowSet(ci, vals[:p], idx[:p], b.Data, n)
			} else if p > 0 {
				RowAcc(ci, vals[:p], idx[:p], b.Data, n)
			}
		}
	})
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
// (columns of A); each worker walks A and B in panels of panelRows rows:
// per output row k it gathers the panel's nonzero A[i,k] and sums the panel
// rows of B they weight with one call, RowSet in the first panel and RowAcc
// in each later panel with a nonzero (with no rows in A, one RowSet of no
// entries sets the row to +0). Every element still takes its products in ascending i, whatever the
// split, so the result is deterministic.
func MatMulTAInto(a, b, c *Dense) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTA shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	n := b.Cols
	ParallelRows(a.Cols, func(k0, k1 int) {
		var vals [panelRows]float32
		var idx [panelRows]int32
		if a.Rows == 0 {
			for k := k0; k < k1; k++ {
				RowSet(c.Data[k*n:(k+1)*n], nil, nil, nil, n)
			}
		}
		for i0 := 0; i0 < a.Rows; i0 += panelRows {
			i1 := min(i0+panelRows, a.Rows)
			panel := b.Data[i0*n : i1*n]
			for k := k0; k < k1; k++ {
				p := gatherColumn(&vals, &idx, a.Data[i0*a.Cols+k:], a.Cols, i1-i0)
				if i0 == 0 {
					RowSet(c.Data[k*n:(k+1)*n], vals[:p], idx[:p], panel, n)
				} else if p > 0 {
					RowAcc(c.Data[k*n:(k+1)*n], vals[:p], idx[:p], panel, n)
				}
			}
		}
	})
}

// gatherColumn stores the nonzero entries among col[0], col[stride], …,
// col[(count-1)·stride] in vals, in order, with their positions 0…count-1
// in idx, and returns how many it stored. It keeps what the branch
// `if v != 0` keeps — NaN kept, ±0 skipped — but stores every entry and
// advances only past a nonzero one, a conditional move in place of a
// branch that would mispredict on about half of a post-ReLU column.
//
// It is a function of its own, not inlined, so that the count stays in a
// register: inside MatMulTAInto's worker the compiler spilled it to the
// stack on every entry.
//
//go:noinline
func gatherColumn(vals *[panelRows]float32, idx *[panelRows]int32, col []float32, stride, count int) int {
	p := 0
	for i, at := 0, 0; i < count; i, at = i+1, at+stride {
		v := col[at]
		vals[p], idx[p] = v, int32(i)
		if v != 0 {
			p++
		}
	}
	return p
}

// MatMulTB returns C = A * Bᵀ.
func MatMulTB(a, b *Dense) *Dense {
	c := NewDense(a.Rows, b.Rows)
	MatMulTBInto(a, b, c)
	return c
}

// MatMulTBInto computes c = A * Bᵀ, overwriting c.
//
// A is m x k, B is n x k, C is m x n. It transposes B (the small operand:
// a weight matrix) and sums into each output row the rows t of Bᵀ weighted
// by all of A's row, in ascending t, rowBlock entries per call: RowSet for
// the first block (with k = 0, of no entries: +0), RowAcc for the rest.
// There is no zero-skip: per element those are the dot product's products
// added in the dot product's order starting from +0, so the bits are the
// dot product's, and 0·Inf stays NaN.
func MatMulTBInto(a, b, c *Dense) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTB shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	k, n := a.Cols, b.Rows
	bt := make([]float32, k*n)
	b.transposeInto(bt)
	ParallelRows(a.Rows, func(r0, r1 int) {
		var seq [rowBlock]int32
		for t := range seq {
			seq[t] = int32(t)
		}
		for i := r0; i < r1; i++ {
			ci, ai := c.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k]
			t1 := min(rowBlock, k)
			RowSet(ci, ai[:t1], seq[:t1], bt, n)
			for t0 := t1; t0 < k; t0 += rowBlock {
				t1 := min(t0+rowBlock, k)
				RowAcc(ci, ai[t0:t1], seq[:t1-t0], bt[t0*n:], n)
			}
		}
	})
}

// GemmFLOPs returns the fused multiply-add count of an (m x k)*(k x n) GEMM.
func GemmFLOPs(m, k, n int) int64 { return int64(m) * int64(k) * int64(n) }
