package tensor

import "fmt"

// rowOK is what rowAccPacked returns when every index it was given has a
// row in in; no int32 index equals it.
const rowOK = 1 << 32

// RowAcc sets out[j] += Σ_p vals[p]·in[int(idx[p])*f+j] for every j < f:
// the rows of the row-major matrix in (rows of f floats) that idx picks,
// weighted by vals, added onto out. It is the library's one inner loop:
// MatMulInto, MatMulTAInto, MatMulTBInto, sparse.SpMMInto,
// sparse.MaskedSpMMInto and the comm reductions all end in it.
//
// Each element's products are added onto its value in entry order, one
// rounded multiply then one rounded add per entry, the product the first
// operand of the add, never a fused multiply-add: onto a cleared out, the
// bits of the textbook loop over the entries. An index outside
// [0, len(in)/f) is never used to read in: it panics with a RowError, and
// nothing has been added to out.
//
// It inlines into its callers' row loops at exactly the inliner's budget
// (80): the index check runs inside rowAccPacked, and the panic message is
// formatted only when the runtime prints it.
func RowAcc(out, vals []float32, idx []int32, in []float32, f int) {
	if c := rowAccPacked(out[:f], vals[:len(idx)], idx, in, f); c != rowOK {
		panic(RowError(c))
	}
}

// RowError is RowAcc's panic value: an index with no row of the dense
// operand behind it (in an SpMM, a stored column of the sparse matrix).
type RowError int64

func (e RowError) Error() string {
	return fmt.Sprintf("tensor: index %d has no row in the dense operand", int64(e))
}

// rowAccLoop is rowAccPacked as a plain Go loop: the portable
// implementation and the test oracle. It returns the first index outside
// [0, len(in)/f), having written nothing, or rowOK. The conversion rounds
// the product, which keeps compilers that fuse x*y+z (arm64, GOAMD64=v3)
// from doing so; on baseline amd64 it compiles to nothing.
func rowAccLoop(out, vals []float32, idx []int32, in []float32, f int) int64 {
	if f == 0 {
		return rowOK
	}
	rows := uint(len(in) / f)
	for _, c := range idx {
		if uint(c) >= rows {
			return int64(c)
		}
	}
	out = out[:f]
	for p, c := range idx {
		s := vals[p]
		for j, v := range in[int(c)*f : int(c)*f+f] {
			out[j] += float32(s * v)
		}
	}
	return rowOK
}
