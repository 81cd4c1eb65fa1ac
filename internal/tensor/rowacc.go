package tensor

import (
	"fmt"
	"math/bits"
)

const (
	// rowOK is what rowAccPacked returns when every index it was given has
	// a row in in; no int32 index equals it.
	rowOK = 1 << 32
	// rowBadRun is what rowAccPacked returns, having read and written
	// nothing, when the run itself is malformed: ptr does not ascend from 0,
	// reaches past idx or vals, or its rows do not fit in out.
	rowBadRun = 1 << 33
)

// RowAcc sets out[j] += Σ_p vals[p]·in[int(idx[p])*f+j] for every j < f:
// the rows of the row-major matrix in (rows of f floats) that idx picks,
// weighted by vals, added onto out. It is the add form of the library's one
// inner loop, RowSet its set form, and RowSetRuns the set form over a run
// of rows: the products call RowSet (sparse.SpMMInto RowSetRuns) for the
// first block, panel or run of each output row and RowAcc for every later
// one, and the comm reductions call RowAcc.
//
// Each element's products are added onto its value in entry order, one
// rounded multiply then one rounded add per entry, the product the first
// operand of the add, never a fused multiply-add: onto a cleared out, the
// bits of the textbook loop over the entries. An index outside
// [0, len(in)/f) is never used to read in: it panics with a RowError, and
// nothing has been added to out. So does an out shorter than f or a vals
// shorter than idx.
//
// It inlines into its callers' row loops within the inliner's budget (80,
// cost 77): every check runs inside rowAccPacked, the panic message is
// formatted only when the runtime prints it, and it calls rowAccPacked
// itself, not rowRuns.
func RowAcc(out, vals []float32, idx []int32, in []float32, f int) {
	if c := rowAccPacked(out, vals, idx, nil, in, f, false); c != rowOK {
		panic(RowError(c))
	}
}

// RowSet is RowAcc onto +0: it sets out[j] = Σ_p vals[p]·in[int(idx[p])*f+j]
// for every j < f, the products added in entry order onto +0, and never
// reads out, so a stale or NaN-filled out does not show through. No entries
// set out[:f] to +0. The bits are those of clearing out[:f] and calling
// RowAcc.
//
// A bad index (outside [0, len(in)/f)) panics with a RowError naming it,
// with out[:f] set to +0, as a clear followed by RowAcc leaves it. An out
// shorter than f or a vals shorter than idx panics with a RowError having
// written nothing. It inlines as RowAcc does.
func RowSet(out, vals []float32, idx []int32, in []float32, f int) {
	if c := rowAccPacked(out, vals, idx, nil, in, f, true); c != rowOK {
		panic(RowError(c))
	}
}

// RowSetRuns is RowSet over a run of rows: for each r < len(ptr)-1 it sets
// out[r*f:(r+1)*f] to the sum of the entries [ptr[r], ptr[r+1]) of vals and
// idx, as RowSet would, row after row; an empty row is set to +0. ptr holds
// offsets into vals and idx, a CSR RowPtr slice as it stands, so a run of
// zero rows is a ptr of one offset. An empty ptr, a ptr that does not
// ascend from 0, reaches past idx or vals, or has more rows than out holds
// panics with a RowError before anything is read or written. A bad index
// panics with a RowError naming the first one in row order, with the rows
// before its row set and its row and every row after it in the run +0:
// what clearing the run's rows and adding row after row leaves.
func RowSetRuns(out, vals []float32, idx []int32, ptr []int64, in []float32, f int) {
	rowRuns(out, vals, idx, ptr, in, f, true)
}

// rowRuns is rowAccPacked over a run of rows in either form, panicking
// with a RowError as RowSetRuns does; in the add form a bad index leaves
// its row and the rows after it unchanged.
func rowRuns(out, vals []float32, idx []int32, ptr []int64, in []float32, f int, set bool) {
	// rowAccPacked reads an empty ptr as RowAcc's one row; here it is an
	// error.
	c := int64(rowBadRun)
	if len(ptr) > 0 {
		c = rowAccPacked(out, vals, idx, ptr, in, f, set)
	}
	if c != rowOK {
		panic(RowError(c))
	}
}

// RowError is RowAcc's panic value: an index with no row of the dense
// operand behind it (in an SpMM, a stored column of the sparse matrix), or
// a run that does not fit its operands.
type RowError int64

func (e RowError) Error() string {
	if e == rowBadRun {
		return "tensor: row run outside its operands (ptr not ascending from 0, past idx or vals, or out too short)"
	}
	return fmt.Sprintf("tensor: index %d has no row in the dense operand", int64(e))
}

// rowAccLoop is rowAccPacked as a plain Go loop: the portable
// implementation and the test oracle. It returns rowBadRun for a malformed
// run, having done nothing; else the first index outside [0, len(in)/f),
// having finished the rows before its row (and, in the set form, set its
// row and the rows after it to +0); else rowOK. The set form clears each
// row before its entries are added. The conversion
// rounds the product, which keeps compilers that fuse x*y+z (arm64,
// GOAMD64=v3) from doing so; on baseline amd64 it compiles to nothing.
func rowAccLoop(out, vals []float32, idx []int32, ptr []int64, in []float32, f int, set bool) int64 {
	one := [2]int64{0, int64(len(idx))}
	if len(ptr) == 0 {
		ptr = one[:]
	}
	rows := len(ptr) - 1
	if ptr[0] < 0 || ptr[rows] > int64(len(idx)) || ptr[rows] > int64(len(vals)) {
		return rowBadRun
	}
	for r := range rows {
		if ptr[r+1] < ptr[r] {
			return rowBadRun
		}
	}
	if hi, lo := bits.Mul(uint(rows), uint(f)); hi != 0 || lo > uint(len(out)) {
		return rowBadRun
	}
	if f == 0 {
		return rowOK
	}
	inRows := uint(len(in) / f)
	for r := range rows {
		lo, hi := ptr[r], ptr[r+1]
		for _, c := range idx[lo:hi] {
			if uint(c) >= inRows {
				if set {
					clear(out[r*f : rows*f])
				}
				return int64(c)
			}
		}
		o := out[r*f : r*f+f]
		if set {
			clear(o)
		}
		for p, c := range idx[lo:hi] {
			s := vals[lo+int64(p)]
			for j, v := range in[int(c)*f : int(c)*f+f] {
				o[j] += float32(s * v)
			}
		}
	}
	return rowOK
}
