package sparse

import "fmt"

// rowOK is what spmmRowPacked returns when every column it was given has a
// row in the dense operand; no int32 column index equals it.
const rowOK = 1 << 32

// spmmRow sets out[j] = Σ_p vals[p]·in[int(cols[p])*f+j] for every j < f:
// one CSR row of M times the row-major matrix in, whose rows are f floats.
// Each element's products are added in entry order to a +0 accumulator, one
// rounded multiply then one rounded add per entry, the product the first
// operand of the add: the bits of clearing out[:f] and calling tensor.Axpy
// once per entry. A column outside [0, len(in)/f) is never used to read in:
// it panics with a columnError, and out's contents are then unspecified.
//
// It inlines into SpMMInto's row loop at exactly the inliner's budget (80):
// the column check runs inside spmmRowPacked, the panic message is
// formatted only when the runtime prints it, and a call to a formatting
// helper here would cost another 57.
func spmmRow(out, vals []float32, cols []int32, in []float32, f int) {
	if c := spmmRowPacked(out[:f], vals[:len(cols)], cols, in, f); c != rowOK {
		panic(columnError(c))
	}
}

// columnError is spmmRow's panic value: a stored column index with no row
// of the dense operand behind it.
type columnError int64

func (c columnError) Error() string {
	return fmt.Sprintf("sparse: SpMM column index %d has no row in the dense operand", int64(c))
}

// spmmRowLoop is spmmRowPacked as a plain Go loop: the portable
// implementation and the test oracle. It returns the first column outside
// [0, len(in)/f), or rowOK. As in tensor's axpyLoop, the conversion rounds
// the product so that no compiler fuses it into the add.
func spmmRowLoop(out, vals []float32, cols []int32, in []float32, f int) int64 {
	out = out[:f]
	clear(out)
	if f == 0 {
		return rowOK
	}
	rows := uint(len(in) / f)
	for p, c := range cols {
		if uint(c) >= rows {
			return int64(c)
		}
		s := vals[p]
		for j, v := range in[int(c)*f : int(c)*f+f] {
			out[j] += float32(s * v)
		}
	}
	return rowOK
}
