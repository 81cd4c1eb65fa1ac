// Package tensor provides dense row-major float32 matrices and the
// parallel matrix kernels (GEMM and friends) used throughout the GNN-RDM
// reproduction. All kernels are deterministic: parallel partitioning is
// by disjoint row blocks, so floating-point summation order is fixed
// regardless of GOMAXPROCS.
package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Dense is a dense matrix stored in row-major order. The zero value is an
// empty 0x0 matrix.
type Dense struct {
	Rows, Cols int
	// Data holds Rows*Cols elements; element (i,j) is Data[i*Cols+j].
	Data []float32
}

// NewDense allocates a zeroed r x c matrix. It panics, naming the shape,
// on a shape no matrix has (see validShape).
func NewDense(r, c int) *Dense {
	if !validShape(r, c) {
		panic(fmt.Sprintf("tensor: impossible shape %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float32, r*c)}
}

// FromRowMajor wraps existing row-major data (not copied) as a Dense. It
// panics, naming the shape, on one NewDense refuses or on data that does
// not hold exactly r*c elements.
func FromRowMajor(r, c int, data []float32) *Dense {
	if !validShape(r, c) || len(data) != r*c {
		panic(fmt.Sprintf("tensor: data length %d does not fit shape %dx%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// validShape reports whether r x c is a shape a matrix can have: neither
// dimension negative and r*c within an int, which it would otherwise wrap
// (to 0 for 2^32 x 2^32).
func validShape(r, c int) bool {
	hi, lo := bits.Mul(uint(r), uint(c))
	return r >= 0 && c >= 0 && hi == 0 && lo <= math.MaxInt
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m; dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Bytes reports the memory footprint of the element data in bytes.
func (m *Dense) Bytes() int64 { return int64(len(m.Data)) * 4 }

// Randomize fills m with uniform values in [-scale, scale) drawn from rng.
func (m *Dense) Randomize(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = float32((float64(rng.Float64())*2 - 1) * scale)
	}
}

// GlorotInit fills m with the Glorot/Xavier uniform initialization for a
// weight matrix of shape (fanIn, fanOut) = (Rows, Cols).
func (m *Dense) GlorotInit(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	m.Randomize(rng, limit)
}

// Transpose returns a newly allocated transpose of m.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.Cols, m.Rows)
	m.transposeInto(out.Data)
	return out
}

// transposeInto writes mᵀ, row-major, into out, which holds Rows*Cols
// elements.
func (m *Dense) transposeInto(out []float32) {
	// Blocked transpose for cache friendliness.
	const b = 32
	for ii := 0; ii < m.Rows; ii += b {
		for jj := 0; jj < m.Cols; jj += b {
			iMax := min(ii+b, m.Rows)
			jMax := min(jj+b, m.Cols)
			for i := ii; i < iMax; i++ {
				row := m.Data[i*m.Cols:]
				for j := jj; j < jMax; j++ {
					out[j*m.Rows+i] = row[j]
				}
			}
		}
	}
}

// RowSlice returns a copy of rows [r0, r1).
func (m *Dense) RowSlice(r0, r1 int) *Dense {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic(fmt.Sprintf("tensor: RowSlice [%d,%d) out of range for %d rows", r0, r1, m.Rows))
	}
	out := NewDense(r1-r0, m.Cols)
	copy(out.Data, m.Data[r0*m.Cols:r1*m.Cols])
	return out
}

// ColSlice returns a copy of columns [c0, c1).
func (m *Dense) ColSlice(c0, c1 int) *Dense {
	if c0 < 0 || c1 > m.Cols || c0 > c1 {
		panic(fmt.Sprintf("tensor: ColSlice [%d,%d) out of range for %d cols", c0, c1, m.Cols))
	}
	out := NewDense(m.Rows, c1-c0)
	for i := 0; i < m.Rows; i++ {
		copy(out.Data[i*out.Cols:(i+1)*out.Cols], m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
	return out
}

// SetRowSlice copies src into rows [r0, r0+src.Rows) of m.
func (m *Dense) SetRowSlice(r0 int, src *Dense) {
	if src.Cols != m.Cols || r0 < 0 || r0+src.Rows > m.Rows {
		panic("tensor: SetRowSlice shape mismatch")
	}
	copy(m.Data[r0*m.Cols:], src.Data)
}

// SetColSlice copies src into columns [c0, c0+src.Cols) of m.
func (m *Dense) SetColSlice(c0 int, src *Dense) {
	if src.Rows != m.Rows || c0 < 0 || c0+src.Cols > m.Cols {
		panic("tensor: SetColSlice shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Data[i*m.Cols+c0:i*m.Cols+c0+src.Cols], src.Data[i*src.Cols:(i+1)*src.Cols])
	}
}

// ConcatRows stacks the given matrices vertically. All must share Cols.
func ConcatRows(parts ...*Dense) *Dense {
	if len(parts) == 0 {
		return NewDense(0, 0)
	}
	cols := parts[0].Cols
	rows := 0
	for _, p := range parts {
		if p.Cols != cols {
			panic("tensor: ConcatRows column mismatch")
		}
		rows += p.Rows
	}
	out := NewDense(rows, cols)
	at := 0
	for _, p := range parts {
		copy(out.Data[at*cols:], p.Data)
		at += p.Rows
	}
	return out
}

// ConcatCols stacks the given matrices horizontally. All must share Rows.
func ConcatCols(parts ...*Dense) *Dense {
	if len(parts) == 0 {
		return NewDense(0, 0)
	}
	rows := parts[0].Rows
	cols := 0
	for _, p := range parts {
		if p.Rows != rows {
			panic("tensor: ConcatCols row mismatch")
		}
		cols += p.Cols
	}
	out := NewDense(rows, cols)
	at := 0
	for _, p := range parts {
		out.SetColSlice(at, p)
		at += p.Cols
	}
	return out
}

// Add computes m += other element-wise.
func (m *Dense) Add(other *Dense) {
	checkSameShape("Add", m, other)
	for i, v := range other.Data {
		m.Data[i] += v
	}
}

// Scale multiplies every element by s.
func (m *Dense) Scale(s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// ReLU applies max(0, x) in place and returns m: a negative element,
// −denormals included, becomes +0; −0, NaNs and the rest keep their bits.
//
// About half of a layer's pre-activations are negative, so a branch on the
// sign mispredicts half the time. The loop selects a bit pattern instead
// (the compiler lowers it to a conditional move) and stores every element.
func (m *Dense) ReLU() *Dense {
	for i, v := range m.Data {
		b := math.Float32bits(v)
		if v < 0 {
			b = 0
		}
		m.Data[i] = math.Float32frombits(b)
	}
	return m
}

// ReLUGrad applies the ReLU derivative mask of h to m in place and returns
// m: an element of m becomes +0 where h ≤ 0 and keeps its bits everywhere
// else, also where h is NaN. h is the layer's output after ReLU, so about
// half of it is zero; like ReLU, the loop selects instead of branching.
func (m *Dense) ReLUGrad(h *Dense) *Dense {
	checkSameShape("ReLUGrad", m, h)
	hd := h.Data[:len(m.Data)]
	for i, g := range m.Data {
		b := math.Float32bits(g)
		if hd[i] <= 0 {
			b = 0
		}
		m.Data[i] = math.Float32frombits(b)
	}
	return m
}

// MaxAbsDiff returns the maximum absolute element-wise difference.
func MaxAbsDiff(a, b *Dense) float64 {
	checkSameShape("MaxAbsDiff", a, b)
	maxd := 0.0
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

func (m *Dense) String() string {
	return fmt.Sprintf("Dense(%dx%d)", m.Rows, m.Cols)
}

func checkSameShape(op string, a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
