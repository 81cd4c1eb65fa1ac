// Package sparse implements compressed sparse row (CSR) matrices and the
// parallel sparse kernels (SpMM, masked SpMM, transpose, row-panel
// extraction, GCN normalization) that realize the aggregation step of a
// GNN layer.
package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"gnnrdm/internal/tensor"
)

// CSR is a sparse matrix in compressed sparse row format.
//
// Row i's nonzeros occupy ColIdx[RowPtr[i]:RowPtr[i+1]] (column indices,
// sorted ascending within a row) and Val[RowPtr[i]:RowPtr[i+1]].
type CSR struct {
	Rows, Cols int
	RowPtr     []int64
	ColIdx     []int32
	Val        []float32
}

// NewEmpty returns an r x c CSR with no nonzeros.
func NewEmpty(r, c int) *CSR {
	return &CSR{Rows: r, Cols: c, RowPtr: make([]int64, r+1)}
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int64 { return m.RowPtr[m.Rows] }

// Bytes reports the memory footprint of the index and value arrays.
func (m *CSR) Bytes() int64 {
	return int64(len(m.RowPtr))*8 + int64(len(m.ColIdx))*4 + int64(len(m.Val))*4
}

// Coord is a single (row, col, value) triple used to build CSR matrices.
type Coord struct {
	Row, Col int32
	Val      float32
}

// FromCoords builds a CSR from coordinate triples and leaves coords as it
// is. A counting pass by row scatters the triples straight into ColIdx
// and Val; a row whose columns do not already ascend is then sorted
// stably by column. Duplicate (row, col) entries are summed in input
// order, starting from +0, so every stored value is 0 + its entries.
// Explicit zeros are kept.
func FromCoords(r, c int, coords []Coord) *CSR {
	m := NewEmpty(r, c)
	for _, e := range coords {
		if int(e.Row) >= r || int(e.Col) >= c || e.Row < 0 || e.Col < 0 {
			panic(fmt.Sprintf("sparse: coord (%d,%d) outside %dx%d", e.Row, e.Col, r, c))
		}
		m.RowPtr[e.Row+1]++
	}
	for i := 0; i < r; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	// RowPtr[i] is row i's cursor during the scatter, which leaves it at
	// row i's end; shifting by one restores the row starts.
	m.ColIdx = make([]int32, len(coords))
	m.Val = make([]float32, len(coords))
	for _, e := range coords {
		p := m.RowPtr[e.Row]
		m.ColIdx[p], m.Val[p] = e.Col, e.Val
		m.RowPtr[e.Row]++
	}
	copy(m.RowPtr[1:], m.RowPtr[:r])
	m.RowPtr[0] = 0
	// Merge each row in place: the write cursor w never passes the row
	// being read, and RowPtr[i+1] is read before it is rewritten.
	var keys []uint64
	w := int64(0)
	for i := 0; i < r; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		cols, vals := m.ColIdx[lo:hi], m.Val[lo:hi]
		if !slices.IsSorted(cols) {
			keys = sortRow(cols, vals, keys)
		}
		m.RowPtr[i] = w
		for p := 0; p < len(cols); {
			col, v := cols[p], float32(0)
			for ; p < len(cols) && cols[p] == col; p++ {
				v += vals[p]
			}
			m.ColIdx[w], m.Val[w] = col, v
			w++
		}
	}
	m.RowPtr[r] = w
	m.ColIdx, m.Val = m.ColIdx[:w], m.Val[:w]
	return m
}

// sortRow sorts one row's entries by column, stably: each entry becomes
// the key col<<32 | position, and after the sort the key's low half
// carries the value's bits back. keys is scratch, returned for reuse.
func sortRow(cols []int32, vals []float32, keys []uint64) []uint64 {
	keys = keys[:0]
	for k, c := range cols {
		keys = append(keys, uint64(c)<<32|uint64(k))
	}
	slices.Sort(keys)
	for k, key := range keys {
		keys[k] = key&^math.MaxUint32 | uint64(math.Float32bits(vals[uint32(key)]))
	}
	for k, key := range keys {
		cols[k], vals[k] = int32(key>>32), math.Float32frombits(uint32(key))
	}
	return keys
}

// Symmetric returns the n x n pattern of E + Eᵀ without its diagonal, with
// unit values: edges lists E's entries, whose values are ignored, and may
// hold self loops and repeats. Both directions of every edge are counted
// and scattered into unsorted row buckets; transposing the buckets visits
// their rows in order, so every row's columns come out ascending (E + Eᵀ
// is its own transpose), and the adjacent repeats are then dropped in
// place.
func Symmetric(n int, edges []Coord) *CSR {
	b := NewEmpty(n, n)
	for _, e := range edges {
		if int(e.Row) >= n || int(e.Col) >= n || e.Row < 0 || e.Col < 0 {
			panic(fmt.Sprintf("sparse: edge (%d,%d) outside %dx%d", e.Row, e.Col, n, n))
		}
		if e.Row != e.Col {
			b.RowPtr[e.Row+1]++
			b.RowPtr[e.Col+1]++
		}
	}
	for i := 0; i < n; i++ {
		b.RowPtr[i+1] += b.RowPtr[i]
	}
	next := slices.Clone(b.RowPtr[:n])
	b.ColIdx = make([]int32, b.RowPtr[n])
	for _, e := range edges {
		if e.Row != e.Col {
			b.ColIdx[next[e.Row]] = e.Col
			next[e.Row]++
			b.ColIdx[next[e.Col]] = e.Row
			next[e.Col]++
		}
	}
	b.Val = make([]float32, b.RowPtr[n])
	for p := range b.Val {
		b.Val[p] = 1
	}
	m := b.Transpose()
	w := int64(0)
	for i := 0; i < n; i++ {
		row := m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]]
		m.RowPtr[i] = w
		for k, c := range row {
			if k == 0 || c != row[k-1] {
				m.ColIdx[w] = c
				w++
			}
		}
	}
	m.RowPtr[n] = w
	m.ColIdx, m.Val = m.ColIdx[:w], m.Val[:w]
	return m
}

// At returns element (i, j); zero if not stored. O(log nnz(i)).
func (m *CSR) At(i, j int) float32 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	idx := m.ColIdx[lo:hi]
	k := sort.Search(len(idx), func(t int) bool { return idx[t] >= int32(j) })
	if k < len(idx) && idx[k] == int32(j) {
		return m.Val[lo+int64(k)]
	}
	return 0
}

// ToDense materializes the matrix densely (for tests on small inputs).
func (m *CSR) ToDense() *tensor.Dense {
	out := tensor.NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out.Set(i, int(m.ColIdx[p]), m.Val[p])
		}
	}
	return out
}

// Transpose returns the CSR of the transpose (equivalently, the matrix in
// CSC form reinterpreted as CSR).
func (m *CSR) Transpose() *CSR {
	t := NewEmpty(m.Cols, m.Rows)
	nnz := m.NNZ()
	t.ColIdx = make([]int32, nnz)
	t.Val = make([]float32, nnz)
	// Count entries per output row (= input column).
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < t.Rows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int64, t.Rows)
	copy(next, t.RowPtr[:t.Rows])
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c := m.ColIdx[p]
			dst := next[c]
			t.ColIdx[dst] = int32(i)
			t.Val[dst] = m.Val[p]
			next[c]++
		}
	}
	return t
}

// RowPanel returns rows [r0, r1) as an (r1-r0) x Cols CSR that views
// m's storage: ColIdx and Val are capacity-clipped subslices, so an
// append copies rather than writing into m, and RowPtr is m's own when
// r0 == 0 and a rebased copy otherwise. Writing into a panel writes
// into m.
func (m *CSR) RowPanel(r0, r1 int) *CSR {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic(fmt.Sprintf("sparse: RowPanel [%d,%d) outside %d rows", r0, r1, m.Rows))
	}
	lo, hi := m.RowPtr[r0], m.RowPtr[r1]
	out := &CSR{Rows: r1 - r0, Cols: m.Cols, ColIdx: m.ColIdx[lo:hi:hi], Val: m.Val[lo:hi:hi]}
	if r0 == 0 {
		out.RowPtr = m.RowPtr[: r1+1 : r1+1]
		return out
	}
	out.RowPtr = make([]int64, r1-r0+1)
	for i := r0; i <= r1; i++ {
		out.RowPtr[i-r0] = m.RowPtr[i] - lo
	}
	return out
}

// ColPanel returns a copy of columns [c0, c1) as a Rows x (c1-c0) CSR
// with column indices rebased to the panel. Rows stay sorted.
func (m *CSR) ColPanel(c0, c1 int) *CSR {
	if c0 < 0 || c1 > m.Cols || c0 > c1 {
		panic(fmt.Sprintf("sparse: ColPanel [%d,%d) outside %d cols", c0, c1, m.Cols))
	}
	out := NewEmpty(m.Rows, c1-c0)
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		idx := m.ColIdx[lo:hi]
		a := sort.Search(len(idx), func(t int) bool { return idx[t] >= int32(c0) })
		b := sort.Search(len(idx), func(t int) bool { return idx[t] >= int32(c1) })
		for p := a; p < b; p++ {
			out.ColIdx = append(out.ColIdx, idx[p]-int32(c0))
			out.Val = append(out.Val, m.Val[lo+int64(p)])
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// SubMatrix extracts the induced submatrix on the given (sorted or unsorted,
// duplicate-free) row and column vertex sets, relabeling indices to the
// positions within the sets. Used by GraphSAINT subgraph construction with
// rows == cols.
func (m *CSR) SubMatrix(rows, cols []int32) *CSR {
	colPos := make(map[int32]int32, len(cols))
	for i, c := range cols {
		colPos[c] = int32(i)
	}
	var coords []Coord
	for ri, r := range rows {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			if cj, ok := colPos[m.ColIdx[p]]; ok {
				coords = append(coords, Coord{Row: int32(ri), Col: cj, Val: m.Val[p]})
			}
		}
	}
	return FromCoords(len(rows), len(cols), coords)
}

// SpMM computes Out = M * In for dense In, in parallel over disjoint row
// blocks (deterministic summation order).
func (m *CSR) SpMM(in *tensor.Dense) *tensor.Dense {
	if in.Rows != m.Cols {
		panic(fmt.Sprintf("sparse: SpMM inner mismatch %dx%d * %dx%d", m.Rows, m.Cols, in.Rows, in.Cols))
	}
	out := tensor.NewDense(m.Rows, in.Cols)
	m.SpMMInto(in, out)
	return out
}

// SpMMInto computes out = M * in, overwriting out: each worker hands its
// rows of out to one tensor.RowSetRuns with its slice of RowPtr as it
// stands, which sets every row (an empty one to +0) without reading it. A
// stored column index outside [0, in.Rows) panics with a tensor.RowError
// naming the column, unless in has no columns and so nothing is read; the
// worker's rows before the bad one's are then set, that row and the rest
// of the worker's rows +0.
func (m *CSR) SpMMInto(in, out *tensor.Dense) {
	if in.Rows != m.Cols || out.Rows != m.Rows || out.Cols != in.Cols {
		panic(fmt.Sprintf("sparse: SpMMInto shape mismatch M=%dx%d in=%dx%d out=%dx%d",
			m.Rows, m.Cols, in.Rows, in.Cols, out.Rows, out.Cols))
	}
	f := in.Cols
	tensor.ParallelRows(m.Rows, func(r0, r1 int) {
		tensor.RowSetRuns(out.Data[r0*f:], m.Val, m.ColIdx, m.RowPtr[r0:r1+1], in.Data, f)
	})
}

// maskBlock is the most permitted entries of a row that MaskedSpMMInto
// gathers on the worker's stack for one tensor.RowAcc call.
const maskBlock = 128

// MaskedSpMMInto computes out = (M ⊙ mask) * in, overwriting out, where
// mask selects, per output row, a subset of M's stored columns. mask[i]
// lists the permitted column indices for row i (sorted ascending); a nil
// mask, or a nil mask row, keeps all columns. This realizes sampled
// aggregation for samplers that do not build explicit subgraphs (§III-F).
// Each row's permitted entries are gathered in column order and summed
// maskBlock at a time, tensor.RowSet for the first block (a row with none
// sets +0) and tensor.RowAcc for each later non-empty one: the bits of
// SpMMInto on the masked matrix. A permitted column with no row in in
// panics with a tensor.RowError naming it, as in SpMMInto; the worker's
// rows from that row on are then not specified (unlike SpMMInto's, they
// are not set to +0).
func (m *CSR) MaskedSpMMInto(in *tensor.Dense, mask [][]int32, out *tensor.Dense) {
	if in.Rows != m.Cols || out.Rows != m.Rows || out.Cols != in.Cols {
		panic(fmt.Sprintf("sparse: MaskedSpMMInto shape mismatch M=%dx%d in=%dx%d out=%dx%d",
			m.Rows, m.Cols, in.Rows, in.Cols, out.Rows, out.Cols))
	}
	if mask != nil && len(mask) != m.Rows {
		panic(fmt.Sprintf("sparse: MaskedSpMMInto mask has %d rows, M=%dx%d", len(mask), m.Rows, m.Cols))
	}
	f := in.Cols
	tensor.ParallelRows(m.Rows, func(r0, r1 int) {
		var vals [maskBlock]float32
		var cols [maskBlock]int32
		for i := r0; i < r1; i++ {
			var allowed []int32
			if mask != nil {
				allowed = mask[i]
			}
			oi := out.Data[i*f:]
			n, k, set := 0, 0, true
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				c := m.ColIdx[p]
				if allowed != nil {
					for k < len(allowed) && allowed[k] < c {
						k++
					}
					if k >= len(allowed) || allowed[k] != c {
						continue
					}
				}
				vals[n], cols[n] = m.Val[p], c
				if n++; n == maskBlock {
					if set {
						tensor.RowSet(oi, vals[:], cols[:], in.Data, f)
					} else {
						tensor.RowAcc(oi, vals[:], cols[:], in.Data, f)
					}
					n, set = 0, false
				}
			}
			if set {
				tensor.RowSet(oi, vals[:n], cols[:n], in.Data, f)
			} else if n > 0 {
				tensor.RowAcc(oi, vals[:n], cols[:n], in.Data, f)
			}
		}
	})
}

// RowNormalize returns the random-walk propagation matrix D^{-1}(A + I):
// each row of A plus a self loop divided by its degree. The result is
// generally asymmetric — pair it with its Transpose via
// core.Problem.ATranspose. This is the GraphSAGE-GCN ("mean")
// aggregator's operator.
func RowNormalize(a *CSR) *CSR {
	if a.Rows != a.Cols {
		panic("sparse: RowNormalize requires a square matrix")
	}
	out := withSelfLoops(a)
	for i := 0; i < out.Rows; i++ {
		deg := float32(out.RowPtr[i+1] - out.RowPtr[i])
		for p := out.RowPtr[i]; p < out.RowPtr[i+1]; p++ {
			out.Val[p] = 1 / deg
		}
	}
	return out
}

// GCNNormalize returns the symmetric GCN propagation matrix
// D^{-1/2} (A + I) D^{-1/2}, where D is the degree matrix of A + I. This is
// the normalization used by Kipf & Welling GCN and reused from CAGNET in
// the paper.
func GCNNormalize(a *CSR) *CSR {
	if a.Rows != a.Cols {
		panic("sparse: GCNNormalize requires a square matrix")
	}
	n := a.Rows
	withSelf := withSelfLoops(a)
	deg := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for p := withSelf.RowPtr[i]; p < withSelf.RowPtr[i+1]; p++ {
			s += float64(withSelf.Val[p])
		}
		deg[i] = s
	}
	for i := 0; i < n; i++ {
		di := 1.0 / math.Sqrt(deg[i])
		for p := withSelf.RowPtr[i]; p < withSelf.RowPtr[i+1]; p++ {
			dj := 1.0 / math.Sqrt(deg[withSelf.ColIdx[p]])
			withSelf.Val[p] = float32(float64(withSelf.Val[p]) * di * dj)
		}
	}
	return withSelf
}

// withSelfLoops returns the pattern of the square A plus a self loop on
// every row, with unit values: one merge pass over A's rows puts column i
// in its place in row i and skips a stored diagonal. It panics, naming the
// row, on a row whose pointers fall or whose columns do not strictly
// ascend within [0, n), which the CSR type rules out.
func withSelfLoops(a *CSR) *CSR {
	n := a.Rows
	out := NewEmpty(n, n)
	for i := 0; i < n; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		if lo > hi {
			panic(fmt.Sprintf("sparse: row %d's pointers fall from %d to %d", i, lo, hi))
		}
		row, diag := a.ColIdx[lo:hi], int64(1)
		for k, c := range row {
			if c < 0 || int(c) >= n || k > 0 && c <= row[k-1] {
				panic(fmt.Sprintf("sparse: row %d's columns do not strictly ascend within [0, %d)", i, n))
			}
			if int(c) == i {
				diag = 0
			}
		}
		out.RowPtr[i+1] = out.RowPtr[i] + hi - lo + diag
	}
	out.ColIdx = make([]int32, out.RowPtr[n])
	out.Val = make([]float32, out.RowPtr[n])
	for i := 0; i < n; i++ {
		row := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]]
		k, found := slices.BinarySearch(row, int32(i))
		q := out.RowPtr[i] + int64(copy(out.ColIdx[out.RowPtr[i]:], row[:k]))
		out.ColIdx[q] = int32(i)
		if found {
			k++
		}
		copy(out.ColIdx[q+1:], row[k:])
	}
	for p := range out.Val {
		out.Val[p] = 1
	}
	return out
}
