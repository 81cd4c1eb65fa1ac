package baselines

import (
	"fmt"
	"math"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
)

// CAGNET2D implements CAGNET's 2D SUMMA-style distributed SpMM on a
// √P × √P device grid: both the sparse matrix and the dense operand are
// partitioned in 2D blocks, and each of the √P stages broadcasts one
// sparse block column within grid rows and one dense block row within
// grid columns. Unlike the 1D/1.5D schemes it also moves the *sparse*
// matrix — the trade-off the paper's redistribution approach avoids
// entirely. Provided as a kernel-level comparator (CAGNET evaluates its
// SpMM algorithms the same way).
type CAGNET2D struct {
	dev  *comm.Device
	q    int // grid side
	i, j int // grid coordinates
	n    int
	// ownA is A's block (i, j) — the only block this device owns; the
	// blocks needed at each SUMMA stage arrive by broadcast at run time.
	ownA     *sparse.CSR
	rowGroup []int // ranks in my grid row (broadcast domain for A blocks)
	colGroup []int // ranks in my grid column (broadcast domain for B blocks)
}

// NewCAGNET2D slices this device's sparse block out of a. P must be a
// perfect square.
func NewCAGNET2D(dev *comm.Device, a *sparse.CSR) *CAGNET2D {
	p := dev.P()
	q := int(math.Round(math.Sqrt(float64(p))))
	if q*q != p {
		panic(fmt.Sprintf("baselines: CAGNET 2D needs a square device count, got P=%d", p))
	}
	if a.Rows != a.Cols {
		panic("baselines: CAGNET 2D needs a square sparse matrix")
	}
	g := &CAGNET2D{dev: dev, q: q, i: dev.Rank / q, j: dev.Rank % q, n: a.Rows}
	rlo, rhi := dist.PartRange(a.Rows, q, g.i)
	clo, chi := dist.PartRange(a.Cols, q, g.j)
	g.ownA = a.RowPanel(rlo, rhi).ColPanel(clo, chi)
	for t := 0; t < q; t++ {
		g.rowGroup = append(g.rowGroup, g.i*q+t)
		g.colGroup = append(g.colGroup, t*q+g.j)
	}
	return g
}

// BlockShape returns this device's dense block shape for a global N x f
// operand: rows PartRange(N, q, i) x cols PartRange(f, q, j).
func (g *CAGNET2D) BlockShape(f int) (rows, cols int) {
	rlo, rhi := dist.PartRange(g.n, g.q, g.i)
	clo, chi := dist.PartRange(f, g.q, g.j)
	return rhi - rlo, chi - clo
}

// SpMM computes this device's block of C = A·B, where bLocal is this
// device's 2D block of the global N x f dense operand.
func (g *CAGNET2D) SpMM(bLocal *tensor.Dense, f int) *tensor.Dense {
	wantR, wantC := g.BlockShape(f)
	if bLocal.Rows != wantR || bLocal.Cols != wantC {
		panic(fmt.Sprintf("baselines: 2D block shape %dx%d, want %dx%d",
			bLocal.Rows, bLocal.Cols, wantR, wantC))
	}
	out := tensor.NewDense(wantR, bLocal.Cols)
	for k := 0; k < g.q; k++ {
		// Broadcast A block (i, k) within grid row i from column-k owner.
		var aPayload []float32
		if g.j == k {
			aPayload = encodeCSR(g.ownA)
		}
		aPayload = g.dev.Broadcast(g.rowGroup, g.i*g.q+k, aPayload)
		aBlock := decodeCSR(aPayload)

		// Broadcast B block (k, j) within grid column j from row-k owner.
		var bPayload []float32
		if g.i == k {
			bPayload = bLocal.Data
		}
		bPayload = g.dev.Broadcast(g.colGroup, k*g.q+g.j, bPayload)
		bBlock := tensor.FromRowMajor(aBlock.Cols, bLocal.Cols, bPayload)

		// Accumulate C(i,j) += A(i,k) · B(k,j).
		partial := aBlock.SpMM(bBlock)
		g.dev.ChargeSpMM(aBlock.NNZ(), bBlock.Cols)
		out.Add(partial)
	}
	g.dev.ChargeMem(out.Bytes())
	return out
}

// encodeCSR serializes a CSR into a float32 payload (bit-stuffed int32
// indices), so sparse blocks can travel over the float fabric the way
// NCCL ships raw bytes. Layout: [rows, cols, nnz, rowptr..., colidx...,
// vals...].
func encodeCSR(m *sparse.CSR) []float32 {
	nnz := int(m.NNZ())
	out := make([]float32, 0, 3+m.Rows+1+2*nnz)
	out = append(out, intBits(m.Rows), intBits(m.Cols), intBits(nnz))
	for _, v := range m.RowPtr {
		out = append(out, intBits(int(v)))
	}
	for _, c := range m.ColIdx {
		out = append(out, intBits(int(c)))
	}
	out = append(out, m.Val...)
	return out
}

// decodeCSR reverses encodeCSR.
func decodeCSR(buf []float32) *sparse.CSR {
	rows, cols, nnz := bitsInt(buf[0]), bitsInt(buf[1]), bitsInt(buf[2])
	m := &sparse.CSR{
		Rows: rows, Cols: cols,
		RowPtr: make([]int64, rows+1),
		ColIdx: make([]int32, nnz),
		Val:    make([]float32, nnz),
	}
	at := 3
	for i := range m.RowPtr {
		m.RowPtr[i] = int64(bitsInt(buf[at]))
		at++
	}
	for i := range m.ColIdx {
		m.ColIdx[i] = int32(bitsInt(buf[at]))
		at++
	}
	copy(m.Val, buf[at:at+nnz])
	return m
}

func intBits(v int) float32 { return math.Float32frombits(uint32(int32(v))) }
func bitsInt(f float32) int { return int(int32(math.Float32bits(f))) }

// Distribute2D slices this device's 2D block out of a global matrix.
func Distribute2D(dev *comm.Device, global *tensor.Dense) *tensor.Dense {
	p := dev.P()
	q := int(math.Round(math.Sqrt(float64(p))))
	i, j := dev.Rank/q, dev.Rank%q
	rlo, rhi := dist.PartRange(global.Rows, q, i)
	clo, chi := dist.PartRange(global.Cols, q, j)
	return global.RowSlice(rlo, rhi).ColSlice(clo, chi)
}
