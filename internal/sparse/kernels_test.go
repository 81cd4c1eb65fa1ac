package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gnnrdm/internal/tensor"
)

// naiveMaskedSpMM is SpMMInto and MaskedSpMM as they stood before
// tensor.Axpy, one thread, kept as the oracle: per output element one rounded
// multiply then one rounded add per stored entry, in column order, with no
// zero-skip. A nil mask is plain SpMM.
func naiveMaskedSpMM(m *CSR, in *tensor.Dense, mask [][]int32) *tensor.Dense {
	f := in.Cols
	out := tensor.NewDense(m.Rows, f)
	for i := 0; i < m.Rows; i++ {
		oi := out.Data[i*f : (i+1)*f]
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c := m.ColIdx[p]
			if mask != nil && mask[i] != nil {
				keep := false
				for _, a := range mask[i] {
					keep = keep || a == c
				}
				if !keep {
					continue
				}
			}
			v := m.Val[p]
			for j, sv := range in.Data[int(c)*f : int(c)*f+f] {
				oi[j] += float32(v * sv)
			}
		}
	}
	return out
}

func requireSameBits(t *testing.T, what string, got, want *tensor.Dense) {
	t.Helper()
	for i := range want.Data {
		g, w := got.Data[i], want.Data[i]
		if math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
			t.Fatalf("%s: element (%d,%d) = %x, naive loop says %x", what, i/want.Cols, i%want.Cols,
				math.Float32bits(g), math.Float32bits(w))
		}
	}
}

// kernelWidths sit on and beside every chunk boundary of spmmRowPacked (32,
// 16, 4 and 1 floats) and tensor.Axpy's packed minimum (12), up to
// Reddit's 602 input features.
var kernelWidths = []int{0, 1, 3, 4, 5, 8, 15, 16, 17, 31, 32, 33, 48, 64, 65, 128, 602}

// TestKernelsMatchNaive pins SpMMInto and MaskedSpMM to the retained naive
// loop bit for bit, on every kernel width, with empty rows, stored zeros of
// both signs (never skipped: 0·Inf must stay NaN) and stale destination
// contents; then SpMMInto alone on hand-built rows of hundreds of entries
// and of one column repeated, which FromCoords would merge.
func TestKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, rows := range []int{0, 1, 23} {
		for _, cols := range []int{1, 19} {
			for _, f := range kernelWidths {
				shape := fmt.Sprintf("%dx%d·%dx%d", rows, cols, cols, f)
				m := randomCSR(rng, rows, cols, 0.4)
				for p := range m.Val {
					switch rng.Intn(4) {
					case 0:
						m.Val[p] = 0
					case 1:
						m.Val[p] = float32(math.Copysign(0, -1))
					}
				}
				in := tensor.NewDense(cols, f)
				in.Randomize(rng, 2)
				if len(in.Data) > 0 {
					in.Data[rng.Intn(len(in.Data))] = float32(math.Inf(1))
				}
				out := tensor.NewDense(rows, f)
				out.Fill(99)
				m.SpMMInto(in, out)
				requireSameBits(t, "SpMMInto "+shape, out, naiveMaskedSpMM(m, in, nil))

				// Per row: keep everything (nil), nothing, or every other column.
				mask := make([][]int32, rows)
				for i := range mask {
					switch i % 3 {
					case 1:
						mask[i] = []int32{}
					case 2:
						for c := 0; c < cols; c += 2 {
							mask[i] = append(mask[i], int32(c))
						}
					}
				}
				requireSameBits(t, "MaskedSpMM "+shape, m.MaskedSpMM(in, mask), naiveMaskedSpMM(m, in, mask))
			}
		}
	}

	// Row 0: 700 entries over 19 columns, so every column recurs; row 1: one
	// column 300 times; row 2: empty; row 3: the first and last column.
	const cols = 19
	m := &CSR{Rows: 4, Cols: cols, RowPtr: []int64{0, 700, 1000, 1000, 1002}}
	for p := 0; p < 700; p++ {
		m.ColIdx = append(m.ColIdx, int32(rng.Intn(cols)))
	}
	for p := 0; p < 300; p++ {
		m.ColIdx = append(m.ColIdx, 7)
	}
	m.ColIdx = append(m.ColIdx, 0, cols-1)
	m.Val = make([]float32, len(m.ColIdx))
	for p := range m.Val {
		m.Val[p] = float32(rng.NormFloat64())
	}
	for _, f := range kernelWidths {
		in := tensor.NewDense(cols, f)
		in.Randomize(rng, 2)
		out := tensor.NewDense(m.Rows, f)
		out.Fill(float32(math.NaN()))
		m.SpMMInto(in, out)
		requireSameBits(t, fmt.Sprintf("SpMMInto long and repeated rows f=%d", f), out, naiveMaskedSpMM(m, in, nil))
	}
}

// TestSpMMIntoBadColumnPanics stores, in turn, each column index with no row
// in the dense operand — one past the last, negative, and far enough out that
// an unchecked load would fault — and requires SpMMInto to panic naming it.
// One row keeps the kernel on the test's goroutine, where recover sees it.
func TestSpMMIntoBadColumnPanics(t *testing.T) {
	for _, f := range []int{1, 4, 33} {
		for _, bad := range []int32{3, -1, 1 << 30} {
			m := &CSR{Rows: 1, Cols: 3, RowPtr: []int64{0, 3},
				ColIdx: []int32{0, 2, bad}, Val: []float32{1, 1, 1}}
			in, out := tensor.NewDense(3, f), tensor.NewDense(1, f)
			func() {
				defer func() {
					err, ok := recover().(error)
					if want := fmt.Sprintf("column index %d ", bad); !ok || !strings.Contains(err.Error(), want) {
						t.Errorf("f=%d column %d: recovered %v, want an error containing %q", f, bad, err, want)
					}
				}()
				m.SpMMInto(in, out)
			}()
		}
	}
}

func TestSpMMIntoShapeMismatchNamesShapes(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "M=2x3 in=4x5 out=2x5") {
			t.Fatalf("panic %q does not name all three shapes", msg)
		}
	}()
	m := NewEmpty(2, 3)
	m.SpMMInto(tensor.NewDense(4, 5), tensor.NewDense(2, 5))
}

// FuzzSpMMRow feeds the row kernel arbitrary bit patterns (NaNs of every
// payload included), widths 0–67, 0–40 entries, repeated and out-of-range
// columns and unaligned slices, and requires spmmRowLoop's result, the same
// bits in out — NaN payloads too, which is what pins the product as the
// first operand of each add — and nothing written outside out[:f].
//
// Input: f, entry count, rows-1 | extra<<3 (extra floats past the last full
// row of in), slice offsets (out low two bits, in the next two); then per
// entry a column byte and a little-endian float32 value; then the words of
// in, repeated to fill it. Column bytes below 0xf0 pick a row modulo rows,
// 0xf0–0xf7 one 0–7 rows past the last, 0xf8–0xff a negative or huge index.
func FuzzSpMMRow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 1, 0, 0, 0, 0, 0x80, 0x3f, 1, 0, 0, 0, 0xc0, 2, 0, 0, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		width, n, rows := int(data[0])%68, int(data[1])%41, 1+int(data[2]&7)
		extra := 0
		if width > 0 {
			extra = int(data[2]>>3) % width
		}
		oo, io := int(data[3]&3), int(data[3]>>2&3)
		body := data[4:]
		byteAt := func(i int) byte {
			if i < len(body) {
				return body[i]
			}
			return 0
		}
		word := func(i int) float32 {
			return math.Float32frombits(uint32(byteAt(i)) | uint32(byteAt(i+1))<<8 |
				uint32(byteAt(i+2))<<16 | uint32(byteAt(i+3))<<24)
		}
		cols, vals := make([]int32, n), make([]float32, n)
		for p := range cols {
			switch b := byteAt(5 * p); {
			case b < 0xf0:
				cols[p] = int32(int(b) % rows)
			case b < 0xf8:
				cols[p] = int32(rows + int(b&7))
			default:
				cols[p] = []int32{-1, math.MinInt32, 1 << 30, math.MaxInt32}[b&3]
			}
			vals[p] = word(5*p + 1)
		}
		in := make([]float32, io+rows*width+extra)
		if words := (len(body) - 5*n) / 4; words > 0 {
			for i := range in[io:] {
				in[io+i] = word(5*n + 4*(i%words))
			}
		}
		const guard = 5
		got := make([]float32, oo+width+guard)
		for i := range got {
			got[i] = float32(i + 1)
		}
		want := append([]float32(nil), got...)
		gc := spmmRowPacked(got[oo:], vals, cols, in[io:], width)
		wc := spmmRowLoop(want[oo:], vals, cols, in[io:], width)
		if gc != wc {
			t.Fatalf("f=%d cols=%v: kernel reports %d, loop %d", width, cols, gc, wc)
		}
		for j := range want {
			inRow := j >= oo && j < oo+width
			if (wc == rowOK || !inRow) && math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("f=%d n=%d oo=%d io=%d: out[%d] = %x, loop says %x", width, n, oo, io,
					j-oo, math.Float32bits(got[j]), math.Float32bits(want[j]))
			}
		}
	})
}

// BenchmarkSpMMInto runs the aggregation kernel on row panels shaped like the
// benchmark's train workloads (benchmark/README.md), one per SpMM width a
// device runs: Reddit/64 at P=4 under config 10 (910 of 3640 rows, ≈368
// entries a row, 32 features a device), OGB-Arxiv/8 at P=8 under config 0
// (2646 of 21167 rows, ≈15 entries a row, 16 hidden and 5 label features a
// device) and the wide R-MAT at P=8 (24576 of 196608 rows, ≈2 entries a row,
// 2 features).
func BenchmarkSpMMInto(b *testing.B) {
	for _, s := range []struct {
		name               string
		rows, cols, deg, f int
	}{
		{"reddit_910x3640_deg368_f32", 910, 3640, 368, 32},
		{"arxiv_2646x21167_deg15_f16", 2646, 21167, 15, 16},
		{"arxiv_2646x21167_deg15_f5", 2646, 21167, 15, 5},
		{"rmat_24576x196608_deg2_f2", 24576, 196608, 2, 2},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			coords := make([]Coord, 0, s.rows*s.deg)
			for i := 0; i < s.rows; i++ {
				for d := 0; d < s.deg; d++ {
					coords = append(coords, Coord{Row: int32(i), Col: int32(rng.Intn(s.cols)), Val: rng.Float32()})
				}
			}
			m := FromCoords(s.rows, s.cols, coords)
			in, out := tensor.NewDense(s.cols, s.f), tensor.NewDense(s.rows, s.f)
			in.Randomize(rng, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.SpMMInto(in, out)
			}
			b.ReportMetric(2*float64(m.SpMMFLOPs(s.f))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
