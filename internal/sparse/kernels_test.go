package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gnnrdm/internal/tensor"
)

// naiveMaskedSpMM is SpMMInto and MaskedSpMMInto as the textbook loop, one
// thread, kept as the oracle: per output element one rounded multiply then
// one rounded add per stored entry, in column order, from +0, with no
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

// kernelWidths sit on and beside every chunk boundary of the row kernel
// (32, 16, 8, 4, 2 and 1 floats, and the set form's masked passes at 3–4,
// 5–8, 9–15, 16, 17–32 and 33–48), up to Reddit's 602 input features.
var kernelWidths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 15, 16, 17, 31, 32, 33, 40, 48, 64, 65, 128, 602}

// TestKernelsMatchNaive pins SpMMInto and MaskedSpMMInto to the retained
// naive loop bit for bit, on every kernel width, with empty rows, stored
// zeros of both signs (never skipped: 0·Inf must stay NaN) and stale
// destination contents; then SpMMInto alone on hand-built rows of hundreds
// of entries and of one column repeated, which FromCoords would merge; then
// MaskedSpMMInto on rows longer than its gathered block and on many short,
// empty and partly masked rows.
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
				for i := range out.Data {
					out.Data[i] = 99
				}
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
				for i := range out.Data {
					out.Data[i] = float32(math.NaN())
				}
				m.MaskedSpMMInto(in, mask, out)
				requireSameBits(t, "MaskedSpMMInto "+shape, out, naiveMaskedSpMM(m, in, mask))
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
		for i := range out.Data {
			out.Data[i] = float32(math.NaN())
		}
		m.SpMMInto(in, out)
		requireSameBits(t, fmt.Sprintf("SpMMInto long and repeated rows f=%d", f), out, naiveMaskedSpMM(m, in, nil))
	}

	// Masked rows of several gathered blocks: 300 stored columns (sorted, as
	// CSR rows are), all but every seventh permitted.
	wide := randomCSR(rng, 2, 300, 1)
	mask := make([][]int32, wide.Rows)
	for i := range mask {
		for c := int32(0); c < 300; c++ {
			if c%7 != 0 {
				mask[i] = append(mask[i], c)
			}
		}
	}
	for _, f := range kernelWidths {
		in := tensor.NewDense(300, f)
		in.Randomize(rng, 2)
		out := tensor.NewDense(wide.Rows, f)
		for i := range out.Data {
			out.Data[i] = float32(math.NaN())
		}
		wide.MaskedSpMMInto(in, mask, out)
		requireSameBits(t, fmt.Sprintf("MaskedSpMMInto long rows f=%d", f), out, naiveMaskedSpMM(wide, in, mask))
	}

	// Rows of ≈90 permitted entries and 700 rows of ≈1 entry, many empty;
	// every third row's mask keeps one column in two.
	for _, mat := range []*CSR{randomCSR(rng, 9, 300, 0.3), randomCSR(rng, 700, 50, 0.02)} {
		mask := make([][]int32, mat.Rows)
		for i := range mask {
			if i%3 == 0 {
				for c := int32(0); c < int32(mat.Cols); c += 2 {
					mask[i] = append(mask[i], c)
				}
			}
		}
		for _, f := range kernelWidths {
			in := tensor.NewDense(mat.Cols, f)
			in.Randomize(rng, 2)
			out := tensor.NewDense(mat.Rows, f)
			for i := range out.Data {
				out.Data[i] = float32(math.NaN())
			}
			mat.MaskedSpMMInto(in, mask, out)
			requireSameBits(t, fmt.Sprintf("MaskedSpMMInto %dx%d f=%d", mat.Rows, mat.Cols, f), out, naiveMaskedSpMM(mat, in, mask))
		}
	}
}

// TestSpMMIntoBadColumnPanics stores, in turn, each column index with no row
// in the dense operand — one past the last, negative, and far enough out that
// an unchecked load would fault — and requires SpMMInto, and MaskedSpMMInto
// keeping every column, to panic with a tensor.RowError naming it. One row
// keeps the kernel on the test's goroutine, where recover sees it.
func TestSpMMIntoBadColumnPanics(t *testing.T) {
	for _, f := range []int{1, 4, 33} {
		for _, bad := range []int32{3, -1, 1 << 30} {
			m := &CSR{Rows: 1, Cols: 3, RowPtr: []int64{0, 3},
				ColIdx: []int32{0, 2, bad}, Val: []float32{1, 1, 1}}
			in, out := tensor.NewDense(3, f), tensor.NewDense(1, f)
			for name, product := range map[string]func(){
				"SpMMInto":       func() { m.SpMMInto(in, out) },
				"MaskedSpMMInto": func() { m.MaskedSpMMInto(in, [][]int32{nil}, out) },
			} {
				func() {
					defer func() {
						err, ok := recover().(tensor.RowError)
						if want := fmt.Sprintf("index %d ", bad); !ok || int32(err) != bad || !strings.Contains(err.Error(), want) {
							t.Errorf("%s f=%d column %d: recovered %v, want a tensor.RowError naming it", name, f, bad, err)
						}
					}()
					product()
				}()
			}
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

func TestMaskedSpMMIntoMismatchNamesShapes(t *testing.T) {
	m := NewEmpty(2, 3)
	for _, c := range []struct {
		want    string
		in, out *tensor.Dense
		mask    [][]int32
	}{
		{"M=2x3 in=4x5 out=2x5", tensor.NewDense(4, 5), tensor.NewDense(2, 5), nil},
		{"M=2x3 in=3x5 out=2x4", tensor.NewDense(3, 5), tensor.NewDense(2, 4), nil},
		{"mask has 1 rows, M=2x3", tensor.NewDense(3, 5), tensor.NewDense(2, 5), [][]int32{nil}},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("panic %q does not contain %q", msg, c.want)
				}
			}()
			m.MaskedSpMMInto(c.in, c.mask, c.out)
		}()
	}
}

// FuzzSpMMRow feeds SpMMInto one CSR row of arbitrary bit patterns (NaNs of
// every payload included), widths 0–67, 0–40 entries, repeated and
// out-of-range columns and unaligned slices, over a stale destination, and
// requires the naive loop's bits in the row — NaN payloads too — and
// nothing written outside it. A bad column (with f > 0) must panic with a
// tensor.RowError naming the first one, leaving the row cleared.
//
// Input: f, entry count, rows-1 (the high five bits are unused: a Dense
// holds whole rows), slice offsets (out low two bits, in the next two); then
// per entry a column byte and a little-endian float32 value; then the words
// of in, repeated to fill it. Column bytes below 0xf0 pick a row modulo
// rows, 0xf0–0xf7 one 0–7 rows past the last, 0xf8–0xff a negative or huge
// index.
func FuzzSpMMRow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 1, 0, 0, 0, 0, 0x80, 0x3f, 1, 0, 0, 0, 0xc0, 2, 0, 0, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		width, n, rows := int(data[0])%68, int(data[1])%41, 1+int(data[2]&7)
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
		m := &CSR{Rows: 1, Cols: rows, RowPtr: []int64{0, int64(n)},
			ColIdx: make([]int32, n), Val: make([]float32, n)}
		bad, hasBad := int32(0), false
		for p := range m.ColIdx {
			switch b := byteAt(5 * p); {
			case b < 0xf0:
				m.ColIdx[p] = int32(int(b) % rows)
			case b < 0xf8:
				m.ColIdx[p] = int32(rows + int(b&7))
			default:
				m.ColIdx[p] = []int32{-1, math.MinInt32, 1 << 30, math.MaxInt32}[b&3]
			}
			m.Val[p] = word(5*p + 1)
			if c := m.ColIdx[p]; width > 0 && !hasBad && uint(c) >= uint(rows) {
				bad, hasBad = c, true
			}
		}
		inData := make([]float32, io+rows*width)
		if words := (len(body) - 5*n) / 4; words > 0 {
			for i := range inData[io:] {
				inData[io+i] = word(5*n + 4*(i%words))
			}
		}
		in := &tensor.Dense{Rows: rows, Cols: width, Data: inData[io:]}
		const guard = 5
		got := make([]float32, oo+width+guard)
		for i := range got {
			got[i] = float32(i + 1)
		}
		stale := append([]float32(nil), got...)
		out := &tensor.Dense{Rows: 1, Cols: width, Data: got[oo : oo+width]}
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			m.SpMMInto(in, out)
		}()

		want := tensor.NewDense(1, width)
		if hasBad {
			if err, ok := recovered.(tensor.RowError); !ok || int32(err) != bad {
				t.Fatalf("f=%d cols=%v: recovered %v, want a tensor.RowError naming column %d", width, m.ColIdx, recovered, bad)
			}
		} else {
			if recovered != nil {
				t.Fatalf("f=%d cols=%v: SpMMInto panicked: %v", width, m.ColIdx, recovered)
			}
			want = naiveMaskedSpMM(m, in, nil)
		}
		for j := range got {
			w := stale[j]
			if j >= oo && j < oo+width {
				w = want.Data[j-oo]
			}
			if math.Float32bits(got[j]) != math.Float32bits(w) {
				t.Fatalf("f=%d n=%d oo=%d io=%d: out[%d] = %x, want %x", width, n, oo, io,
					j-oo, math.Float32bits(got[j]), math.Float32bits(w))
			}
		}
	})
}
