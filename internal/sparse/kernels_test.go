package sparse

import (
	"fmt"
	"math"
	"math/rand"
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

// TestKernelsMatchNaive pins SpMMInto and MaskedSpMM to the retained naive
// loop bit for bit, on widths either side of the packed routine's minimum,
// with empty rows, stored zeros of both signs (never skipped: 0·Inf must stay
// NaN) and stale destination contents.
func TestKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, rows := range []int{0, 1, 23} {
		for _, cols := range []int{1, 19} {
			for _, f := range []int{0, 1, 3, 15, 16, 17, 31, 33, 128} {
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
}

// BenchmarkSpMMInto runs the aggregation kernel on row panels shaped like the
// benchmark's train workloads (benchmark/README.md): Reddit/64 at P=4 under
// config 10 (910 of 3640 rows, ≈368 entries a row, 32 features a device) and
// the wide R-MAT at P=8 (24576 of 196608 rows, ≈2 entries a row, 2 features).
func BenchmarkSpMMInto(b *testing.B) {
	for _, s := range []struct {
		name               string
		rows, cols, deg, f int
	}{
		{"reddit_910x3640_deg368_f32", 910, 3640, 368, 32},
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
