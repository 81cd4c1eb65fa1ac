package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether two floats are the same value bit for bit; two
// NaNs count as the same whatever their payloads.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// awkward holds the values rounding and special-case handling trip over.
var awkward = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -3e-42,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	1e30, -1e30, 1e-30, -1e-30,
	1, -1, 0.1, 3.1415927, -7.25e-3, 16777217, 0.33333334,
}

func fillAwkward(rng *rand.Rand, v []float32) {
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = float32(rng.NormFloat64())
		} else {
			v[i] = awkward[rng.Intn(len(awkward))]
		}
	}
}

// TestAxpyMatchesLoop pins the packed routine to the Go loop bit for bit over
// every length that exercises the 16-wide body, the 4-wide tail and the
// scalar tail, at every alignment of x and y modulo one packed word. Under
// -race (and off amd64) axpyPacked is the loop itself and the test is vacuous.
func TestAxpyMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const guard = 4
	xbuf := make([]float32, 3+67)
	for n := 0; n <= 67; n++ {
		for xo := 0; xo < 4; xo++ {
			for yo := 0; yo < 4; yo++ {
				x := xbuf[xo : xo+n]
				fillAwkward(rng, x)
				got := make([]float32, yo+n+guard)
				fillAwkward(rng, got)
				want := append([]float32(nil), got...)
				s := awkward[rng.Intn(len(awkward))]
				if n%2 == 1 {
					s = float32(rng.NormFloat64())
				}
				axpyPacked(s, x, got[yo:yo+n])
				axpyLoop(s, x, want[yo:yo+n])
				for j := range want {
					if !sameBits(got[j], want[j]) {
						t.Fatalf("n=%d xo=%d yo=%d s=%v: y[%d] = %x, loop says %x", n, xo, yo, s,
							j-yo, math.Float32bits(got[j]), math.Float32bits(want[j]))
					}
				}
			}
		}
	}
}

func TestAxpyShortDestinationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Axpy wrote to a y shorter than x")
		}
	}()
	Axpy(1, make([]float32, 32), make([]float32, 31))
}

// The three loops below are the kernels as they stood before Axpy, one
// thread, kept as the oracle: one rounded multiply then one rounded add per
// element, in this order.

func naiveGemm(alpha float32, a, b *Dense, beta float32, c *Dense) {
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		ci := c.Data[i*n : (i+1)*n]
		if beta == 0 {
			for j := range ci {
				ci[j] = 0
			}
		} else if beta != 1 {
			for j := range ci {
				ci[j] *= beta
			}
		}
		for k, av := range a.Data[i*a.Cols : (i+1)*a.Cols] {
			if av == 0 {
				continue
			}
			s := alpha * av
			for j, bv := range b.Data[k*n : (k+1)*n] {
				ci[j] += float32(s * bv)
			}
		}
	}
}

func naiveMatMulTA(a, b *Dense) *Dense {
	c := NewDense(a.Cols, b.Cols)
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		for k, av := range a.Data[i*a.Cols : (i+1)*a.Cols] {
			if av == 0 {
				continue
			}
			ck := c.Data[k*n : (k+1)*n]
			for j, bv := range b.Data[i*n : (i+1)*n] {
				ck[j] += float32(av * bv)
			}
		}
	}
	return c
}

func naiveMatMulTB(a, b *Dense) *Dense {
	c := NewDense(a.Rows, b.Rows)
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		ai := a.Data[i*k : (i+1)*k]
		for j := 0; j < b.Rows; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var s float32
			for t, av := range ai {
				s += float32(av * bj[t])
			}
			c.Data[i*b.Rows+j] = s
		}
	}
	return c
}

func requireSameBits(t *testing.T, what string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %v, naive loop says %v", what, got, want)
	}
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element (%d,%d) = %x, naive loop says %x", what, i/want.Cols, i%want.Cols,
				math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

// halfZeros returns an r x c matrix whose entries are exact zeros (of either
// sign) half the time, so zero-skip is taken and not taken within one row.
func halfZeros(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	m.Randomize(rng, 2)
	for i := range m.Data {
		switch rng.Intn(4) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = float32(math.Copysign(0, -1))
		}
	}
	return m
}

// kernelWidths straddle axpyMinWidth, one packed word and the 16-wide body.
var kernelWidths = []int{1, 3, 15, 16, 17, 31, 33, 128}

// TestKernelsMatchNaive pins Gemm, MatMulTA and MatMulTB to the retained
// naive loops bit for bit. Inf in the right operand makes 0·Inf = NaN, so a
// kernel that skipped a zero the naive loop multiplies (MatMulTB has no
// zero-skip) or the reverse would show.
func TestKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, m := range []int{0, 1, 5, 37} {
		for _, k := range []int{0, 1, 7, 40} {
			for _, n := range append([]int{0}, kernelWidths...) {
				shape := fmt.Sprintf("%dx%d·%dx%d", m, k, k, n)
				a := halfZeros(rng, m, k)
				b := NewDense(k, n)
				b.Randomize(rng, 2)
				if len(b.Data) > 0 {
					b.Data[rng.Intn(len(b.Data))] = float32(math.Inf(1))
				}
				for _, alpha := range []float32{0, 1, 0.5} {
					for _, beta := range []float32{0, 1, 0.5} {
						got := NewDense(m, n)
						got.Randomize(rng, 2)
						want := got.Clone()
						Gemm(alpha, a, b, beta, got)
						naiveGemm(alpha, a, b, beta, want)
						requireSameBits(t, fmt.Sprintf("Gemm(%v, %s, %v)", alpha, shape, beta), got, want)
					}
				}

				// Aᵀ·B: A is k x m here so the shared dimension is k.
				at := halfZeros(rng, k, m)
				requireSameBits(t, "MatMulTA "+shape, MatMulTA(at, b), naiveMatMulTA(at, b))
				// The Into forms overwrite: a stale destination (the engine's
				// retained tiles) must not show through.
				stale := NewDense(m, n)
				stale.Fill(float32(math.NaN()))
				MatMulTAInto(at, b, stale)
				requireSameBits(t, "MatMulTAInto "+shape, stale, naiveMatMulTA(at, b))

				// A·Bᵀ: B is n x k, output width n.
				bt := halfZeros(rng, n, k)
				if len(bt.Data) > 0 {
					bt.Data[rng.Intn(len(bt.Data))] = float32(math.Inf(-1))
				}
				requireSameBits(t, "MatMulTB "+shape, MatMulTB(a, bt), naiveMatMulTB(a, bt))
				stale.Fill(float32(math.NaN()))
				MatMulTBInto(a, bt, stale)
				requireSameBits(t, "MatMulTBInto "+shape, stale, naiveMatMulTB(a, bt))
			}
		}
	}
}

// FuzzAxpy feeds the packed routine arbitrary bit patterns (NaNs of every
// payload included), lengths and alignments, and requires the Go loop's bits
// and nothing written outside y[:len(x)].
func FuzzAxpy(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 0, 0x80, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		xo, yo := int(data[0]%4), int(data[1]%4)
		word := func(b []byte) float32 {
			return math.Float32frombits(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		}
		s := word(data[2:6])
		body := data[6:]
		n := len(body) / 8
		const guard = 5
		x := make([]float32, xo+n)
		got := make([]float32, yo+n+guard)
		for j := 0; j < n; j++ {
			x[xo+j] = word(body[8*j:])
			got[yo+j] = word(body[8*j+4:])
		}
		for j := range got[yo+n:] {
			got[yo+n+j] = float32(j + 1)
		}
		want := append([]float32(nil), got...)
		// y longer than x: the extra elements must stay untouched.
		axpyPacked(s, x[xo:], got[yo:])
		axpyLoop(s, x[xo:], want[yo:])
		for j := range want {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("n=%d xo=%d yo=%d s=%x: y[%d] = %x, loop says %x", n, xo, yo,
					math.Float32bits(s), j-yo, math.Float32bits(got[j]), math.Float32bits(want[j]))
			}
		}
	})
}

// Kernel micro-benchmarks at the per-device shapes of the benchmark's three
// train workloads (benchmark/README.md), so a kernel change is judged in
// seconds: go test -run '^$' -bench . -cpu 1,2 ./internal/tensor ./internal/sparse
var denseShapes = []struct {
	name    string
	m, k, n int
}{
	{"arxiv_2646x128x128", 2646, 128, 128},
	{"reddit_910x602x128", 910, 602, 128},
	{"rmat_24576x16x16", 24576, 16, 16},
}

func benchDense(b *testing.B, flops int64, fn func()) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.ReportMetric(2*float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkGemm(b *testing.B) {
	for _, s := range denseShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, w, out := NewDense(s.m, s.k), NewDense(s.k, s.n), NewDense(s.m, s.n)
			x.Randomize(rng, 1)
			w.Randomize(rng, 1)
			benchDense(b, GemmFLOPs(s.m, s.k, s.n), func() { Gemm(1, x, w, 0, out) })
		})
	}
}

// BenchmarkMatMulTA is the weight gradient Xᵀ·dZ: (m x k)ᵀ · (m x n).
func BenchmarkMatMulTA(b *testing.B) {
	for _, s := range denseShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, dz := NewDense(s.m, s.k), NewDense(s.m, s.n)
			x.Randomize(rng, 1)
			dz.Randomize(rng, 1)
			benchDense(b, GemmFLOPs(s.k, s.m, s.n), func() { MatMulTA(x, dz) })
		})
	}
}

// BenchmarkMatMulTB is the input gradient dZ·Wᵀ: (m x n) · (k x n)ᵀ.
func BenchmarkMatMulTB(b *testing.B) {
	for _, s := range denseShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			dz, w := NewDense(s.m, s.n), NewDense(s.k, s.n)
			dz.Randomize(rng, 1)
			w.Randomize(rng, 1)
			benchDense(b, GemmFLOPs(s.m, s.n, s.k), func() { MatMulTB(dz, w) })
		})
	}
}
