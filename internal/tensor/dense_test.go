package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %v len=%d", m, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("not zeroed")
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7)
	if m.Row(1)[2] != 7 {
		t.Fatalf("At(1,2)=%v", m.Row(1)[2])
	}
	r := m.Row(1)
	if r[2] != 7 {
		t.Fatalf("Row view wrong: %v", r)
	}
	r[0] = 5 // view aliases storage
	if m.Row(1)[0] != 5 {
		t.Fatal("Row must alias underlying data")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.Row(0)[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewDense(37, 53)
	m.Randomize(rng, 1)
	tr := m.Transpose()
	if tr.Rows != 53 || tr.Cols != 37 {
		t.Fatalf("bad transpose shape %v", tr)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.Row(i)[j] != tr.Row(j)[i] {
				t.Fatalf("mismatch at (%d,%d)", i, j)
			}
		}
	}
	tt := tr.Transpose()
	if MaxAbsDiff(m, tt) != 0 {
		t.Fatal("double transpose differs")
	}
}

func TestRowColSlice(t *testing.T) {
	m := NewDense(6, 4)
	for i := range m.Data {
		m.Data[i] = float32(i)
	}
	rs := m.RowSlice(2, 5)
	if rs.Rows != 3 || rs.Row(0)[0] != m.Row(2)[0] {
		t.Fatalf("RowSlice wrong: %v", rs.Data)
	}
	cs := m.ColSlice(1, 3)
	if cs.Cols != 2 || cs.Row(4)[1] != m.Row(4)[2] {
		t.Fatalf("ColSlice wrong: %v", cs.Data)
	}
}

func TestConcatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewDense(10, 7)
	m.Randomize(rng, 1)
	a, b := m.RowSlice(0, 4), m.RowSlice(4, 10)
	if MaxAbsDiff(ConcatRows(a, b), m) != 0 {
		t.Fatal("ConcatRows round trip failed")
	}
	c, d := m.ColSlice(0, 3), m.ColSlice(3, 7)
	if MaxAbsDiff(ConcatCols(c, d), m) != 0 {
		t.Fatal("ConcatCols round trip failed")
	}
}

func TestSetRowColSlice(t *testing.T) {
	m := NewDense(5, 5)
	part := NewDense(2, 5)
	for i := range part.Data {
		part.Data[i] = 3
	}
	m.SetRowSlice(2, part)
	if m.Row(2)[0] != 3 || m.Row(3)[4] != 3 || m.Row(1)[0] != 0 || m.Row(4)[0] != 0 {
		t.Fatal("SetRowSlice wrong region")
	}
	cp := NewDense(5, 2)
	for i := range cp.Data {
		cp.Data[i] = 4
	}
	m.SetColSlice(1, cp)
	if m.Row(0)[1] != 4 || m.Row(4)[2] != 4 || m.Row(0)[0] != 0 || m.Row(0)[3] != 0 {
		t.Fatal("SetColSlice wrong region")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromRowMajor(1, 4, []float32{1, -2, 3, -4})
	b := FromRowMajor(1, 4, []float32{2, 2, 2, 2})
	c := a.Clone()
	c.Add(b)
	if c.Data[0] != 3 || c.Data[1] != 0 {
		t.Fatalf("Add wrong: %v", c.Data)
	}
	s := a.Clone()
	s.Scale(-1)
	if s.Data[0] != -1 || s.Data[1] != 2 {
		t.Fatalf("Scale wrong: %v", s.Data)
	}
}

// reluBranch and reluGradBranch are the branching loops ReLU and ReLUGrad
// replaced, kept as their oracle: they store only the elements they zero.
func reluBranch(d []float32) {
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
}

func reluGradBranch(g, h []float32) {
	for i, v := range h {
		if v <= 0 {
			g[i] = 0
		}
	}
}

// activationBits are the values whose bits a select could get wrong: ±0,
// ±the smallest denormal, ±Inf, quiet and signalling NaNs of both signs with
// distinct payloads, and ±1.
var activationBits = []uint32{
	0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x7f800000, 0xff800000,
	0x7fc00000, 0xffc00123, 0x7f800001, 0xff812345, 0x3f800000, 0xbf800000,
}

// activationLengths are the element counts the select tests run: every
// length up to 9 and one past two 64-float chunks.
var activationLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 131}

// fillBits sets v[i] to activationBits[(i+off) mod len].
func fillBits(v []float32, off int) {
	for i := range v {
		v[i] = math.Float32frombits(activationBits[(i+off)%len(activationBits)])
	}
}

// requireRawBits compares raw bits, NaN payloads and signs included, which
// sameBits does not.
func requireRawBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: element %d = %#08x, branching loop says %#08x", what, i, g, w)
		}
	}
}

// TestReLUBits pins ReLU to the branching loop bit for bit: −0, NaNs of
// either sign and their payloads survive, −denormals and −Inf become +0.
func TestReLUBits(t *testing.T) {
	for _, n := range activationLengths {
		for off := range activationBits {
			m := NewDense(1, n)
			fillBits(m.Data, off)
			want := append([]float32(nil), m.Data...)
			reluBranch(want)
			if m.ReLU() != m {
				t.Fatal("ReLU does not return its receiver")
			}
			requireRawBits(t, fmt.Sprintf("ReLU n=%d off=%d", n, off), m.Data, want)
		}
	}
}

// TestReLUGradBits pins ReLUGrad to the branching loop bit for bit on every
// pair of activationBits (gradient, activation) at every position: m keeps
// its bits where h > 0 or h is NaN, and becomes +0 where h ≤ 0. A shape
// mismatch panics, also at an equal element count.
func TestReLUGradBits(t *testing.T) {
	for _, n := range activationLengths {
		for gOff := range activationBits {
			for hOff := range activationBits {
				m, h := NewDense(1, n), NewDense(1, n)
				fillBits(m.Data, gOff)
				fillBits(h.Data, hOff)
				hWas := append([]float32(nil), h.Data...)
				want := append([]float32(nil), m.Data...)
				reluGradBranch(want, h.Data)
				if m.ReLUGrad(h) != m {
					t.Fatal("ReLUGrad does not return its receiver")
				}
				what := fmt.Sprintf("ReLUGrad n=%d offsets %d,%d", n, gOff, hOff)
				requireRawBits(t, what, m.Data, want)
				requireRawBits(t, what+" (h)", h.Data, hWas)
			}
		}
	}
	for _, shapes := range [][4]int{{2, 3, 3, 2}, {1, 3, 1, 4}, {4, 1, 3, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ReLUGrad %dx%d by %dx%d did not panic", shapes[0], shapes[1], shapes[2], shapes[3])
				}
			}()
			NewDense(shapes[0], shapes[1]).ReLUGrad(NewDense(shapes[2], shapes[3]))
		}()
	}
}

func TestGlorotInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := NewDense(100, 50)
	w.GlorotInit(rng)
	limit := math.Sqrt(6.0 / 150.0)
	for _, v := range w.Data {
		if math.Abs(float64(v)) > limit {
			t.Fatalf("value %v exceeds glorot limit %v", v, limit)
		}
	}
	if MaxAbsDiff(w, NewDense(100, 50)) == 0 {
		t.Fatal("glorot produced all zeros")
	}
}

func refMatMul(a, b *Dense) *Dense {
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(float64(a.Row(i)[k]) * float64(b.Row(k)[j]))
			}
			c.Set(i, j, float32(s))
		}
	}
	return c
}

func TestMatMulAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {64, 32, 48}, {17, 1, 9}, {5, 128, 3}} {
		a := NewDense(dims[0], dims[1])
		b := NewDense(dims[1], dims[2])
		a.Randomize(rng, 1)
		b.Randomize(rng, 1)
		got := MatMul(a, b)
		want := refMatMul(a, b)
		if MaxAbsDiff(got, want) > 1e-4 {
			t.Fatalf("dims %v: diff %v", dims, MaxAbsDiff(got, want))
		}
	}
}

func TestMatMulIntoOverwrites(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewDense(8, 6)
	b := NewDense(6, 10)
	c := NewDense(8, 10)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	for i := range c.Data {
		c.Data[i] = float32(math.NaN())
	}
	MatMulInto(a, b, c)
	want := refMatMul(a, b)
	for i := range want.Data {
		if !(math.Abs(float64(c.Data[i]-want.Data[i])) <= 1e-4) {
			t.Fatalf("MatMulInto onto a NaN-filled destination: element %d = %v, want %v", i, c.Data[i], want.Data[i])
		}
	}
}

func TestMatMulTA(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewDense(40, 13)
	b := NewDense(40, 21)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	got := MatMulTA(a, b)
	want := refMatMul(a.Transpose(), b)
	if MaxAbsDiff(got, want) > 1e-4 {
		t.Fatalf("MatMulTA diff %v", MaxAbsDiff(got, want))
	}
}

func TestMatMulTB(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewDense(12, 9)
	b := NewDense(15, 9)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	got := MatMulTB(a, b)
	want := refMatMul(a, b.Transpose())
	if MaxAbsDiff(got, want) > 1e-4 {
		t.Fatalf("MatMulTB diff %v", MaxAbsDiff(got, want))
	}
}

// Property: (AB)C == A(BC) within fp tolerance (associativity, the algebraic
// fact RDM's operation-reordering relies on).
func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n, p := 2+rng.Intn(12), 2+rng.Intn(12), 2+rng.Intn(12), 2+rng.Intn(12)
		a, b, c := NewDense(m, k), NewDense(k, n), NewDense(n, p)
		a.Randomize(rng, 1)
		b.Randomize(rng, 1)
		c.Randomize(rng, 1)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return MaxAbsDiff(left, right) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: row/col slicing then concatenation is the identity.
func TestSliceConcatProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(20), 1+rng.Intn(20)
		m := NewDense(r, c)
		m.Randomize(rng, 1)
		cut := rng.Intn(r + 1)
		if MaxAbsDiff(ConcatRows(m.RowSlice(0, cut), m.RowSlice(cut, r)), m) != 0 {
			return false
		}
		ccut := rng.Intn(c + 1)
		return MaxAbsDiff(ConcatCols(m.ColSlice(0, ccut), m.ColSlice(ccut, c)), m) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShapePanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	a := NewDense(2, 3)
	b := NewDense(4, 5)
	expectPanic("MatMul", func() { MatMul(a, b) })
	expectPanic("Add", func() { a.Add(b) })
	expectPanic("RowSlice", func() { a.RowSlice(0, 3) })
	expectPanic("ColSlice", func() { a.ColSlice(2, 1) })
	expectPanic("FromRowMajor", func() { FromRowMajor(2, 2, make([]float32, 3)) })
}

func TestMaxAbsDiffAndNorm(t *testing.T) {
	a := FromRowMajor(1, 3, []float32{3, 0, 4})
	b := FromRowMajor(1, 3, []float32{3, 1, 4})
	if MaxAbsDiff(a, b) != 1 {
		t.Fatalf("MaxAbsDiff=%v", MaxAbsDiff(a, b))
	}
}

func TestZeroFillCopyBytesString(t *testing.T) {
	m := NewDense(2, 3)
	src := NewDense(2, 3)
	for i := range src.Data {
		src.Data[i] = 7
	}
	m.CopyFrom(src)
	if m.Row(0)[0] != 7 {
		t.Fatal("CopyFrom failed")
	}
	if m.Bytes() != 24 {
		t.Fatalf("Bytes=%d", m.Bytes())
	}
	if m.String() != "Dense(2x3)" {
		t.Fatalf("String=%q", m.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom shape mismatch must panic")
		}
	}()
	m.CopyFrom(NewDense(3, 2))
}

func TestGemmFLOPs(t *testing.T) {
	if GemmFLOPs(3, 4, 5) != 60 {
		t.Fatal("GemmFLOPs")
	}
}

func TestNewDenseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative dims must panic")
		}
	}()
	NewDense(-1, 2)
}

// TestImpossibleShapesPanic gives both constructors shapes no matrix has —
// negative dimensions, whose product is positive and can match the data,
// and 2^32 x 2^32, whose product wraps to 0 and matches empty data — and
// requires a panic that names the shape.
func TestImpossibleShapesPanic(t *testing.T) {
	for _, c := range []struct {
		name string
		make func()
		want string
	}{
		{"FromRowMajor -1x-2", func() { FromRowMajor(-1, -2, make([]float32, 2)) }, "-1x-2"},
		{"FromRowMajor 0x-1", func() { FromRowMajor(0, -1, nil) }, "0x-1"},
		{"NewDense 2^32x2^32", func() { NewDense(1<<32, 1<<32) }, "4294967296x4294967296"},
		{"FromRowMajor 2^32x2^32", func() { FromRowMajor(1<<32, 1<<32, nil) }, "4294967296x4294967296"},
		{"NewDense 2^62x2", func() { NewDense(1<<62, 2) }, "4611686018427387904x2"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Errorf("%s: recovered %q, want a panic naming %s", c.name, msg, c.want)
				}
			}()
			c.make()
		}()
	}
}

func TestParallelRowsCoverage(t *testing.T) {
	// Covers the zero-rows, rows < workers and ragged-last-chunk paths.
	for _, rows := range []int{0, 1, 3, 100, 1001} {
		seen := make([]bool, rows)
		ParallelRows(rows, func(r0, r1 int) {
			if r0 >= r1 {
				t.Errorf("rows=%d: fn called on empty chunk [%d,%d)", rows, r0, r1)
			}
			for i := r0; i < r1; i++ {
				seen[i] = true // disjoint ranges: no race
			}
		})
		for i, ok := range seen {
			if !ok {
				t.Fatalf("rows=%d: index %d not covered", rows, i)
			}
		}
	}
}

func TestSetSlicePanics(t *testing.T) {
	m := NewDense(4, 4)
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("SetRowSlice overflow", func() { m.SetRowSlice(3, NewDense(2, 4)) })
	expectPanic("SetColSlice overflow", func() { m.SetColSlice(3, NewDense(4, 2)) })
}
