package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gnnrdm/internal/tensor"
)

func randomCSR(rng *rand.Rand, r, c int, density float64) *CSR {
	var coords []Coord
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				coords = append(coords, Coord{Row: int32(i), Col: int32(j), Val: float32(rng.NormFloat64())})
			}
		}
	}
	return FromCoords(r, c, coords)
}

func TestFromCoordsBasics(t *testing.T) {
	m := FromCoords(3, 3, []Coord{
		{0, 1, 2}, {2, 0, 5}, {0, 1, 3}, // duplicate (0,1) sums to 5
		{1, 2, -1},
	})
	if m.NNZ() != 3 {
		t.Fatalf("NNZ=%d want 3", m.NNZ())
	}
	if m.At(0, 1) != 5 {
		t.Fatalf("duplicate sum: At(0,1)=%v", m.At(0, 1))
	}
	if m.At(2, 0) != 5 || m.At(1, 2) != -1 || m.At(0, 0) != 0 {
		t.Fatal("bad entries")
	}
}

func TestFromCoordsSortedWithinRow(t *testing.T) {
	m := FromCoords(1, 5, []Coord{{0, 4, 1}, {0, 1, 1}, {0, 3, 1}})
	for p := int64(1); p < m.NNZ(); p++ {
		if m.ColIdx[p-1] >= m.ColIdx[p] {
			t.Fatalf("columns not sorted: %v", m.ColIdx)
		}
	}
}

func TestFromCoordsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromCoords(2, 2, []Coord{{2, 0, 1}})
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomCSR(rng, 20, 35, 0.1)
	tr := m.Transpose()
	if tr.Rows != 35 || tr.Cols != 20 || tr.NNZ() != m.NNZ() {
		t.Fatalf("bad transpose shape/nnz")
	}
	md, td := m.ToDense(), tr.ToDense()
	for i := 0; i < 20; i++ {
		for j := 0; j < 35; j++ {
			if md.Row(i)[j] != td.Row(j)[i] {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	// Columns within each row of the transpose must be sorted (the CSR invariant).
	for i := 0; i < tr.Rows; i++ {
		for p := tr.RowPtr[i] + 1; p < tr.RowPtr[i+1]; p++ {
			if tr.ColIdx[p-1] >= tr.ColIdx[p] {
				t.Fatal("transpose rows not sorted")
			}
		}
	}
}

// TestRowPanel checks a panel's entries in both RowPanel cases: a panel
// from row 0 shares m's RowPtr, any other a rebased copy of it.
func TestRowPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomCSR(rng, 30, 10, 0.2)
	md := m.ToDense()
	for _, c := range []struct {
		r0, r1 int
		shared bool
	}{{10, 25, false}, {0, 12, true}, {0, 30, true}} {
		p := m.RowPanel(c.r0, c.r1)
		if p.Rows != c.r1-c.r0 || p.Cols != 10 {
			t.Fatalf("[%d,%d): bad panel shape %dx%d", c.r0, c.r1, p.Rows, p.Cols)
		}
		if p.NNZ() != m.RowPtr[c.r1]-m.RowPtr[c.r0] || p.RowPtr[0] != 0 {
			t.Fatalf("[%d,%d): NNZ %d from RowPtr[0] %d", c.r0, c.r1, p.NNZ(), p.RowPtr[0])
		}
		if shared := &p.RowPtr[0] == &m.RowPtr[c.r0]; shared != c.shared {
			t.Fatalf("[%d,%d): RowPtr shared %v, want %v", c.r0, c.r1, shared, c.shared)
		}
		pd := p.ToDense()
		for i := 0; i < p.Rows; i++ {
			for j := 0; j < 10; j++ {
				if pd.Row(i)[j] != md.Row(i + c.r0)[j] {
					t.Fatalf("[%d,%d): panel mismatch at (%d,%d)", c.r0, c.r1, i, j)
				}
			}
		}
	}
	empty := m.RowPanel(5, 5)
	if empty.Rows != 0 || empty.NNZ() != 0 {
		t.Fatal("empty panel not empty")
	}
}

// TestRowPanelAppendLeavesParent: a panel views its parent's storage,
// capacity-clipped, so appending to a panel's arrays copies them and the
// parent's next row is left intact.
func TestRowPanelAppendLeavesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomCSR(rng, 30, 10, 0.3)
	want := m.ToDense()
	for _, r := range [][2]int{{0, 12}, {12, 20}} {
		p := m.RowPanel(r[0], r[1])
		p.ColIdx = append(p.ColIdx, 9)
		p.Val = append(p.Val, 42)
		p.RowPtr = append(p.RowPtr, p.RowPtr[p.Rows]+1)
		p.Rows++
		for i, v := range m.ToDense().Data {
			if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
				t.Fatalf("appending to panel [%d,%d) changed its parent at element %d", r[0], r[1], i)
			}
		}
	}
}

func TestSubMatrix(t *testing.T) {
	m := FromCoords(4, 4, []Coord{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 0, 4}, {1, 3, 5}})
	sub := m.SubMatrix([]int32{1, 3}, []int32{1, 3})
	// Row 1 -> new row 0; entries at cols {2:2, 3:5}; only col 3 kept -> new col 1.
	if sub.Rows != 2 || sub.Cols != 2 {
		t.Fatal("bad sub shape")
	}
	if sub.At(0, 1) != 5 {
		t.Fatalf("sub At(0,1)=%v want 5", sub.At(0, 1))
	}
	if sub.NNZ() != 1 {
		t.Fatalf("sub NNZ=%d want 1", sub.NNZ())
	}
}

func TestSpMMAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomCSR(rng, 50, 40, 0.08)
	in := tensor.NewDense(40, 16)
	in.Randomize(rng, 1)
	got := m.SpMM(in)
	want := tensor.MatMul(m.ToDense(), in)
	if tensor.MaxAbsDiff(got, want) > 1e-4 {
		t.Fatalf("SpMM diff %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestSpMMIntoOverwrites(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomCSR(rng, 10, 10, 0.3)
	in := tensor.NewDense(10, 4)
	in.Randomize(rng, 1)
	out := tensor.NewDense(10, 4)
	for i := range out.Data {
		out.Data[i] = 99
	}
	m.SpMMInto(in, out)
	want := m.SpMM(in)
	if tensor.MaxAbsDiff(out, want) != 0 {
		t.Fatal("SpMMInto must overwrite stale contents")
	}
}

func TestMaskedSpMM(t *testing.T) {
	m := FromCoords(2, 3, []Coord{{0, 0, 1}, {0, 2, 2}, {1, 1, 3}})
	in := tensor.FromRowMajor(3, 1, []float32{10, 20, 30})
	// Row 0 keeps only column 2; row 1's empty (non-nil) mask keeps nothing.
	out := tensor.NewDense(2, 1)
	m.MaskedSpMMInto(in, [][]int32{{2}, {}}, out)
	if out.Row(0)[0] != 60 {
		t.Fatalf("masked row0=%v want 60", out.Row(0)[0])
	}
	if out.Row(1)[0] != 0 {
		t.Fatalf("masked row1=%v want 0 (empty mask drops all)", out.Row(1)[0])
	}
	// nil mask row keeps everything.
	out2 := tensor.NewDense(2, 1)
	m.MaskedSpMMInto(in, [][]int32{nil, nil}, out2)
	want := m.SpMM(in)
	if tensor.MaxAbsDiff(out2, want) != 0 {
		t.Fatal("nil mask rows must keep all entries")
	}
	// nil mask entirely equals plain SpMM.
	out3 := tensor.NewDense(2, 1)
	m.MaskedSpMMInto(in, nil, out3)
	if tensor.MaxAbsDiff(out3, want) != 0 {
		t.Fatal("nil mask must equal SpMM")
	}
}

func TestGCNNormalize(t *testing.T) {
	// Path graph 0-1-2.
	a := FromCoords(3, 3, []Coord{{0, 1, 1}, {1, 0, 1}, {1, 2, 1}, {2, 1, 1}})
	norm := GCNNormalize(a)
	// A+I degrees: d0=2, d1=3, d2=2.
	want00 := 1.0 / 2.0
	if math.Abs(float64(norm.At(0, 0))-want00) > 1e-6 {
		t.Fatalf("norm(0,0)=%v want %v", norm.At(0, 0), want00)
	}
	want01 := 1.0 / math.Sqrt(6)
	if math.Abs(float64(norm.At(0, 1))-want01) > 1e-6 {
		t.Fatalf("norm(0,1)=%v want %v", norm.At(0, 1), want01)
	}
	// Symmetric.
	if norm.At(0, 1) != norm.At(1, 0) || norm.At(1, 2) != norm.At(2, 1) {
		t.Fatal("normalized matrix must be symmetric")
	}
}

func TestGCNNormalizeRowSumsProperty(t *testing.T) {
	// Property: for a regular graph, row sums of the normalized matrix are 1.
	// Build a ring (2-regular); with self loops all degrees are 3.
	n := 12
	var coords []Coord
	for i := 0; i < n; i++ {
		coords = append(coords, Coord{int32(i), int32((i + 1) % n), 1})
		coords = append(coords, Coord{int32((i + 1) % n), int32(i), 1})
	}
	norm := GCNNormalize(FromCoords(n, n, coords))
	for i := 0; i < n; i++ {
		var s float64
		for p := norm.RowPtr[i]; p < norm.RowPtr[i+1]; p++ {
			s += float64(norm.Val[p])
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sum %v want 1", i, s)
		}
	}
}

// Property: SpMM distributes over dense addition: M(X+Y) == MX + MY.
func TestSpMMLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c, k := 1+rng.Intn(15), 1+rng.Intn(15), 1+rng.Intn(8)
		m := randomCSR(rng, r, c, 0.3)
		x := tensor.NewDense(c, k)
		y := tensor.NewDense(c, k)
		x.Randomize(rng, 1)
		y.Randomize(rng, 1)
		sum := x.Clone()
		sum.Add(y)
		left := m.SpMM(sum)
		right := m.SpMM(x)
		right.Add(m.SpMM(y))
		return tensor.MaxAbsDiff(left, right) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: (Mᵀ)ᵀ == M exactly.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(25), 1+rng.Intn(25)
		m := randomCSR(rng, r, c, 0.2)
		tt := m.Transpose().Transpose()
		if tt.Rows != m.Rows || tt.Cols != m.Cols || tt.NNZ() != m.NNZ() {
			return false
		}
		return tensor.MaxAbsDiff(tt.ToDense(), m.ToDense()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: row-panel splits of M partition its rows: stacking panels
// reproduces the full SpMM result.
func TestRowPanelPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c, k := 2+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(6)
		m := randomCSR(rng, r, c, 0.25)
		in := tensor.NewDense(c, k)
		in.Randomize(rng, 1)
		cut := 1 + rng.Intn(r-1)
		top := m.RowPanel(0, cut).SpMM(in)
		bot := m.RowPanel(cut, r).SpMM(in)
		full := m.SpMM(in)
		return tensor.MaxAbsDiff(tensor.ConcatRows(top, bot), full) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCountsAndFootprint(t *testing.T) {
	m := FromCoords(3, 3, []Coord{{0, 0, 1}, {1, 1, 1}, {1, 2, 1}})
	if m.NNZ() != 3 {
		t.Fatalf("nnz=%d", m.NNZ())
	}
	if m.Bytes() <= 0 {
		t.Fatal("Bytes must be positive")
	}
}

func TestColPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomCSR(rng, 20, 30, 0.2)
	p := m.ColPanel(7, 19)
	if p.Rows != 20 || p.Cols != 12 {
		t.Fatalf("bad panel shape %dx%d", p.Rows, p.Cols)
	}
	pd, md := p.ToDense(), m.ToDense()
	for i := 0; i < 20; i++ {
		for j := 0; j < 12; j++ {
			if pd.Row(i)[j] != md.Row(i)[j+7] {
				t.Fatalf("col panel mismatch at (%d,%d)", i, j)
			}
		}
	}
	if e := m.ColPanel(5, 5); e.NNZ() != 0 || e.Cols != 0 {
		t.Fatal("empty col panel")
	}
}

// Property: column panels partition the columns: summing panel SpMMs over
// matching input slices reproduces the full product.
func TestColPanelPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c, k := 2+rng.Intn(15), 2+rng.Intn(15), 1+rng.Intn(5)
		m := randomCSR(rng, r, c, 0.3)
		in := tensor.NewDense(c, k)
		in.Randomize(rng, 1)
		cut := 1 + rng.Intn(c-1)
		left := m.ColPanel(0, cut).SpMM(in.RowSlice(0, cut))
		right := m.ColPanel(cut, c).SpMM(in.RowSlice(cut, c))
		left.Add(right)
		return tensor.MaxAbsDiff(left, m.SpMM(in)) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRowNormalize(t *testing.T) {
	a := FromCoords(3, 3, []Coord{{0, 1, 1}, {1, 0, 1}, {1, 2, 1}, {2, 1, 1}})
	rw := RowNormalize(a)
	// Rows sum to exactly 1.
	for i := 0; i < 3; i++ {
		var s float64
		for p := rw.RowPtr[i]; p < rw.RowPtr[i+1]; p++ {
			s += float64(rw.Val[p])
		}
		if math.Abs(s-1) > 1e-6 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
	// Row 1 has degree 3 (self + 2 neighbors) -> entries 1/3.
	if math.Abs(float64(rw.At(1, 1))-1.0/3) > 1e-6 {
		t.Fatalf("At(1,1)=%v", rw.At(1, 1))
	}
	// Asymmetric: row 0 has 2 entries (1/2), row 1 has 3 (1/3).
	if rw.At(0, 1) == rw.At(1, 0) {
		t.Fatal("row normalization should be asymmetric here")
	}
}

// TestSymmetricMatchesFromCoords checks Symmetric bit for bit against the
// doubled coordinate list through FromCoords on random edge lists with
// repeats, both directions, self loops and empty rows.
func TestSymmetricMatchesFromCoords(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(60)
		span := 1 + rng.Intn(n) // vertices >= span stay isolated
		edges := make([]Coord, rng.Intn(8*n))
		for k := range edges {
			u, v := rng.Intn(span), rng.Intn(span)
			switch rng.Intn(6) {
			case 0:
				v = u
			case 1:
				if k > 0 {
					u, v = int(edges[k-1].Col), int(edges[k-1].Row)
				}
			}
			edges[k] = Coord{Row: int32(u), Col: int32(v), Val: rng.Float32()}
		}
		requireSameCSR(t, "Symmetric", Symmetric(n, edges), doubledSymmetric(n, edges))
	}
}

func TestSymmetricOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Symmetric(3, []Coord{{0, 3, 1}})
}

// referenceNormalize computes GCNNormalize (gcn) or RowNormalize of a from
// first principles: row i of A + I holds i and A's columns, each once,
// and its degree is their count; then scale as the normalizations do.
func referenceNormalize(a *CSR, gcn bool) *CSR {
	n := a.Rows
	rows := make([][]int32, n)
	for i := range rows {
		rows[i] = append([]int32{int32(i)}, a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]]...)
		slices.Sort(rows[i])
		rows[i] = slices.Compact(rows[i])
	}
	out := NewEmpty(n, n)
	for i, cols := range rows {
		for _, c := range cols {
			v := float32(1) / float32(len(cols))
			if gcn {
				v = float32(1 / math.Sqrt(float64(len(cols))) * (1 / math.Sqrt(float64(len(rows[c])))))
			}
			out.ColIdx = append(out.ColIdx, c)
			out.Val = append(out.Val, v)
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// TestNormalizeMatchesReference checks both normalizations bit for bit
// against referenceNormalize on adjacencies with and without stored
// diagonals.
func TestNormalizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := map[string]*CSR{}
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		edges := make([]Coord, rng.Intn(4*n))
		for k := range edges {
			edges[k] = Coord{Row: int32(rng.Intn(n)), Col: int32(rng.Intn(n)), Val: 1}
		}
		cases[fmt.Sprintf("symmetric-%d", trial)] = Symmetric(n, edges)
		cases[fmt.Sprintf("with-diagonal-%d", trial)] = FromCoords(n, n, edges)
	}
	for name, a := range cases {
		requireSameCSR(t, name+" GCNNormalize", GCNNormalize(a), referenceNormalize(a, true))
		requireSameCSR(t, name+" RowNormalize", RowNormalize(a), referenceNormalize(a, false))
	}
}

// TestNormalizeRejectsBrokenRows checks that both normalizations panic,
// naming the first offending row, on a row that breaks the CSR invariant.
func TestNormalizeRejectsBrokenRows(t *testing.T) {
	for name, tc := range map[string]struct {
		a   *CSR
		row string
	}{
		"unsorted": {&CSR{Rows: 4, Cols: 4, RowPtr: []int64{0, 0, 3, 5, 6},
			ColIdx: []int32{3, 1, 2, 2, 0, 2}, Val: []float32{1, 1, 1, 1, 1, 1}}, "row 1's"},
		"repeated": {&CSR{Rows: 3, Cols: 3, RowPtr: []int64{0, 2, 5, 5},
			ColIdx: []int32{1, 1, 0, 1, 2}, Val: []float32{1, 1, 1, 1, 1}}, "row 0's"},
		"falling": {&CSR{Rows: 3, Cols: 3, RowPtr: []int64{0, 3, 1, 4},
			ColIdx: []int32{0, 1, 2, 0}, Val: []float32{1, 1, 1, 1}}, "row 1's"},
		"out-of-range": {&CSR{Rows: 3, Cols: 3, RowPtr: []int64{0, 1, 2, 2},
			ColIdx: []int32{1, 3}, Val: []float32{1, 1}}, "row 1's"},
	} {
		for fn, normalize := range map[string]func(*CSR) *CSR{"GCNNormalize": GCNNormalize, "RowNormalize": RowNormalize} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, tc.row) {
						t.Errorf("%s %s: panic %q, want one naming %s", name, fn, msg, tc.row)
					}
				}()
				normalize(tc.a)
			}()
		}
	}
}
