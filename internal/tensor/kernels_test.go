package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// onEachPath calls fn once per rowAccPacked path this executable can run,
// with that path selected and named, and logs the paths that ran. The
// probe's choice is back in place when it returns, or when fn fails.
func onEachPath(t testing.TB, fn func(path string)) {
	t.Helper()
	paths := rowAccPaths()
	for _, p := range paths {
		func() {
			defer usePath(p)()
			fn(p)
		}()
	}
	t.Logf("rowAccPacked paths run: %v", paths)
}

// kernelMaxWidth is where the kernel sweeps stop taking every width: a
// 128-float chunk and a tail; below it 127 = 64+32+16+8+4+2+1 meets
// a 64-float chunk, a 32-float chunk and every SSE2 tail in one row.
// wideWidths carry the sweeps past it: the 128-float EVEX chunk beside a
// 32-float one (160), a 64-float one (224), both and every tail (255 =
// 128+64+32+16+8+4+2+1), two 128-float chunks with nothing or one float
// either side, and 602 = 4·128+64+16+8+2, the widest input layer the
// benchmark's workloads multiply.
const kernelMaxWidth = 131

var wideWidths = []int{160, 224, 255, 256, 257, 602}

// sweepWidths is every width 0–kernelMaxWidth, then wideWidths.
func sweepWidths() []int {
	ws := make([]int, 0, kernelMaxWidth+1+len(wideWidths))
	for f := 0; f <= kernelMaxWidth; f++ {
		ws = append(ws, f)
	}
	return append(ws, wideWidths...)
}

// TestRowAccMatchesLoop pins the packed kernel, on each of its paths, to
// the Go loop bit for bit on every width 0–131 and wideWidths (every mix of
// its 128-, 64- and 32-float EVEX chunks, its 64- and 32-float VEX chunks
// and its 32-, 16-, 8-, 4-, 2- and 1-float SSE2 chunks), with 0, 1 and 3
// entries over three rows (so rows repeat), at
// every alignment of out and in modulo one packed word, with the awkward
// values in out as well as in the operands, and guard elements past
// out[:f] that must not change. Under -race (and off amd64) rowAccPacked is the loop
// itself and the test is vacuous.
func TestRowAccMatchesLoop(t *testing.T) {
	onEachPath(t, func(path string) { rowAccMatchesLoop(t, path, false) })
}

// TestRowSetMatchesLoop is TestRowAccMatchesLoop for the set form, whose
// oracle is rowOracle: out[:f] cleared, then the Go loop's add form. The
// set form's one masked EVEX pass meets every width 3–48 here, and its
// zeroed 128-, 64- and 32-float chunks every width past them.
func TestRowSetMatchesLoop(t *testing.T) {
	onEachPath(t, func(path string) { rowAccMatchesLoop(t, path, true) })
}

// rowOracle is what the kernel must leave, in the add form (set false) or
// the set form: the Go loop's add form, onto out's rows cleared first in
// the set form. A set-form call that reports a bad index leaves its row and
// the rows after it +0, which the clear already holds. It checks the Go
// loop's own set form against that before returning what the loop reports.
func rowOracle(t testing.TB, out, vals []float32, idx []int32, ptr []int64, in []float32, f int, set bool) int64 {
	t.Helper()
	if !set {
		return rowAccLoop(out, vals, idx, ptr, in, f, false)
	}
	rows := 1
	if ptr != nil {
		rows = len(ptr) - 1
	}
	loop := append([]float32(nil), out...)
	clear(out[:rows*f])
	c := rowAccLoop(out, vals, idx, ptr, in, f, false)
	if lc := rowAccLoop(loop, vals, idx, ptr, in, f, true); lc != c {
		t.Fatalf("f=%d ptr=%v: the loop's set form reports %d, clear and add %d", f, ptr, lc, c)
	}
	for j := range out {
		if math.Float32bits(loop[j]) != math.Float32bits(out[j]) {
			t.Fatalf("f=%d ptr=%v: the loop's set form leaves out[%d] = %x, clear and add %x", f, ptr, j,
				math.Float32bits(loop[j]), math.Float32bits(out[j]))
		}
	}
	return c
}

// form names a kernel form in test failures.
func form(set bool) string {
	if set {
		return "set"
	}
	return "add"
}

func rowAccMatchesLoop(t *testing.T, path string, set bool) {
	rng := rand.New(rand.NewSource(18))
	const guard, rows = 4, 3
	for _, f := range sweepWidths() {
		for _, n := range []int{0, 1, 3} {
			for oo := 0; oo < 4; oo++ {
				for io := 0; io < 4; io++ {
					in := make([]float32, io+rows*f)
					fillAwkward(rng, in)
					vals, idx := make([]float32, n), make([]int32, n)
					fillAwkward(rng, vals)
					for p := range idx {
						idx[p] = int32(rng.Intn(rows))
					}
					got := make([]float32, oo+f+guard)
					fillAwkward(rng, got)
					want := append([]float32(nil), got...)
					gc := rowAccPacked(got[oo:], vals, idx, nil, in[io:], f, set)
					wc := rowOracle(t, want[oo:], vals, idx, nil, in[io:], f, set)
					if gc != rowOK || wc != rowOK {
						t.Fatalf("%s %s f=%d idx=%v: kernel reports %d, loop %d", path, form(set), f, idx, gc, wc)
					}
					for j := range want {
						if !sameBits(got[j], want[j]) {
							t.Fatalf("%s %s f=%d n=%d oo=%d io=%d: out[%d] = %x, loop says %x", path, form(set), f, n, oo, io,
								j-oo, math.Float32bits(got[j]), math.Float32bits(want[j]))
						}
					}
				}
			}
		}
	}
}

// raggedPtr returns a ptr whose rows have the lengths given, in order,
// starting at offset lead (the entries before it unused, as in a CSR
// RowPtr slice that starts past row 0).
func raggedPtr(lead int, lens ...int) []int64 {
	ptr := []int64{int64(lead)}
	for _, l := range lens {
		ptr = append(ptr, ptr[len(ptr)-1]+int64(l))
	}
	return ptr
}

// runShapes are the row-length lists TestRowAccRunsMatchesLoop runs: empty
// first, middle and last rows, a single row, 1- and 300-entry rows, and
// runs of empty rows.
var runShapes = [][]int{
	{0, 2, 1},
	{3, 0, 1},
	{2, 1, 0},
	{5},
	{0},
	{1},
	{300},
	{1, 300, 0, 0, 1, 2},
	{0, 0, 0, 4, 0, 0},
	{1, 1, 1, 1, 1, 1, 1, 1},
}

// TestRowAccRunsMatchesLoop pins the packed kernel over runs of rows, on
// each of its paths, to the Go loop, exact bits (NaN payloads too), on
// every width 0–131 and wideWidths (every mix of its EVEX, VEX and SSE2
// chunks) and each of
// runShapes, with unused entries before the run, at every alignment of out
// and in modulo one packed word, onto a NaN-filled or awkward out, with
// guard elements past the run's rows that must not change.
func TestRowAccRunsMatchesLoop(t *testing.T) {
	onEachPath(t, func(path string) { rowAccRunsMatchesLoop(t, path, false) })
}

// TestRowSetRunsMatchesLoop is TestRowAccRunsMatchesLoop for the set form
// against rowOracle: every row of the run is set, an empty one to +0, and
// the NaN-filled out must not show through.
func TestRowSetRunsMatchesLoop(t *testing.T) {
	onEachPath(t, func(path string) { rowAccRunsMatchesLoop(t, path, true) })
}

func rowAccRunsMatchesLoop(t *testing.T, path string, set bool) {
	rng := rand.New(rand.NewSource(33))
	const guard, rows = 4, 5
	for _, f := range sweepWidths() {
		for si, lens := range runShapes {
			for oo := 0; oo < 4; oo++ {
				io := (oo + si) % 4
				lead := rng.Intn(3)
				ptr := raggedPtr(lead, lens...)
				n := int(ptr[len(ptr)-1])
				in := make([]float32, io+rows*f)
				fillAwkward(rng, in)
				vals, idx := make([]float32, n), make([]int32, n)
				fillAwkward(rng, vals)
				for p := range idx {
					idx[p] = int32(rng.Intn(rows))
				}
				got := make([]float32, oo+len(lens)*f+guard)
				if oo%2 == 0 {
					for i := range got {
						got[i] = float32(math.NaN())
					}
				} else {
					fillAwkward(rng, got)
				}
				want := append([]float32(nil), got...)
				gc := rowAccPacked(got[oo:], vals, idx, ptr, in[io:], f, set)
				wc := rowOracle(t, want[oo:], vals, idx, ptr, in[io:], f, set)
				if gc != rowOK || wc != rowOK {
					t.Fatalf("%s %s f=%d ptr=%v: kernel reports %d, loop %d", path, form(set), f, ptr, gc, wc)
				}
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("%s %s f=%d ptr=%v oo=%d io=%d: out[%d] = %x, loop says %x", path, form(set), f, ptr, oo, io,
							j-oo, math.Float32bits(got[j]), math.Float32bits(want[j]))
					}
				}
			}
		}
	}
}

// TestRowAccRunsBadIndexStopsAtItsRow puts bad indices (one past the last
// row, negative, huge) into row k of a run, a second bad one later in row
// order, and requires rowRuns' add form, on each of the kernel's paths, to
// panic with a RowError naming the first, with the rows before k done (the
// loop's bits), row k and every row after it unchanged. The widths start
// in each chunk, the EVEX and VEX ones included.
func TestRowAccRunsBadIndexStopsAtItsRow(t *testing.T) {
	onEachPath(t, func(path string) { rowAccRunsBadIndexStopsAtItsRow(t, path, false) })
}

// TestRowSetRunsBadIndexStopsAtItsRow is its twin for RowSetRuns: the rows
// before k set, row k and every row after it +0, as clearing the run and
// adding leaves them. The widths start in each chunk of the set
// form and in each of its masked passes.
func TestRowSetRunsBadIndexStopsAtItsRow(t *testing.T) {
	onEachPath(t, func(path string) { rowAccRunsBadIndexStopsAtItsRow(t, path, true) })
}

func rowAccRunsBadIndexStopsAtItsRow(t *testing.T, path string, set bool) {
	rng := rand.New(rand.NewSource(34))
	const rows = 3
	lens := []int{2, 0, 3, 1, 300}
	for _, f := range []int{1, 2, 3, 8, 11, 16, 33, 40, 48, 67, 96, 127, 128, 160, 257} {
		for k, l := range lens {
			if l == 0 {
				continue
			}
			for _, bad := range []int32{rows, -1, 1 << 30} {
				ptr := raggedPtr(1, lens...)
				n := int(ptr[len(ptr)-1])
				in := make([]float32, rows*f)
				fillAwkward(rng, in)
				vals, idx := make([]float32, n), make([]int32, n)
				fillAwkward(rng, vals)
				for p := range idx {
					idx[p] = int32(rng.Intn(rows))
				}
				at := int(ptr[k]) + rng.Intn(l)
				idx[at] = bad
				idx[n-1] = rows + 7 // a later bad index, or the same entry's
				if at == n-1 {
					idx[at] = bad
				}
				got := make([]float32, len(lens)*f)
				fillAwkward(rng, got)
				stale := append([]float32(nil), got...)
				want := append([]float32(nil), got...)
				// The loop, stopped before row k, is what the rows before it hold;
				// row k and the rows after it hold what they held, or +0.
				if c := rowOracle(t, want[:k*f], vals, idx, ptr[:k+1], in, f, set); c != rowOK {
					t.Fatalf("rows before %d: loop reports %d", k, c)
				}
				if set {
					clear(want[k*f:])
				} else {
					copy(want[k*f:], stale[k*f:])
				}
				func() {
					defer func() {
						if err, ok := recover().(RowError); !ok || int32(err) != bad {
							t.Fatalf("%s %s f=%d row %d index %d: recovered %v, want a RowError naming it", path, form(set), f, k, bad, err)
						}
					}()
					rowRuns(got, vals, idx, ptr, in, f, set)
				}()
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("%s %s f=%d bad index in row %d: out[%d] (row %d) = %x, want %x", path, form(set), f, k, j, j/f,
							math.Float32bits(got[j]), math.Float32bits(want[j]))
					}
				}
			}
		}
	}
}

// chunkEdgeWidths sit on each side of the EVEX chunk boundaries: 32, 64
// and 128 floats, their sums and 602 (4·128+64+16+8+2). Below them every
// width 1–17 and 23, 47, 48 and 49 meet each SSE2 tail and each of the set
// form's masked passes (one to three accumulators, every mask length).
var chunkEdgeWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23,
	31, 32, 33, 40, 41, 47, 48, 49, 63, 64, 65, 127, 128, 129, 160, 224, 255, 256, 257, 602}

// specials are the values TestRowAccChunkEdges draws from: the awkward
// ones (±0, denormals, ±Inf among them) and NaNs of both signs with
// distinct payloads.
var specials = func() []float32 {
	v := append([]float32(nil), awkward...)
	for _, b := range nanBits {
		v = append(v, math.Float32frombits(b))
	}
	return v
}()

// TestRowAccChunkEdges pins the kernel, on each of its paths, to the Go
// loop, exact bits (NaN payloads too), on chunkEdgeWidths, one row and a
// run of three, with out starting at every float offset within a 64-byte
// line of its allocation, in at every third, and every value drawn from
// specials.
func TestRowAccChunkEdges(t *testing.T) {
	onEachPath(t, func(path string) { rowChunkEdges(t, path, false) })
}

// TestRowSetChunkEdges is TestRowAccChunkEdges for the set form, against
// rowOracle: out cleared, then the Go loop's add form, bit for bit. The
// specials in out (NaNs among them) must not show through.
func TestRowSetChunkEdges(t *testing.T) {
	onEachPath(t, func(path string) { rowChunkEdges(t, path, true) })
}

func rowChunkEdges(t *testing.T, path string, set bool) {
	rng := rand.New(rand.NewSource(44))
	fill := func(v []float32) {
		for i := range v {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
	const guard, rows = 4, 4
	for _, f := range chunkEdgeWidths {
		for _, ptr := range [][]int64{nil, raggedPtr(0, 2, 0, 3)} {
			outRows, n := 1, 5
			if ptr != nil {
				outRows, n = len(ptr)-1, int(ptr[len(ptr)-1])
			}
			for oo := 0; oo < 16; oo++ {
				for io := 0; io < 16; io += 3 {
					in := make([]float32, io+rows*f)
					fill(in)
					vals, idx := make([]float32, n), make([]int32, n)
					fill(vals)
					for p := range idx {
						idx[p] = int32(rng.Intn(rows))
					}
					got := make([]float32, oo+outRows*f+guard)
					fill(got)
					want := append([]float32(nil), got...)
					gc := rowAccPacked(got[oo:], vals, idx, ptr, in[io:], f, set)
					wc := rowOracle(t, want[oo:], vals, idx, ptr, in[io:], f, set)
					if gc != rowOK || wc != rowOK {
						t.Fatalf("%s %s f=%d ptr=%v: kernel reports %d, loop %d", path, form(set), f, ptr, gc, wc)
					}
					for j := range want {
						if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
							t.Fatalf("%s %s f=%d ptr=%v oo=%d io=%d: out[%d] = %x, loop says %x", path, form(set), f, ptr, oo, io,
								j-oo, math.Float32bits(got[j]), math.Float32bits(want[j]))
						}
					}
				}
			}
		}
	}
}

// TestRowAccBadLastEntryThenNarrow puts a bad index on the last entry of
// the third 128-float row of a run, where the widest chunk's pass meets it
// after every other entry of the row, and requires, on each path, a
// RowError naming it with the rows before done (the loop's bits) and that
// row and the one after untouched. A 16-, 8- and 3-float call (SSE2 on
// every path) made next must still give the loop's bits: the exit through
// the wide chunks leaves no state behind.
func TestRowAccBadLastEntryThenNarrow(t *testing.T) {
	onEachPath(t, func(path string) { rowBadLastEntryThenNarrow(t, path, false) })
}

// TestRowSetBadLastEntryThenNarrow is its twin for the set form: the rows
// before the bad one set, that row and the one after +0, and the 16-, 8-
// and 3-float set-form calls made next (on the EVEX path, the masked pass
// with K1 set by the new call) give rowOracle's bits.
func TestRowSetBadLastEntryThenNarrow(t *testing.T) {
	onEachPath(t, func(path string) { rowBadLastEntryThenNarrow(t, path, true) })
}

func rowBadLastEntryThenNarrow(t *testing.T, path string, set bool) {
	rng := rand.New(rand.NewSource(45))
	const f, rows, bad = 128, 3, -5
	ptr := raggedPtr(0, 2, 1, 4, 2)
	n := int(ptr[len(ptr)-1])
	in := make([]float32, rows*f)
	fillAwkward(rng, in)
	vals, idx := make([]float32, n), make([]int32, n)
	fillAwkward(rng, vals)
	for p := range idx {
		idx[p] = int32(rng.Intn(rows))
	}
	idx[ptr[3]-1] = bad
	got := make([]float32, 4*f)
	fillAwkward(rng, got)
	want := append([]float32(nil), got...)
	if c := rowOracle(t, want[:2*f], vals, idx, ptr[:3], in, f, set); c != rowOK {
		t.Fatalf("rows before the bad one: loop reports %d", c)
	}
	if set {
		clear(want[2*f:])
	}
	func() {
		defer func() {
			if err, ok := recover().(RowError); !ok || err != bad {
				t.Fatalf("%s %s: recovered %v, want RowError(%d)", path, form(set), err, bad)
			}
		}()
		rowRuns(got, vals, idx, ptr, in, f, set)
	}()
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s %s: out[%d] (row %d) = %x, want %x", path, form(set), j, j/f, math.Float32bits(got[j]), math.Float32bits(want[j]))
		}
	}
	for _, w := range []int{16, 8, 3} {
		got, want := make([]float32, w), make([]float32, w)
		fillAwkward(rng, got)
		copy(want, got)
		idx := []int32{2, 0, 1}
		if gc, wc := rowAccPacked(got, vals[:3], idx, nil, in[:rows*w], w, set), rowOracle(t, want, vals[:3], idx, nil, in[:rows*w], w, set); gc != rowOK || wc != rowOK {
			t.Fatalf("%s %s f=%d after the bad exit: kernel reports %d, loop %d", path, form(set), w, gc, wc)
		}
		for j := range want {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("%s %s f=%d after the bad exit: out[%d] = %x, loop says %x", path, form(set), w, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
			}
		}
	}
}

// TestRowAccRunsMalformedPanics gives rowRuns runs that do not fit their
// operands — a decreasing ptr, a negative first offset, a last offset past
// idx or past vals, more rows than out holds, an empty ptr — and requires a
// RowError before anything is read: out unchanged. RowAcc's own checks (out
// shorter than f, vals shorter than idx) run in the same place, in both
// forms: RowSetRuns and RowSet, which write every row they are given,
// must not write either.
func TestRowAccRunsMalformedPanics(t *testing.T) {
	const f = 2
	vals, idx, in := []float32{1, 2, 3, 4}, []int32{0, 1, 0, 1}, []float32{1, 2, 3, 4}
	for _, c := range []struct {
		name      string
		out, vals []float32
		ptr       []int64
	}{
		{"decreasing", make([]float32, 3*f), vals, []int64{0, 2, 1, 4}},
		{"negative first", make([]float32, 3*f), vals, []int64{-1, 2, 3, 4}},
		{"past idx", make([]float32, 3*f), vals, []int64{0, 2, 3, 5}},
		{"past vals", make([]float32, 3*f), vals[:3], []int64{0, 2, 3, 4}},
		{"out short", make([]float32, 3*f-1), vals, []int64{0, 2, 3, 4}},
		{"empty ptr", make([]float32, 3*f), vals, []int64{}},
		{"RowAcc vals short", make([]float32, f), vals[:3], nil},
		{"RowAcc out short", make([]float32, f-1), vals, nil},
	} {
		for _, set := range []bool{false, true} {
			for i := range c.out {
				c.out[i] = 7
			}
			func() {
				defer func() {
					if err, ok := recover().(RowError); !ok || err != rowBadRun {
						t.Errorf("%s %s: recovered %v, want RowError(rowBadRun)", form(set), c.name, err)
					}
				}()
				switch {
				case c.ptr == nil && set:
					RowSet(c.out, c.vals, idx, in, f)
				case c.ptr == nil:
					RowAcc(c.out, c.vals, idx, in, f)
				case set:
					RowSetRuns(c.out, c.vals, idx, c.ptr, in, f)
				default:
					rowRuns(c.out, c.vals, idx, c.ptr, in, f, false)
				}
			}()
			for i, v := range c.out {
				if v != 7 {
					t.Errorf("%s %s: out[%d] = %v, nothing may be written", form(set), c.name, i, v)
				}
			}
			if got, want := rowAccPacked(c.out, c.vals, idx, c.ptr, in, f, set), rowAccLoop(c.out, c.vals, idx, c.ptr, in, f, set); got != want {
				t.Errorf("%s %s: kernel reports %d, loop %d", form(set), c.name, got, want)
			}
		}
	}
}

func TestRowAccShortOutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RowAcc wrote to an out shorter than f")
		}
	}()
	RowAcc(make([]float32, 31), []float32{1}, []int32{0}, make([]float32, 32), 32)
}

// The three loops below are the textbook kernels, one thread, kept as the
// oracle: one rounded multiply then one rounded add per element, in this
// order, from +0.

func naiveMatMul(a, b *Dense) *Dense {
	c := NewDense(a.Rows, b.Cols)
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		ci := c.Data[i*n : (i+1)*n]
		for k, av := range a.Data[i*a.Cols : (i+1)*a.Cols] {
			if av == 0 {
				continue
			}
			for j, bv := range b.Data[k*n : (k+1)*n] {
				ci[j] += float32(av * bv)
			}
		}
	}
	return c
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

// Output widths: every MatMulTB width below 12 (the dot product's old
// territory), then both sides of one packed word, of the 16- and 32-float
// chunks and of the 64- and 128-float ones. Shared dimensions: both sides of rowBlock (the entry
// blocks of MatMulInto and MatMulTB), of panelRows and of two panels (the
// panels of MatMulTA, whose shared dimension is A's rows).
var (
	kernelWidths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 16, 17, 31, 33, 65, 128, 129}
	sharedDims   = []int{0, 1, 7, 40, 63, 64, 65, 127, 128, 129, 130, 300}
)

// nanBits are NaNs of both signs with distinct payloads, quiet and
// signalling.
var nanBits = []uint32{0x7fc00000, 0xffc00123, 0x7f800001, 0xff812345}

// TestKernelsMatchNaive pins MatMulInto, MatMulTA and MatMulTB to the
// retained naive loops bit for bit, into fresh and NaN-filled
// destinations. An Inf sits in B where A holds a zero: 0·Inf = NaN, so a
// kernel that skipped a zero the naive loop multiplies (MatMulTB has no
// zero-skip) or the reverse would show. NaNs sit in the last output row's
// entries of A, which the zero-skip must keep; the other rows stay finite.
// Where the shared dimension passes rowBlock, A's first row holds exactly
// rowBlock nonzeros and then zeros, so MatMulInto flushes a full block and
// ends on an empty one. It runs on each of the row kernel's paths.
func TestKernelsMatchNaive(t *testing.T) {
	onEachPath(t, func(string) { kernelsMatchNaive(t) })
}

func kernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, m := range []int{0, 1, 5, 37} {
		for _, k := range sharedDims {
			for _, n := range kernelWidths {
				shape := fmt.Sprintf("%dx%d·%dx%d", m, k, k, n)
				nan := NewDense(m, n)

				// A·B, with A[0,k-1] = 0 against B[k-1,n-1] = Inf.
				a := halfZeros(rng, m, k)
				b := NewDense(k, n)
				b.Randomize(rng, 2)
				if m > 0 && k > 0 && n > 0 {
					a.Data[k-1] = 0
					b.Data[k*n-1] = float32(math.Inf(1))
				}
				if m > 0 && k > rowBlock {
					for j := range a.Data[:k] {
						if j >= rowBlock {
							a.Data[j] = 0
						} else if a.Data[j] == 0 {
							a.Data[j] = 1
						}
					}
				}
				if m > 1 {
					for j := 0; j < k; j += 3 {
						a.Data[(m-1)*k+j] = math.Float32frombits(nanBits[j%len(nanBits)])
					}
				}
				requireSameBits(t, "MatMul "+shape, MatMul(a, b), naiveMatMul(a, b))
				for i := range nan.Data {
					nan.Data[i] = float32(math.NaN())
				}
				MatMulInto(a, b, nan)
				requireSameBits(t, "MatMulInto "+shape, nan, naiveMatMul(a, b))

				// Aᵀ·B: A is k x m here, so the shared dimension k is what the
				// panels split; A[k-1,0] = 0 against B[k-1,n-1] = Inf.
				at := halfZeros(rng, k, m)
				if m > 0 && k > 0 && n > 0 {
					at.Data[(k-1)*m] = 0
				}
				if m > 1 {
					for i := 0; i < k; i += 3 {
						at.Data[i*m+m-1] = math.Float32frombits(nanBits[i%len(nanBits)])
					}
				}
				requireSameBits(t, "MatMulTA "+shape, MatMulTA(at, b), naiveMatMulTA(at, b))
				// The Into forms overwrite: a stale destination (the engine's
				// retained tiles) must not show through.
				for i := range nan.Data {
					nan.Data[i] = float32(math.NaN())
				}
				MatMulTAInto(at, b, nan)
				requireSameBits(t, "MatMulTAInto "+shape, nan, naiveMatMulTA(at, b))

				// A·Bᵀ: B is n x k, output width n; A[0,k-1] = 0 against
				// B[n-1,k-1] = -Inf, which must give NaN.
				bt := halfZeros(rng, n, k)
				if m > 0 && k > 0 && n > 0 {
					bt.Data[n*k-1] = float32(math.Inf(-1))
				}
				requireSameBits(t, "MatMulTB "+shape, MatMulTB(a, bt), naiveMatMulTB(a, bt))
				for i := range nan.Data {
					nan.Data[i] = float32(math.NaN())
				}
				MatMulTBInto(a, bt, nan)
				requireSameBits(t, "MatMulTBInto "+shape, nan, naiveMatMulTB(a, bt))
			}
		}
	}
}

// FuzzRowAcc feeds the row kernel, on each of its paths and in the form
// the input picks, arbitrary bit patterns (NaNs of every payload included,
// in out as well as in the operands, since the add form loads out), widths
// 0–255, 0–40 entries, repeated and out-of-range indices and unaligned
// slices, and requires rowAccLoop's result and the same bits everywhere —
// NaN payloads too, which is what pins the product as the first operand of
// each add — so nothing is written outside out[:f], nor anywhere by the
// add form when an index is bad (the set form leaves out[:f] +0).
//
// Input: f, entry count, rows-1 | extra<<3 (extra floats past the last
// full row of in), slice offsets (out in the low two bits, in in the next
// two) | 16 for the set form; then per entry an index byte and a little-endian float32 value;
// then f words of out; then the words of in, repeated to fill it. Index
// bytes below 0xf0 pick a row modulo rows, 0xf0–0xf7 one 0–7 rows past
// the last, 0xf8–0xff a negative or huge index.
func FuzzRowAcc(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 1, 0, 0, 0, 0, 0x80, 0x3f, 1, 0, 0, 0, 0xc0, 2, 0, 0, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		width, n, rows := int(data[0]), int(data[1])%41, 1+int(data[2]&7)
		extra := 0
		if width > 0 {
			extra = int(data[2]>>3) % width
		}
		oo, io, set := int(data[3]&3), int(data[3]>>2&3), data[3]&16 != 0
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
		idx, vals := make([]int32, n), make([]float32, n)
		for p := range idx {
			switch b := byteAt(5 * p); {
			case b < 0xf0:
				idx[p] = int32(int(b) % rows)
			case b < 0xf8:
				idx[p] = int32(rows + int(b&7))
			default:
				idx[p] = []int32{-1, math.MinInt32, 1 << 30, math.MaxInt32}[b&3]
			}
			vals[p] = word(5*p + 1)
		}
		const guard = 5
		start := make([]float32, oo+width+guard)
		for i := range start {
			start[i] = float32(i + 1)
		}
		for j := 0; j < width; j++ {
			start[oo+j] = word(5*n + 4*j)
		}
		want := append([]float32(nil), start...)
		in := make([]float32, io+rows*width+extra)
		head := 5*n + 4*width
		if words := (len(body) - head) / 4; words > 0 {
			for i := range in[io:] {
				in[io+i] = word(head + 4*(i%words))
			}
		}
		wc := rowAccLoop(want[oo:], vals, idx, nil, in[io:], width, set)
		onEachPath(t, func(path string) {
			got := append([]float32(nil), start...)
			if gc := rowAccPacked(got[oo:], vals, idx, nil, in[io:], width, set); gc != wc {
				t.Fatalf("%s %s f=%d idx=%v: kernel reports %d, loop %d", path, form(set), width, idx, gc, wc)
			}
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("%s %s f=%d n=%d oo=%d io=%d: out[%d] = %x, loop says %x", path, form(set), width, n, oo, io,
						j-oo, math.Float32bits(got[j]), math.Float32bits(want[j]))
				}
			}
		})
	})
}

// FuzzRowAccRuns feeds the row kernel, on each of its paths and in the
// form the input picks, runs of rows: arbitrary bit patterns (NaNs of every
// payload included, in out as well as in the operands), widths 0–255, 0–40
// entries, 0–7 rows of any lengths, well-formed or not (decreasing, past
// the entries, vals or out one short), repeated and out-of-range indices
// and unaligned slices. It requires rowAccLoop's result and the same bits
// everywhere, NaN payloads too: a malformed run writes nothing, a bad index
// leaves its row and the rows after it as they were (the add form) or +0
// (the set form).
//
// Input: f, entry count, in's rows-1 | extra<<3 (extra floats past the
// last full row of in), slice offsets (out in the low two bits, in in the
// next two) | 16 for the set form, rows | 8 (vals one short) | 16 (out one short); then ptr: a
// first offset byte (modulo entries+1) and per row a byte, below 0xf0 a
// length (clamped at the entries), 0xf0–0xf7 a step back, 0xf8–0xff a
// step past the entries; then per entry an index byte and a little-endian
// float32 value, as in FuzzRowAcc; then the words of out; then the words
// of in, repeated to fill it.
func FuzzRowAccRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 1, 0, 2, 0, 1, 1, 0, 0, 0, 0x80, 0x3f, 1, 0, 0, 0, 0xc0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		width, n, rows := int(data[0]), int(data[1])%41, 1+int(data[2]&7)
		extra := 0
		if width > 0 {
			extra = int(data[2]>>3) % width
		}
		oo, io, set := int(data[3]&3), int(data[3]>>2&3), data[3]&16 != 0
		runRows, shortVals, shortOut := int(data[4]&7), data[4]&8 != 0, data[4]&16 != 0
		body := data[5:]
		byteAt := func(i int) byte {
			if i < len(body) {
				return body[i]
			}
			return 0
		}
		ptr := []int64{int64(int(byteAt(0)) % (n + 1))}
		for r := 1; r <= runRows; r++ {
			last := ptr[r-1]
			switch b := byteAt(r); {
			case b < 0xf0:
				ptr = append(ptr, min(last+int64(b), int64(n)))
			case b < 0xf8:
				ptr = append(ptr, last-1-int64(b&7))
			default:
				ptr = append(ptr, int64(n)+1+int64(b&7))
			}
		}
		body = body[min(runRows+1, len(body)):]
		word := func(i int) float32 {
			return math.Float32frombits(uint32(byteAt(i)) | uint32(byteAt(i+1))<<8 |
				uint32(byteAt(i+2))<<16 | uint32(byteAt(i+3))<<24)
		}
		idx, vals := make([]int32, n), make([]float32, n)
		for p := range idx {
			switch b := byteAt(5 * p); {
			case b < 0xf0:
				idx[p] = int32(int(b) % rows)
			case b < 0xf8:
				idx[p] = int32(rows + int(b&7))
			default:
				idx[p] = []int32{-1, math.MinInt32, 1 << 30, math.MaxInt32}[b&3]
			}
			vals[p] = word(5*p + 1)
		}
		if shortVals && n > 0 {
			vals = vals[:n-1]
		}
		const guard = 5
		outLen := runRows * width
		if shortOut && outLen > 0 {
			outLen--
		}
		start := make([]float32, oo+outLen+guard)
		for i := range start {
			start[i] = float32(i + 1)
		}
		for j := 0; j < outLen; j++ {
			start[oo+j] = word(5*n + 4*j)
		}
		want := append([]float32(nil), start...)
		in := make([]float32, io+rows*width+extra)
		head := 5*n + 4*outLen
		if words := (len(body) - head) / 4; words > 0 {
			for i := range in[io:] {
				in[io+i] = word(head + 4*(i%words))
			}
		}
		wc := rowAccLoop(want[oo:oo+outLen], vals, idx, ptr, in[io:], width, set)
		onEachPath(t, func(path string) {
			got := append([]float32(nil), start...)
			if gc := rowAccPacked(got[oo:oo+outLen], vals, idx, ptr, in[io:], width, set); gc != wc {
				t.Fatalf("%s %s f=%d ptr=%v idx=%v: kernel reports %d, loop %d", path, form(set), width, ptr, idx, gc, wc)
			}
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("%s %s f=%d ptr=%v oo=%d io=%d: out[%d] = %x, loop says %x", path, form(set), width, ptr, oo, io,
						j-oo, math.Float32bits(got[j]), math.Float32bits(want[j]))
				}
			}
		})
	})
}

// FuzzAxpy feeds the row kernel's one-entry form, y[:n] += s·x[:n] as the
// comm reductions call it, arbitrary bit patterns (NaNs of every payload
// included), alignments and lengths past FuzzRowAcc's 255, and requires the
// Go loop's bits, NaN payloads too, and nothing written outside y[:n].
//
// Input: x and y offsets, then s and (x[j], y[j]) pairs as little-endian
// float32 bits.
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
		gc := rowAccPacked(got[yo:], []float32{s}, []int32{0}, nil, x[xo:], n, false)
		wc := rowAccLoop(want[yo:], []float32{s}, []int32{0}, nil, x[xo:], n, false)
		if gc != rowOK || wc != rowOK {
			t.Fatalf("n=%d: kernel reports %d, loop %d", n, gc, wc)
		}
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("n=%d xo=%d yo=%d s=%x: y[%d] = %x, loop says %x", n, xo, yo,
					math.Float32bits(s), j-yo, math.Float32bits(got[j]), math.Float32bits(want[j]))
			}
		}
	})
}

// Kernel micro-benchmarks at the per-device shapes of the benchmark's three
// train workloads (benchmark/README.md), so a kernel change is judged in
// seconds: go test -run '^$' -bench . -cpu 1,2 ./internal/tensor ./internal/sparse
type denseShape struct {
	name    string
	m, k, n int
}

var denseShapes = []denseShape{
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

// benchPaths runs bench once per rowAccPacked path this host can execute,
// as a sub-benchmark named after it (evex, vex, sse2; go off amd64 and
// under -race), so the paths' GFLOP/s per shape read side by side.
func benchPaths(b *testing.B, bench func(b *testing.B)) {
	for _, p := range rowAccPaths() {
		b.Run(p, func(b *testing.B) {
			defer usePath(p)()
			bench(b)
		})
	}
}

// BenchmarkRowAccWidths is the row kernel alone: one output row, 64
// entries over 64 distinct input rows, at the SpMM widths of the train
// workloads at P=8 (1, 2, 5, 16), widths that take a 32-float chunk and a
// tail (32, 40), the 64- and 128-float chunks, and 602 = 4·128+64+16+8+2
// (Reddit's input layer), per path, in the add form (RowAcc) and the set
// form (RowSet).
func BenchmarkRowAccWidths(b *testing.B) {
	benchPaths(b, func(b *testing.B) {
		for _, set := range []bool{false, true} {
			b.Run(form(set), func(b *testing.B) {
				for _, f := range []int{1, 2, 5, 16, 32, 40, 64, 128, 602} {
					b.Run(fmt.Sprintf("f%d", f), func(b *testing.B) {
						const entries = 64
						rng := rand.New(rand.NewSource(1))
						in, out := NewDense(entries, f), make([]float32, f)
						in.Randomize(rng, 1)
						vals, idx := make([]float32, entries), make([]int32, entries)
						for p := range idx {
							vals[p], idx[p] = float32(rng.NormFloat64()), int32(p)
						}
						row := RowAcc
						if set {
							row = RowSet
						}
						benchDense(b, entries*int64(f), func() { row(out, vals, idx, in.Data, f) })
					})
				}
			})
		}
	})
}

// BenchmarkRowRunsWidths is the row kernel at the throughput the products
// run it: one call over a run of 2646 rows of 15 entries each, sorted
// uniform random columns of a 21167-row input (train-gemm's aggregation
// panel, OGB-Arxiv/8 at P=8), per path, in the add form (rowRuns) and the
// set form (RowSetRuns), at 1–128 floats: the set form's masked passes
// (3–48) and the chunks on either side. BenchmarkRowAccWidths's single
// row of 64 entries is one dependency chain per accumulator and ranks the
// paths by latency instead.
func BenchmarkRowRunsWidths(b *testing.B) {
	const rows, deg, inRows = 2646, 15, 21167
	rng := rand.New(rand.NewSource(1))
	ptr := make([]int64, rows+1)
	vals, idx := make([]float32, rows*deg), make([]int32, rows*deg)
	for i := range rows {
		ptr[i+1] = int64((i + 1) * deg)
		for p := i * deg; p < (i+1)*deg; p++ {
			vals[p], idx[p] = rng.Float32(), int32(rng.Intn(inRows))
		}
		slices.Sort(idx[i*deg : (i+1)*deg])
	}
	benchPaths(b, func(b *testing.B) {
		for _, set := range []bool{false, true} {
			b.Run(form(set), func(b *testing.B) {
				for _, f := range []int{1, 2, 4, 5, 8, 12, 16, 32, 48, 64, 128} {
					b.Run(fmt.Sprintf("f%d", f), func(b *testing.B) {
						in, out := NewDense(inRows, f), make([]float32, rows*f)
						in.Randomize(rng, 1)
						benchDense(b, rows*deg*int64(f), func() { rowRuns(out, vals, idx, ptr, in.Data, f, set) })
					})
				}
			})
		}
	})
}

// BenchmarkMatMulInto is the combination X·W. X, like BenchmarkMatMulTA's,
// is an activation: Randomize then ReLU, so about half its entries are
// zeros the zero-skip meets.
func BenchmarkMatMulInto(b *testing.B) {
	benchPaths(b, func(b *testing.B) {
		for _, s := range denseShapes {
			b.Run(s.name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				x, w, out := NewDense(s.m, s.k), NewDense(s.k, s.n), NewDense(s.m, s.n)
				x.Randomize(rng, 1)
				x.ReLU()
				w.Randomize(rng, 1)
				benchDense(b, GemmFLOPs(s.m, s.k, s.n), func() { MatMulInto(x, w, out) })
			})
		}
	})
}

// BenchmarkMatMulTA is the weight gradient Xᵀ·dZ: (m x k)ᵀ · (m x n).
func BenchmarkMatMulTA(b *testing.B) {
	benchPaths(b, func(b *testing.B) {
		for _, s := range denseShapes {
			b.Run(s.name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				x, dz := NewDense(s.m, s.k), NewDense(s.m, s.n)
				x.Randomize(rng, 1)
				x.ReLU()
				dz.Randomize(rng, 1)
				benchDense(b, GemmFLOPs(s.k, s.m, s.n), func() { MatMulTA(x, dz) })
			})
		}
	})
}

// BenchmarkMatMulTB is the input gradient dZ·Wᵀ: (m x n) · (k x n)ᵀ. The
// last shape has an 8-float output, where a dot product per element used
// to run.
func BenchmarkMatMulTB(b *testing.B) {
	benchPaths(b, func(b *testing.B) {
		for _, s := range append(denseShapes[:len(denseShapes):len(denseShapes)], denseShape{"narrow_24576x8x16", 24576, 8, 16}) {
			b.Run(s.name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				dz, w := NewDense(s.m, s.n), NewDense(s.k, s.n)
				dz.Randomize(rng, 1)
				w.Randomize(rng, 1)
				benchDense(b, GemmFLOPs(s.m, s.n, s.k), func() { MatMulTB(dz, w) })
			})
		}
	})
}

// BenchmarkReLU and BenchmarkReLUGrad run the activation and its backward
// mask on OGB-Arxiv's 2646x128 tile, uniform on [−1, 1] and so half
// negative: the data a branch on the sign would mispredict half the time.
// Bytes are those read and written.
func BenchmarkReLU(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	z, work := NewDense(2646, 128), NewDense(2646, 128)
	z.Randomize(rng, 1)
	b.SetBytes(2 * z.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work.CopyFrom(z)
		b.StartTimer()
		work.ReLU()
	}
}

func BenchmarkReLUGrad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, h := NewDense(2646, 128), NewDense(2646, 128)
	g.Randomize(rng, 1)
	h.Randomize(rng, 1)
	h.ReLU()
	b.SetBytes(3 * g.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ReLUGrad(h)
	}
}
