package dist

import (
	"math/rand"
	"slices"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/tensor"
)

func TestGenRows(t *testing.T) {
	a := GenRows(7, 100, 25)
	b := GenRows(7, 100, 25)
	if len(a) != 25 {
		t.Fatalf("got %d rows, want 25", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("GenRows not deterministic")
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("not sorted/distinct at %d: %v", i, a[i-1:i+1])
		}
		if a[i] < 0 || a[i] >= 100 {
			t.Fatalf("row %d out of range", a[i])
		}
	}
	if c := GenRows(7, 100, 26); len(c) != 26 {
		t.Fatal("count not honored")
	}
	if got := GenRows(1, 5, 9); len(got) != 5 || got[0] != 0 || got[4] != 4 {
		t.Fatalf("count >= n should return all rows, got %v", got)
	}
	if got := GenRows(1, 5, 0); len(got) != 0 {
		t.Fatalf("count 0 should return empty, got %v", got)
	}
}

func TestLiveRowsScan(t *testing.T) {
	m := tensor.NewDense(5, 3)
	m.Set(1, 2, 0.5)
	m.Set(4, 0, -1)
	got := LiveRows(m)
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("LiveRows = %v, want [1 4]", got)
	}
	if got := LiveRows(tensor.NewDense(3, 2)); len(got) != 0 {
		t.Fatalf("all-zero matrix has live rows %v", got)
	}
}

// TestKeepRowsIsLiveRows pins the contract the sparse benchmarks and
// checks rely on: the value scan of KeepRows(x, rows) is rows exactly,
// whatever x holds — including a kept row that is all zero in x (it
// gets 0.5 in column 0) and dropped rows that are nonzero in x. Kept
// rows that are nonzero in x keep their values.
func TestKeepRowsIsLiveRows(t *testing.T) {
	x := tensor.NewDense(40, 3)
	rng := rand.New(rand.NewSource(5))
	for i := range x.Data {
		x.Data[i] = rng.Float32() + 0.25
	}
	rows := GenRows(9, 40, 12)
	zero := rows[3]
	clear(x.Row(int(zero)))
	x.Set(int(rows[5]), 0, 0) // nonzero elsewhere in the row: kept as is
	got := KeepRows(x, rows)
	if live := LiveRows(got); !slices.Equal(live, rows) {
		t.Fatalf("LiveRows(KeepRows(x, rows)) = %v, want %v", live, rows)
	}
	if want := []float32{0.5, 0, 0}; !slices.Equal(got.Row(int(zero)), want) {
		t.Fatalf("all-zero kept row %d = %v, want %v", zero, got.Row(int(zero)), want)
	}
	for _, r := range rows {
		if r != zero && !slices.Equal(got.Row(int(r)), x.Row(int(r))) {
			t.Fatalf("kept row %d = %v, want x's %v", r, got.Row(int(r)), x.Row(int(r)))
		}
	}
	if live := LiveRows(KeepRows(x, nil)); len(live) != 0 {
		t.Fatalf("KeepRows with no rows leaves live rows %v", live)
	}
}

func TestCountInRange(t *testing.T) {
	live := []int32{2, 3, 7, 9}
	cases := []struct{ lo, hi, want int }{
		{0, 10, 4}, {3, 8, 2}, {4, 7, 0}, {9, 10, 1}, {10, 20, 0},
	}
	for _, c := range cases {
		if got := CountInRange(live, c.lo, c.hi); got != c.want {
			t.Fatalf("CountInRange[%d,%d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestRowSetWireRoundTrip(t *testing.T) {
	ids := []int32{0, 5, 1 << 20}
	buf := EncodeRowSet(ids, 17)
	got, w, err := DecodeRowSet(buf)
	if err != nil || w != 17 || len(got) != len(ids) {
		t.Fatalf("round trip: ids=%v w=%d err=%v", got, w, err)
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("id %d: %d != %d", i, got[i], ids[i])
		}
	}
	bad := [][]float32{
		{},              // too short
		{1},             // too short
		{2, 4, 1},       // count mismatch
		{-1, 4},         // negative count
		{1, 4, 0.5},     // non-integer id
		{1, 4, -3},      // negative id
		{0, 0.25},       // non-integer width
		{1, 4, 1 << 25}, // id beyond dimension cap
	}
	for _, b := range bad {
		if _, _, err := DecodeRowSet(b); err == nil {
			t.Fatalf("DecodeRowSet(%v) accepted malformed input", b)
		}
	}
}

// sparseGlobal builds an n x f matrix whose nonzero rows are exactly
// the live set.
func sparseGlobal(rng *rand.Rand, n, f int, live []int32) *tensor.Dense {
	m := tensor.NewDense(n, f)
	for _, r := range live {
		row := m.Row(int(r))
		for j := range row {
			row[j] = rng.Float32() + 0.5
		}
	}
	return m
}

// sparsePairBytes computes, from geometry and the live census alone,
// the metadata and payload bytes a sparse regrid must meter across
// non-self pairs — the same closed form internal/costmodel prices.
func sparsePairBytes(from, to Layout, p, n, f int, live []int32) (meta, pay int64) {
	from, to = from.normalize(p), to.normalize(p)
	for r := 0; r < p; r++ {
		srlo, srhi := RowRange(from, p, r, n)
		sclo, schi := ColRange(from, p, r, f)
		for q := 0; q < p; q++ {
			if q == r {
				continue
			}
			trlo, trhi := RowRange(to, p, q, n)
			tclo, tchi := ColRange(to, p, q, f)
			rlo, rhi := max(trlo, srlo), min(trhi, srhi)
			clo, chi := max(tclo, sclo), min(tchi, schi)
			if rlo >= rhi || clo >= chi {
				continue
			}
			cnt := CountInRange(live, rlo, rhi)
			meta += int64(2+cnt) * 4
			pay += int64(cnt*(chi-clo)) * 4
		}
	}
	return meta, pay
}

func TestRedistributeSparseAllPairs(t *testing.T) {
	const n, f, p = 24, 10, 4
	rng := rand.New(rand.NewSource(11))
	live := GenRows(3, n, n/4)
	global := sparseGlobal(rng, n, f, live)
	layouts := []Layout{H, V, G(2), R}
	for _, from := range layouts {
		for _, to := range layouts {
			got, _ := runDist(t, p, global, from, func(m *Mat) *Mat {
				return m.RedistributeSparse(to, live)
			})
			if tensor.MaxAbsDiff(got, global) != 0 {
				t.Fatalf("%v -> %v: sparse redistribution corrupted values", from, to)
			}
		}
	}
}

func TestRedistributeSparseVolume(t *testing.T) {
	const n, f, p = 64, 16, 4
	rng := rand.New(rand.NewSource(12))
	live := GenRows(5, n, n/4)
	global := sparseGlobal(rng, n, f, live)
	for _, pair := range [][2]Layout{{H, V}, {V, H}, {H, G(2)}, {G(2), V}} {
		from, to := pair[0], pair[1]
		_, fab := runDist(t, p, global, from, func(m *Mat) *Mat {
			return m.RedistributeSparse(to, live)
		})
		wantMeta, wantPay := sparsePairBytes(from, to, p, n, f, live)
		if got := fab.Meters().Volume[hw.OpAllToAll]; got != wantPay {
			t.Fatalf("%v->%v payload volume %d, closed form %d", from, to, got, wantPay)
		}
		if got := fab.Meters().SideVolume[hw.OpAllToAll]; got != wantMeta {
			t.Fatalf("%v->%v metadata volume %d, closed form %d", from, to, got, wantMeta)
		}
		// The point of the subsystem: fewer primary bytes than dense.
		_, dfab := runDist(t, p, global, from, func(m *Mat) *Mat {
			return m.Redistribute(to)
		})
		if dense := dfab.Meters().Volume[hw.OpAllToAll]; wantPay >= dense {
			t.Fatalf("%v->%v sparse payload %d not below dense %d", from, to, wantPay, dense)
		}
	}
}

func TestRedistributeSparseFullLiveMatchesDense(t *testing.T) {
	// With every row live the payload round degenerates to the dense
	// exchange: byte-identical primary volume, metadata riding aside.
	const n, f, p = 32, 8, 4
	rng := rand.New(rand.NewSource(13))
	live := GenRows(0, n, n)
	global := globalRand(rng, n, f)
	gotS, sfab := runDist(t, p, global, H, func(m *Mat) *Mat {
		return m.RedistributeSparse(V, live)
	})
	gotD, dfab := runDist(t, p, global, H, func(m *Mat) *Mat {
		return m.Redistribute(V)
	})
	if tensor.MaxAbsDiff(gotS, gotD) != 0 {
		t.Fatal("full-live sparse result differs from dense")
	}
	if sv, dv := sfab.Meters().Volume[hw.OpAllToAll], dfab.Meters().Volume[hw.OpAllToAll]; sv != dv {
		t.Fatalf("full-live sparse payload %d != dense %d", sv, dv)
	}
	if sfab.Meters().SideVolume[hw.OpAllToAll] == 0 {
		t.Fatal("metadata round metered nothing")
	}
}

func TestRedistributeSparseFallbacks(t *testing.T) {
	// Identity, Replicated endpoints, and P == 1 take the dense path —
	// same values, no metadata side traffic.
	const n, f = 16, 6
	rng := rand.New(rand.NewSource(14))
	live := GenRows(2, n, n/2)
	global := sparseGlobal(rng, n, f, live)
	for _, tc := range []struct {
		p        int
		from, to Layout
	}{
		{4, H, H}, {4, H, R}, {4, R, V}, {1, H, V},
	} {
		got, fab := runDist(t, tc.p, global, tc.from, func(m *Mat) *Mat {
			return m.RedistributeSparse(tc.to, live)
		})
		if tensor.MaxAbsDiff(got, global) != 0 {
			t.Fatalf("P=%d %v->%v: values corrupted", tc.p, tc.from, tc.to)
		}
		if fab.Meters().SideVolume[hw.OpAllToAll] != 0 {
			t.Fatalf("P=%d %v->%v: fallback ran the metadata round", tc.p, tc.from, tc.to)
		}
	}
}

// gatherOn runs fn per device over global distributed as H and returns
// root's result plus the fabric.
func gatherOn(t *testing.T, p int, global *tensor.Dense, fn func(m *Mat) *tensor.Dense) (*tensor.Dense, *comm.Fabric) {
	t.Helper()
	outs := make([]*tensor.Dense, p)
	f := comm.Run(p, hw.A6000(), func(d *comm.Device) {
		outs[d.Rank] = fn(Distribute(d, H, global))
	})
	return outs[0], f
}

// Satellite: GatherRows edge cases — the empty row set and duplicated
// (and unsorted) indices are well-defined, at P == 1 and across ranks.
func TestGatherRowsEmptyRowSet(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	global := globalRand(rng, 12, 5)
	for _, p := range []int{1, 4} {
		got, fab := gatherOn(t, p, global, func(m *Mat) *tensor.Dense {
			return m.GatherRows(0, nil)
		})
		if got == nil || got.Rows != 0 {
			t.Fatalf("P=%d: empty gather returned %v", p, got)
		}
		if fab.TotalVolume() != 0 {
			t.Fatalf("P=%d: empty gather moved bytes", p)
		}
	}
}

func TestGatherRowsDuplicatesAndUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	global := globalRand(rng, 12, 5)
	rows := []int32{7, 2, 7, 11, 2, 2, 0, 7}
	for _, p := range []int{1, 3, 4} {
		got, _ := gatherOn(t, p, global, func(m *Mat) *tensor.Dense {
			return m.GatherRows(0, rows)
		})
		if got.Rows != len(rows) {
			t.Fatalf("P=%d: %d rows, want %d", p, got.Rows, len(rows))
		}
		for i, r := range rows {
			for j := 0; j < 5; j++ {
				if got.Row(i)[j] != global.Row(int(r))[j] {
					t.Fatalf("P=%d: row %d (global %d) wrong at col %d", p, i, r, j)
				}
			}
		}
	}
}

func TestHaloExchange(t *testing.T) {
	// Every rank requests an arbitrary (duplicated, unsorted) row set —
	// including rows it owns — and gets them back in request order.
	const n, f, p = 24, 5, 4
	rng := rand.New(rand.NewSource(18))
	global := globalRand(rng, n, f)
	needFor := func(rank int) []int32 {
		return []int32{int32((7 * rank) % n), 3, 3, int32(n - 1 - rank), 0}
	}
	halos := make([]*tensor.Dense, p)
	fab := comm.Run(p, hw.A6000(), func(d *comm.Device) {
		halos[d.Rank] = HaloExchange(Distribute(d, H, global), needFor(d.Rank))
	})
	for r := 0; r < p; r++ {
		need := needFor(r)
		if halos[r].Rows != len(need) {
			t.Fatalf("rank %d: %d rows, want %d", r, halos[r].Rows, len(need))
		}
		for i, row := range need {
			for j := 0; j < f; j++ {
				if halos[r].Row(i)[j] != global.Row(int(row))[j] {
					t.Fatalf("rank %d: need %d (global %d) wrong at col %d", r, i, row, j)
				}
			}
		}
	}
	if fab.Meters().SideVolume[hw.OpAllGather] == 0 {
		t.Fatal("halo advert round metered nothing")
	}
	if fab.Meters().Volume[hw.OpAllToAll] == 0 {
		t.Fatal("halo payload round metered nothing")
	}
}
