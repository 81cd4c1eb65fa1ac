package plan

import (
	"fmt"
	"runtime"
	"testing"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// The quadratic forms the O(P + pairs) pricing replaced, retained as
// the differential oracle: a census that calls dist.TileOverlap (or a
// per-pair byte function) for every ordered rank pair, and the P×P
// KSpMMABC structural table.

// quadraticCensus sums a per-pair byte function over all ordered cross
// pairs into Div/Mer/MaxInj/MaxEj/Total (no price).
func quadraticCensus(p int, bytes func(r, q int) int64) ExchangeCensus {
	x := ExchangeCensus{Div: make([]int64, p), Mer: make([]int64, p)}
	for r := 0; r < p; r++ {
		for q := 0; q < p; q++ {
			if b := bytes(r, q); q != r && b > 0 {
				x.Div[r] += b
				x.Mer[q] += b
			}
		}
	}
	for r := 0; r < p; r++ {
		x.MaxInj = max(x.MaxInj, x.Div[r])
		x.MaxEj = max(x.MaxEj, x.Mer[r])
		x.Total += x.Div[r]
	}
	return x
}

// regridBytes is the per-pair byte function of a from→to regrid:
// dist.TileOverlap's element count, byte-packed four to a float32 for
// masks.
func regridBytes(p int, from, to dist.Layout, rows, cols int, packed bool) func(r, q int) int64 {
	return func(r, q int) int64 {
		n := dist.TileOverlap(from, r, to, q, p, rows, cols)
		if packed {
			n = (n + 3) / 4
		}
		return 4 * int64(n)
	}
}

// ApproxABCPairs is the eager P×P form of approxABC: Pairs[r][q] result
// rows shipped r→q, one math.Pow per pair.
func (s *Schedule) ApproxABCPairs(nnz int64) (pairs [][]int64, nnzABC []int64) {
	p := s.P
	live := s.LiveSet()
	edgeP := float64(nnz) / (float64(s.N) * float64(s.N))
	pairs = make([][]int64, p)
	nnzABC = make([]int64, p)
	for r := 0; r < p; r++ {
		rlo, rhi := dist.RowRange(dist.H, p, r, s.N)
		liveR := liveCountIn(live, rlo, rhi)
		nnzABC[r] = nnz * int64(liveR) / int64(s.N)
		pairs[r] = make([]int64, p)
		for q := 0; q < p; q++ {
			qlo, qhi := dist.RowRange(dist.H, p, q, s.N)
			pairs[r][q] = abcPairRows(qhi-qlo, liveR, edgeP)
		}
	}
	return pairs, nnzABC
}

// abcFns returns the per-pair metadata and payload byte functions of a
// KSpMMABC exchange from its P×P table.
func abcFns(pairs [][]int64, width int) (meta, pay func(r, q int) int64) {
	meta = func(r, q int) int64 {
		if c := pairs[r][q]; c > 0 {
			return 4 * (2 + c)
		}
		return 0
	}
	pay = func(r, q int) int64 { return 4 * pairs[r][q] * int64(width) }
	return meta, pay
}

func sameCensus(t *testing.T, what string, got, want *ExchangeCensus) {
	t.Helper()
	if got.MaxInj != want.MaxInj || got.MaxEj != want.MaxEj || got.Total != want.Total {
		t.Fatalf("%s: MaxInj/MaxEj/Total %d/%d/%d, quadratic %d/%d/%d", what,
			got.MaxInj, got.MaxEj, got.Total, want.MaxInj, want.MaxEj, want.Total)
	}
	for r := range want.Div {
		if got.Div[r] != want.Div[r] || got.Mer[r] != want.Mer[r] {
			t.Fatalf("%s rank %d: Div/Mer %d/%d, quadratic %d/%d", what, r, got.Div[r], got.Mer[r], want.Div[r], want.Mer[r])
		}
	}
}

// samePrice checks a round's cached price against the closed form
// (flat) or the topology's dense-closure entry point over the oracle's
// per-pair function (routed).
func samePrice(t *testing.T, what string, h *hw.Model, tp *topo.Topology, x, want *ExchangeCensus, bytes func(r, q int) int64) {
	t.Helper()
	p := len(want.Div)
	wantCost := topo.Cost{Time: h.CollectiveTime(hw.OpAllToAll, p, want.MaxInj)}
	wantCost.Tier[topo.TierIntra] = want.Total
	if tp != nil {
		world := make([]int, p)
		for i := range world {
			world[i] = i
		}
		_, wantCost = tp.AllToAll(h, topo.Auto, world, bytes)
	}
	if x.A2A != wantCost {
		t.Fatalf("%s: all-to-all price %+v, want %+v", what, x.A2A, wantCost)
	}
}

// oracleLayouts is {H, V, R, G(pj) for every proper divisor pj of p}.
func oracleLayouts(p int) []dist.Layout {
	ls := []dist.Layout{dist.H, dist.V, dist.R}
	for pj := 2; pj < p; pj++ {
		if p%pj == 0 {
			ls = append(ls, dist.G(pj))
		}
	}
	return ls
}

// oracleTopo is a two-tier machine for p ranks with a ragged last node
// whenever 4 does not divide p (nil for p < 2).
func oracleTopo(t *testing.T, p int) *topo.Topology {
	if p < 2 {
		return nil
	}
	sp, err := topo.ParseSpec(fmt.Sprintf("%dx4:nvlink,ib", (p+3)/4))
	if err != nil {
		t.Fatal(err)
	}
	return sp.MustTopology(p)
}

// TestExchangeMatchesQuadratic pins the overlap enumerator against the
// retained P×P loop: every ordered layout pair × P ∈ [1, 64] (primes
// included) × shapes with rows, cols not divisible by P and cols < P ×
// packed, flat and routed — Div/Mer/MaxInj/MaxEj/Total and the
// all-to-all price bit-equal.
func TestExchangeMatchesQuadratic(t *testing.T) {
	h := hw.A6000()
	shapes := [][2]int{{131, 37}, {67, 5}}
	for p := 1; p <= 64; p++ {
		if testing.Short() && p > 12 && p != 17 && p != 64 {
			continue
		}
		for _, tp := range []*topo.Topology{nil, oracleTopo(t, p)} {
			pc := NewPriceCache()
			pc.Bind(p, h, tp)
			for _, from := range oracleLayouts(p) {
				for _, to := range oracleLayouts(p) {
					for _, sh := range shapes {
						for _, packed := range []bool{false, true} {
							what := fmt.Sprintf("P=%d %v->%v %dx%d packed=%v topo=%v", p, from, to, sh[0], sh[1], packed, tp != nil)
							bytes := regridBytes(p, from, to, sh[0], sh[1], packed)
							want := quadraticCensus(p, bytes)
							x := pc.Exchange(from, to, sh[0], sh[1], packed)
							sameCensus(t, what, x, &want)
							samePrice(t, what, h, tp, x, &want, bytes)
						}
					}
				}
			}
		}
	}
}

// TestSparseExchangeMatchesQuadratic does the same for the two-round
// sparse census: per-pair metadata and payload bytes written out from
// dist's pair geometry and summed over all P² pairs.
func TestSparseExchangeMatchesQuadratic(t *testing.T) {
	h := hw.A6000()
	const rows, cols = 131, 7
	for _, p := range []int{2, 3, 8, 12, 17} {
		s := &Schedule{P: p, N: rows, Live: 23, SparseSeed: 5}
		live := s.LiveSet()
		for _, tp := range []*topo.Topology{nil, oracleTopo(t, p)} {
			pc := NewPriceCache()
			pc.Bind(p, h, tp)
			for _, from := range oracleLayouts(p) {
				for _, to := range oracleLayouts(p) {
					if !s.SparseEligible(from, to) {
						continue
					}
					// An inactive pair (empty dense tile intersection) sends
					// nothing, not even a header.
					geom := func(r, q int) (cnt, width int64, active bool) {
						arlo, arhi := dist.RowRange(from, p, r, rows)
						aclo, achi := dist.ColRange(from, p, r, cols)
						brlo, brhi := dist.RowRange(to, p, q, rows)
						bclo, bchi := dist.ColRange(to, p, q, cols)
						rlo, rhi := max(arlo, brlo), min(arhi, brhi)
						clo, chi := max(aclo, bclo), min(achi, bchi)
						if rlo >= rhi || clo >= chi {
							return 0, 0, false
						}
						return int64(dist.CountInRange(live, rlo, rhi)), int64(chi - clo), true
					}
					meta := func(r, q int) int64 {
						if c, _, ok := geom(r, q); ok {
							return 4 * (2 + c)
						}
						return 0
					}
					pay := func(r, q int) int64 { c, w, _ := geom(r, q); return 4 * c * w }
					x := pc.SparseExchange(s, from, to, rows, cols)
					for _, rd := range []struct {
						name  string
						got   *ExchangeCensus
						bytes func(r, q int) int64
					}{{"meta", &x.Meta, meta}, {"pay", &x.Pay, pay}} {
						what := fmt.Sprintf("P=%d %v->%v %s topo=%v", p, from, to, rd.name, tp != nil)
						want := quadraticCensus(p, rd.bytes)
						sameCensus(t, what, rd.got, &want)
						samePrice(t, what, h, tp, rd.got, &want, rd.bytes)
					}
				}
			}
		}
	}
}

// TestABCClassFormMatchesPairs pins the O(P) class form against the
// P×P table element-wise, and its O(P) fold (and routed price) against
// the quadratic census of that table, dense and 10 % live, at N not
// divisible by P.
func TestABCClassFormMatchesPairs(t *testing.T) {
	h := hw.A6000()
	const n, width = 203, 12
	const nnz = 9 * n
	for _, p := range []int{2, 3, 8, 17} {
		for _, liveCount := range []int{0, n / 10} {
			s := &Schedule{P: p, RA: p, N: n, Live: liveCount, SparseSeed: 7}
			pairs, nnzABC := s.ApproxABCPairs(nnz)
			a := s.approxABC(nnz, s.LiveSet())
			for r := 0; r < p; r++ {
				if a.nnz[r] != nnzABC[r] {
					t.Fatalf("P=%d live=%d rank %d: nnz %d, table %d", p, liveCount, r, a.nnz[r], nnzABC[r])
				}
				for q := 0; q < p; q++ {
					if got := a.at(r, q); got != pairs[r][q] {
						t.Fatalf("P=%d live=%d pair (%d,%d): class form %d, table %d", p, liveCount, r, q, got, pairs[r][q])
					}
				}
			}
			meta, pay := abcFns(pairs, width)
			for _, tp := range []*topo.Topology{nil, oracleTopo(t, p)} {
				pc := NewPriceCache()
				pc.Bind(p, h, tp)
				x := a.exchange(pc, width)
				for _, rd := range []struct {
					name  string
					got   *ExchangeCensus
					bytes func(r, q int) int64
				}{{"meta", &x.Meta, meta}, {"pay", &x.Pay, pay}} {
					what := fmt.Sprintf("P=%d live=%d %s topo=%v", p, liveCount, rd.name, tp != nil)
					want := quadraticCensus(p, rd.bytes)
					sameCensus(t, what, rd.got, &want)
					samePrice(t, what, h, tp, rd.got, &want, rd.bytes)
				}
			}
		}
	}
}

// TestABCLazyCensusMatchesEager pins the replay arm's on-demand census
// to the exact stored-entry count: at N not divisible by P, an
// ApproxCensus (which carries only Census.NNZ) replays to the same
// clocks and meters as the explicit table ApproxABCPairs builds from
// that count, and meters the bytes PriceOn prices. (The arm used to
// re-derive the count from Σ NNZFwd, which at R_A = P is P·nnz.)
func TestABCLazyCensusMatchesEager(t *testing.T) {
	h := hw.A6000()
	const n, nnz, epochs = 67, 5 * 67, 2
	sp := Spec{
		N: n, Dims: []int{16, 8}, Config: costmodel.ConfigFromID(1, 1),
		P: 4, RA: 4, Memoize: true, InputGrad: true, Live: 9, SparseSeed: 3,
	}
	abc := Compile(sp).Optimize().ABC()
	if countKind(abc, KSpMMABC, false) == 0 {
		t.Fatalf("no ABC op:\n%s", abc)
	}
	d := MustBuildDAG(abc)
	lazy := abc.ApproxCensus(nnz)
	if lazy.NNZ != nnz || lazy.ABCPairs != nil {
		t.Fatalf("ApproxCensus: NNZ=%d ABCPairs=%v, want the exact count and no table", lazy.NNZ, lazy.ABCPairs)
	}
	eager := lazy
	eager.ABCPairs, eager.NNZABC = abc.ApproxABCPairs(nnz)
	for _, tp := range []*topo.Topology{nil, oracleTopo(t, sp.P)} {
		price := abc.PriceOn(nnz, h, tp)
		for _, overlap := range []bool{false, true} {
			got := d.Replay(lazy, h, tp, epochs, overlap, 0, nil, nil, "")
			want := d.Replay(eager, h, tp, epochs, overlap, 0, nil, nil, "")
			for r := range want.Clocks {
				if got.Clocks[r] != want.Clocks[r] {
					t.Fatalf("topo=%v overlap=%v rank %d: lazy clock %.17g, eager %.17g", tp != nil, overlap, r, got.Clocks[r], want.Clocks[r])
				}
			}
			if got.Meters != want.Meters {
				t.Fatalf("topo=%v overlap=%v: lazy meters %+v, eager %+v", tp != nil, overlap, got.Meters, want.Meters)
			}
			if side, w := got.Meters.TotalSideVolume(), epochs*price.Side; side != w {
				t.Fatalf("topo=%v overlap=%v: replayed side volume %d, PriceOn %d", tp != nil, overlap, side, w)
			}
			if a2a, w := got.Meters.Volume[hw.OpAllToAll], epochs*price.AllToAll; a2a != w {
				t.Fatalf("topo=%v overlap=%v: replayed all-to-all volume %d, PriceOn %d", tp != nil, overlap, a2a, w)
			}
		}
	}
}

// TestPricingIsSubQuadratic is the complexity guard: a cold 16-ordering
// flat sweep (compile, optimize, DAG, census, both executors priced on
// a fresh cache) may allocate at most 2.5× the bytes and objects at
// P=2048 that it does at P=1024. Per-rank state doubles; any P×P table
// quadruples and fails this without a timer.
func TestPricingIsSubQuadratic(t *testing.T) {
	if testing.Short() {
		t.Skip("P=2048 sweep skipped in -short")
	}
	h := hw.A6000()
	dims := []int{64, 128, 32}
	const n = 1 << 18
	sweep := func(p int) (bytes, mallocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pc := NewPriceCache()
		for cfg := 0; cfg < 16; cfg++ {
			s := Compile(Spec{N: n, Dims: dims, Config: costmodel.ConfigFromID(cfg, 2), P: p, RA: p, Memoize: true}).Optimize()
			MustBuildDAG(s).PriceDAGEpochsCached(s.ApproxCensus(8*n), h, nil, 2, pc)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	b1, m1 := sweep(1024)
	b2, m2 := sweep(2048)
	t.Logf("P=1024: %d B, %d mallocs; P=2048: %d B, %d mallocs", b1, m1, b2, m2)
	if float64(b2) > 2.5*float64(b1) || float64(m2) > 2.5*float64(m1) {
		t.Fatalf("P=2048 sweep allocates %d B / %d objects, over 2.5× P=1024's %d B / %d", b2, m2, b1, m1)
	}
}
