package plan

import (
	"strings"
	"testing"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

func sparseSpec2(n, cfg, p, ra, live int) Spec {
	sp := spec2(n, cfg, p, ra, true)
	sp.Live, sp.SparseSeed = live, 3
	return sp
}

func countKind(s *Schedule, k Kind, sparse bool) int {
	n := 0
	for i := range s.Sections {
		for _, op := range s.Sections[i].Ops {
			if op.Kind == k && (!sparse || op.Sparse) {
				n++
			}
		}
	}
	return n
}

// TestSparseHeaderRoundTrip pins the serialized sparse header: Live and
// SparseSeed survive String → Parse → String as a fixed point, dense
// schedules emit no sparse tokens, and old dense dumps keep parsing.
func TestSparseHeaderRoundTrip(t *testing.T) {
	for _, sp := range []Spec{
		sparseSpec2(64, 2, 4, 4, 16),
		sparseSpec2(64, 15, 8, 8, 7),
		sparseSpec2(7, 3, 2, 2, 2),
	} {
		s := Compile(sp).Optimize()
		if s.Live != sp.Live || s.SparseSeed != sp.SparseSeed {
			t.Fatalf("compile dropped sparse identity: live=%d sseed=%d", s.Live, s.SparseSeed)
		}
		d1 := s.String()
		if !strings.Contains(d1, " live=") {
			t.Fatalf("sparse schedule header missing live token:\n%s", d1)
		}
		parsed, err := Parse(d1)
		if err != nil {
			t.Fatalf("parse sparse dump: %v\n%s", err, d1)
		}
		if parsed.Live != sp.Live || parsed.SparseSeed != sp.SparseSeed {
			t.Fatalf("parse lost sparse identity: live=%d sseed=%d", parsed.Live, parsed.SparseSeed)
		}
		if d2 := parsed.String(); d2 != d1 {
			t.Fatalf("sparse dump not a fixed point:\n%s\n---\n%s", d1, d2)
		}
	}
	if d := Compile(spec2(64, 0, 4, 4, true)).String(); strings.Contains(d, "live=") {
		t.Fatalf("dense schedule leaked a sparse header:\n%s", d)
	}
}

// TestSparsePropagation pins where redist.sp ops come from: only
// conversions of values inheriting X's row support are sparse. An
// all-SpMM-first forward never redistributes a sparse value (X is free
// in both layouts and aggregation densifies), while a DenseFirst first
// layer redistributes the row-sparse XW product.
func TestSparsePropagation(t *testing.T) {
	if n := countKind(Compile(sparseSpec2(64, 0, 4, 4, 16)).Optimize(), KRedist, true); n != 0 {
		t.Fatalf("all-SpMM-first schedule has %d sparse redists, want 0", n)
	}
	// cfg bit 2 = forward layer 1 DenseFirst.
	s := Compile(sparseSpec2(64, 2, 4, 4, 16)).Optimize()
	if n := countKind(s, KRedist, true); n == 0 {
		t.Fatalf("DenseFirst-layer-1 schedule has no sparse redists:\n%s", s)
	}
	// A dense spec must never produce sparse ops.
	if n := countKind(Compile(spec2(64, 2, 4, 4, true)).Optimize(), KRedist, true); n != 0 {
		t.Fatalf("dense schedule has %d sparse redists", n)
	}
	// Live >= N normalizes to dense: bit-identical schedule text.
	full := sparseSpec2(64, 2, 4, 4, 64)
	if d, f := Compile(spec2(64, 2, 4, 4, true)).Optimize().String(), Compile(full).Optimize().String(); d != f {
		t.Fatalf("Live=N schedule differs from dense:\n%s\n---\n%s", d, f)
	}
}

// TestSparsePriceMatchesClosedForm reconciles the planner's sparse
// redistribution prices (flat) against costmodel.SparseExchangeBytes,
// and checks the payload volume shrinks strictly with the live count.
func TestSparsePriceMatchesClosedForm(t *testing.T) {
	h := hw.A6000()
	var prevPay int64 = -1
	for _, live := range []int{32, 16, 4} {
		s := Compile(sparseSpec2(64, 2, 4, 4, live)).Optimize()
		c := s.PriceOn(100, h, nil)
		lset := s.LiveSet()
		idx, pay := 0, int64(0)
		for i := range s.Sections {
			for j := range s.Sections[i].Ops {
				op := &s.Sections[i].Ops[j]
				oc := c.PerOp[idx]
				idx++
				if op.Kind != KRedist || !op.Sparse || !s.SparseEligible(op.From, op.To) {
					continue
				}
				m, p := costmodel.SparseExchangeBytes(s.P, op.Rows, op.Cols, op.From, op.To, lset)
				if oc.Side != m || oc.AllToAll != p {
					t.Fatalf("live=%d step %d: priced meta=%d pay=%d, closed form meta=%d pay=%d",
						live, op.Step, oc.Side, oc.AllToAll, m, p)
				}
				pay += p
			}
		}
		if pay <= 0 {
			t.Fatalf("live=%d: no sparse payload priced", live)
		}
		if prevPay >= 0 && pay >= prevPay {
			t.Fatalf("payload not strictly decreasing: live=%d pays %d, previous %d", live, pay, prevPay)
		}
		prevPay = pay
	}
}

// TestABCRewrite pins the aggregate-before-communicate pass: on a
// DenseFirst layer whose [redist.sp; spmm; redist-back] chain has
// single-use intermediates it fuses a KSpMMABC op, the result
// validates, round-trips through String/Parse, builds a DAG, and at
// low density prices strictly less exchanged payload than the original
// chain. Schedules outside the pass's domain come back unchanged.
func TestABCRewrite(t *testing.T) {
	h := hw.A6000()
	const n, nnz = 64, 4 * 64
	// L=1, forward DenseFirst (cfg bit 0 for L=1), RA=P, 4 live rows.
	sp := Spec{
		N: n, Dims: []int{16, 8},
		Config: costmodel.ConfigFromID(1, 1),
		P:      4, RA: 4, Memoize: true, InputGrad: true,
		Live: 4, SparseSeed: 3,
	}
	s := Compile(sp).Optimize()
	if countKind(s, KRedist, true) == 0 {
		t.Fatalf("precondition: no sparse redist to fuse:\n%s", s)
	}
	abc := s.ABC()
	if got := countKind(abc, KSpMMABC, false); got != 1 {
		t.Fatalf("ABC() fused %d ops, want 1:\n%s", got, abc)
	}
	if err := abc.Validate(); err != nil {
		t.Fatalf("ABC schedule invalid: %v", err)
	}
	d1 := abc.String()
	parsed, err := Parse(d1)
	if err != nil {
		t.Fatalf("parse ABC dump: %v\n%s", err, d1)
	}
	if d2 := parsed.String(); d2 != d1 {
		t.Fatalf("ABC dump not a fixed point:\n%s\n---\n%s", d1, d2)
	}
	MustBuildDAG(abc)

	before := s.PriceOn(nnz, h, nil)
	after := abc.PriceOn(nnz, h, nil)
	if after.AllToAll >= before.AllToAll {
		t.Fatalf("ABC did not reduce exchanged payload: %d >= %d", after.AllToAll, before.AllToAll)
	}

	// Out-of-domain inputs: dense schedule and partial replication come
	// back without ABC ops.
	if got := countKind(Compile(spec2(64, 2, 4, 4, true)).Optimize().ABC(), KSpMMABC, false); got != 0 {
		t.Fatalf("ABC() rewrote a dense schedule (%d ops)", got)
	}
	if got := countKind(Compile(sparseSpec2(64, 2, 4, 2, 16)).Optimize().ABC(), KSpMMABC, false); got != 0 {
		t.Fatalf("ABC() rewrote an RA<P schedule (%d ops)", got)
	}
}

// TestABCPriceConsistency pins PriceOn's ABC bytes (the replay arm's
// O(P) class census) to the P×P table's quadratic census: its analytic
// exchange totals equal the sums over ApproxABCPairs, and the DAG
// pricer accepts the same schedule on both interconnects.
func TestABCPriceConsistency(t *testing.T) {
	h := hw.A6000()
	const n, nnz = 64, 4 * 64
	sp := Spec{
		N: n, Dims: []int{16, 8},
		Config: costmodel.ConfigFromID(1, 1),
		P:      4, RA: 4, Memoize: true, InputGrad: true,
		Live: 8, SparseSeed: 3,
	}
	abc := Compile(sp).Optimize().ABC()
	if countKind(abc, KSpMMABC, false) == 0 {
		t.Fatalf("no ABC op to price:\n%s", abc)
	}
	pairs, _ := abc.ApproxABCPairs(nnz)
	var wantMeta, wantPay int64
	for i := range abc.Sections {
		for _, op := range abc.Sections[i].Ops {
			if op.Kind != KSpMMABC {
				continue
			}
			meta, pay := abcFns(pairs, op.Cols)
			wantMeta += quadraticCensus(abc.P, meta).Total
			wantPay += quadraticCensus(abc.P, pay).Total
		}
	}
	c := abc.PriceOn(nnz, h, nil)
	var gotMeta, gotPay int64
	for _, oc := range c.PerOp {
		if oc.Kind == KSpMMABC {
			gotMeta += oc.Side
			gotPay += oc.AllToAll
		}
	}
	if gotMeta != wantMeta || gotPay != wantPay {
		t.Fatalf("PriceOn ABC bytes meta=%d pay=%d, census totals meta=%d pay=%d",
			gotMeta, gotPay, wantMeta, wantPay)
	}
	ts, err := topo.ParseSpec("2x2:nvlink,ib")
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []*topo.Topology{nil, ts.MustTopology(4)} {
		cost := MustBuildDAG(abc).PriceDAGEpochs(abc.ApproxCensus(nnz), h, tp, 2)
		if cost.Makespan <= 0 || cost.SeqTime < cost.Makespan {
			t.Fatalf("degenerate ABC DAG cost: %+v", cost)
		}
	}
}

// TestReplayABCHandComputed pins the replay engine's KSpMMABC arm —
// the one op kind that never runs on the live fabric, so no
// fabric-vs-engine differential covers it — against its charge sequence
// written out by hand: on a P=2 flat world, one partial-aggregation
// SpMM, then the two-round exchange (metadata divide memcpy, all-to-all,
// metadata merge, payload divide, all-to-all, payload merge).
func TestReplayABCHandComputed(t *testing.T) {
	h := hw.A6000()
	const n, f = 8, 4
	s := &Schedule{
		P: 2, RA: 2, N: n, Dims: []int{f, f}, Config: costmodel.ConfigFromID(0, 1),
		Live: 4, GridL: dist.G(2).Normalize(2), NumRegs: 2, NumWeights: 1,
		Sections: []Section{{Phase: "fwd", Layer: 1, Ops: []Op{
			{Kind: KInput, Step: 1, Dst: 0, A: None, B: None, Layout: dist.H, Rows: n, Cols: f},
			{Kind: KSpMMABC, Step: 2, Dst: 1, A: 0, B: None, Forward: true, Layout: dist.H, Rows: n, Cols: f},
		}}},
	}
	// Rank 0 ships 3 touched result rows to rank 1 and aggregates 10
	// stored entries; rank 1 ships 5 rows back and aggregates 20.
	cen := Census{
		NNZFwd: []int64{0, 0}, NNZBwd: []int64{0, 0},
		ABCPairs: [][]int64{{0, 3}, {5, 0}},
		NNZABC:   []int64{10, 20},
	}
	// Metadata parts are a 2-word header plus one id per row; payload
	// parts are the rows' f float32 columns.
	const (
		meta01, meta10 = 4 * (2 + 3), 4 * (2 + 5)
		pay01, pay10   = 4 * 3 * f, 4 * 5 * f
	)
	c0 := h.SpMMTime(10, f)
	c1 := h.SpMMTime(20, f)
	c0 += h.MemTime(meta01) // metadata divide
	c1 += h.MemTime(meta10)
	m := max(c0, c1) + h.CollectiveTime(hw.OpAllToAll, 2, meta10) // busiest injector
	c0, c1 = m, m
	c0 += h.MemTime(meta10) // metadata merge: what the peer sent
	c1 += h.MemTime(meta01)
	c0 += h.MemTime(pay01) // payload divide
	c1 += h.MemTime(pay10)
	m = max(c0, c1) + h.CollectiveTime(hw.OpAllToAll, 2, pay10)
	c0, c1 = m, m
	c0 += h.MemTime(pay10) // payload merge
	c1 += h.MemTime(pay01)
	want := []float64{c0, c1}

	d := MustBuildDAG(s)
	for _, overlap := range []bool{false, true} {
		res := d.Replay(cen, h, nil, 1, overlap, 0, nil, nil, "")
		for r, w := range want {
			if res.Clocks[r] != w {
				t.Fatalf("overlap=%v rank %d: clock %.17g, hand-computed %.17g", overlap, r, res.Clocks[r], w)
			}
		}
		if g, w := res.Meters.SideVolume[hw.OpAllToAll], int64(meta01+meta10); g != w {
			t.Fatalf("overlap=%v: side volume %d, want %d", overlap, g, w)
		}
		if g, w := res.Meters.Volume[hw.OpAllToAll], int64(pay01+pay10); g != w {
			t.Fatalf("overlap=%v: primary volume %d, want %d", overlap, g, w)
		}
		if g := res.Meters.Calls[hw.OpAllToAll]; g != 2 {
			t.Fatalf("overlap=%v: %d all-to-all rounds, want 2", overlap, g)
		}
	}
	// PriceDAG* is a view of the same run.
	cost := d.PriceDAGOn(cen, h, nil)
	for r, w := range want {
		if cost.PerDevice[r] != w || cost.PerDeviceSeq[r] != w {
			t.Fatalf("rank %d: priced (%.17g, %.17g), hand-computed %.17g", r, cost.PerDevice[r], cost.PerDeviceSeq[r], w)
		}
	}
}

// TestSparseExchangeCensusMatchesDist pins the planner's pair census
// against dist's wire format arithmetic: per-pair metadata is the
// 2-word header plus one word per live row in the pair's dense row
// window, payload those rows' column slices — summed over active pairs
// only, self excluded.
func TestSparseExchangeCensusMatchesDist(t *testing.T) {
	const p, rows, cols = 4, 64, 12
	live := dist.GenRows(3, rows, 10)
	s := &Schedule{P: p, N: rows, Live: 10, SparseSeed: 3}
	pc := NewPriceCache()
	pc.Bind(p, hw.A6000(), nil)
	x := pc.SparseExchange(s, dist.H, dist.V, rows, cols)
	var meta, pay int64
	for r := 0; r < p; r++ {
		rlo, rhi := dist.RowRange(dist.H, p, r, rows)
		for q := 0; q < p; q++ {
			if q == r {
				continue
			}
			clo, chi := dist.ColRange(dist.V, p, q, cols)
			cnt := int64(dist.CountInRange(live, rlo, rhi))
			meta += 4 * (2 + cnt)
			pay += 4 * cnt * int64(chi-clo)
		}
	}
	if x.Meta.Total != meta || x.Pay.Total != pay {
		t.Fatalf("census meta=%d pay=%d, hand sum meta=%d pay=%d", x.Meta.Total, x.Pay.Total, meta, pay)
	}
	cm, cp := costmodel.SparseExchangeBytes(p, rows, cols, dist.H, dist.V, live)
	if cm != meta || cp != pay {
		t.Fatalf("costmodel meta=%d pay=%d, hand sum meta=%d pay=%d", cm, cp, meta, pay)
	}
}
