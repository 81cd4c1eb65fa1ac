package plan

// This file is the planner side of the sparsity-aware exchange
// subsystem (DESIGN.md §4g): exact pricing of the two-round sparse
// redistribution protocol (dist.RedistributeSparse — a metadata round
// on the side channel, then a variable-volume payload round), and the
// aggregate-before-communicate rewrite (Schedule.ABC) that replaces a
// [sparse redistribute; aggregate; redistribute back] chain with a
// fused KSpMMABC exchanging only the structurally-touched result rows.
//
// The census formulas reproduce the dist layer's charge sequence
// pair-for-pair: an active pair is a nonzero dense tile intersection,
// its metadata part is the 2-word header plus one word per live row in
// the pair's row window, and its payload is those rows' column slices.
// The live set itself is dist.GenRows(SparseSeed, N, Live) — the same
// generator the feature synthesizer and the executor's value scan
// resolve to — so the pricer's assumed rows and the fabric's shipped
// rows coincide by construction (verify.CheckSparseMatchesModel).

import (
	"math"

	"gnnrdm/internal/dist"
	"gnnrdm/internal/topo"
)

// LiveSet returns the schedule's sorted live row set, nil for a dense
// schedule.
func (s *Schedule) LiveSet() []int32 {
	if s.Live <= 0 || s.Live >= s.N {
		return nil
	}
	return dist.GenRows(s.SparseSeed, s.N, s.Live)
}

// SparseEligible reports whether a from→to conversion runs the
// two-round sparse exchange — mirroring dist.RedistributeSparse's
// fallbacks exactly: identity conversions, Replicated endpoints, and
// single-device worlds fall through to the dense path and must be
// priced as such.
func (s *Schedule) SparseEligible(from, to dist.Layout) bool {
	from, to = from.Normalize(s.P), to.Normalize(s.P)
	return s.P > 1 && from != to &&
		from.Kind != dist.Replicated && to.Kind != dist.Replicated
}

// SparseExchangeCensus is the per-rank byte census of one two-round
// sparse exchange: what each rank packs (Div) and unpacks (Mer) per
// round, self pairs excluded, plus the busiest injector/ejector and
// summed cross-pair totals per round. Metadata bytes ride the side
// channel; payload bytes are the primary metered volume. Callers must
// treat the slices as read-only — cache hits share them.
type SparseExchangeCensus struct {
	MetaDiv, MetaMer, PayDiv, PayMer []int64
	MetaMaxInj, MetaMaxEj, MetaTotal int64
	PayMaxInj, PayMaxEj, PayTotal    int64
}

// buildSparseCensus sums per-pair metadata and payload byte functions
// into the per-rank census. The pair functions follow the fabric's
// convention (defined for all pairs, self pairs never summed).
func buildSparseCensus(p int, metaBytes, payBytes func(r, q int) int64) *SparseExchangeCensus {
	x := &SparseExchangeCensus{
		MetaDiv: make([]int64, p), MetaMer: make([]int64, p),
		PayDiv: make([]int64, p), PayMer: make([]int64, p),
	}
	for r := 0; r < p; r++ {
		for q := 0; q < p; q++ {
			if q == r {
				continue
			}
			if b := metaBytes(r, q); b > 0 {
				x.MetaDiv[r] += b
				x.MetaMer[q] += b
			}
			if b := payBytes(r, q); b > 0 {
				x.PayDiv[r] += b
				x.PayMer[q] += b
			}
		}
	}
	for r := 0; r < p; r++ {
		x.MetaMaxInj = max(x.MetaMaxInj, x.MetaDiv[r])
		x.MetaMaxEj = max(x.MetaMaxEj, x.MetaMer[r])
		x.MetaTotal += x.MetaDiv[r]
		x.PayMaxInj = max(x.PayMaxInj, x.PayDiv[r])
		x.PayMaxEj = max(x.PayMaxEj, x.PayMer[r])
		x.PayTotal += x.PayDiv[r]
	}
	return x
}

// sparsePairGeom computes the dense tile intersection of sender r
// (from) and receiver q (to) — dist.sparseRegrid's pair geometry. ok
// is the active-pair predicate: inactive pairs exchange nothing, not
// even a header.
func sparsePairGeom(p int, from, to dist.Layout, rows, cols, r, q int) (rlo, rhi, clo, chi int, ok bool) {
	arlo, arhi := dist.RowRange(from, p, r, rows)
	aclo, achi := dist.ColRange(from, p, r, cols)
	brlo, brhi := dist.RowRange(to, p, q, rows)
	bclo, bchi := dist.ColRange(to, p, q, cols)
	rlo, rhi = max(arlo, brlo), min(arhi, brhi)
	clo, chi = max(aclo, bclo), min(achi, bchi)
	return rlo, rhi, clo, chi, rlo < rhi && clo < chi
}

// sparseRedistFns returns the per-pair metadata and payload byte
// functions of one sparse from→to redistribution: an active pair's
// metadata is EncodeRowSet's 2-word header plus its live-row ids, and
// its payload is those rows' column slices. Layouts must be
// normalized.
func sparseRedistFns(p int, from, to dist.Layout, rows, cols int, live []int32) (meta, pay func(r, q int) int64) {
	meta = func(r, q int) int64 {
		rlo, rhi, _, _, ok := sparsePairGeom(p, from, to, rows, cols, r, q)
		if !ok {
			return 0
		}
		return 4 * int64(2+dist.CountInRange(live, rlo, rhi))
	}
	pay = func(r, q int) int64 {
		rlo, rhi, clo, chi, ok := sparsePairGeom(p, from, to, rows, cols, r, q)
		if !ok {
			return 0
		}
		return 4 * int64(dist.CountInRange(live, rlo, rhi)) * int64(chi-clo)
	}
	return meta, pay
}

// sparseExchange computes (uncached) the two-round census of one
// sparse redistribution under the schedule's live set.
func (s *Schedule) sparseExchange(from, to dist.Layout, rows, cols int, live []int32) *SparseExchangeCensus {
	from, to = from.Normalize(s.P), to.Normalize(s.P)
	meta, pay := sparseRedistFns(s.P, from, to, rows, cols, live)
	return buildSparseCensus(s.P, meta, pay)
}

// sparsePairFn returns one round's per-pair byte function in the shape
// the topology costers consume.
func (s *Schedule) sparsePairFn(from, to dist.Layout, rows, cols int, live []int32, metaRound bool) func(i, j int) int64 {
	from, to = from.Normalize(s.P), to.Normalize(s.P)
	meta, pay := sparseRedistFns(s.P, from, to, rows, cols, live)
	if metaRound {
		return meta
	}
	return pay
}

// --- PriceCache memoization -------------------------------------------

// sparseExchKey identifies one sparse exchange census: the conversion
// and shape plus the live-set identity (N, Live, SparseSeed) — caches
// outlive a single schedule, and sweeps may mix live sets.
type sparseExchKey struct {
	from, to   dist.Layout
	rows, cols int
	n, live    int
	seed       int64
}

type sparseA2AKey struct {
	sparseExchKey
	metaRound bool
}

type liveSetKey struct {
	n, live int
	seed    int64
}

func (s *Schedule) sparseKey(from, to dist.Layout, rows, cols int) sparseExchKey {
	return sparseExchKey{from.Normalize(s.P), to.Normalize(s.P), rows, cols, s.N, s.Live, s.SparseSeed}
}

// LiveFor returns the memoized live set of the schedule's (N, Live,
// SparseSeed) identity. Read-only for callers.
func (c *PriceCache) LiveFor(s *Schedule) []int32 {
	k := liveSetKey{s.N, s.Live, s.SparseSeed}
	if lv, ok := c.liveSets[k]; ok {
		return lv
	}
	lv := s.LiveSet()
	c.liveSets[k] = lv
	return lv
}

// SparseExchange returns the memoized two-round census of a sparse
// from→to redistribution under the schedule's live set. Layouts must
// be normalized for the bound P.
func (c *PriceCache) SparseExchange(s *Schedule, from, to dist.Layout, rows, cols int) *SparseExchangeCensus {
	c.mustBind()
	k := s.sparseKey(from, to, rows, cols)
	if x, ok := c.sx[k]; ok {
		return x
	}
	x := s.sparseExchange(from, to, rows, cols, c.LiveFor(s))
	c.sx[k] = x
	return x
}

// SparseAllToAllCost returns the memoized topology cost of one round
// (metadata or payload) of a sparse redistribution. Panics on a
// flat-bound cache, like AllToAllCost.
func (c *PriceCache) SparseAllToAllCost(s *Schedule, from, to dist.Layout, rows, cols int, metaRound bool) topo.Cost {
	c.mustBind()
	if c.tp == nil {
		panic("plan: SparseAllToAllCost on a flat-bound PriceCache")
	}
	k := sparseA2AKey{s.sparseKey(from, to, rows, cols), metaRound}
	if cst, ok := c.sa2a[k]; ok {
		return cst
	}
	world := make([]int, c.p)
	for i := range world {
		world[i] = i
	}
	_, cst := c.tp.AllToAll(c.h, topo.Auto, world, s.sparsePairFn(from, to, rows, cols, c.LiveFor(s), metaRound))
	c.sa2a[k] = cst
	return cst
}

// --- Aggregate-before-communicate (KSpMMABC) --------------------------

// liveCountIn counts live rows in [lo, hi); a nil live set means every
// row is live (the dense degenerate).
func liveCountIn(live []int32, lo, hi int) int {
	if live == nil {
		return hi - lo
	}
	return dist.CountInRange(live, lo, hi)
}

// abcPairRows models the structurally-touched row count one KSpMMABC
// sender ships: of the receiver's rowsQ rows, the expected number with
// at least one adjacency edge into the sender's liveR live rows, under
// a uniform (Erdős–Rényi) edge model with per-pair edge probability
// edgeP. Shared by the aggregate pricer and ApproxCensus so PriceOn
// and the replay engine agree bit-for-bit.
func abcPairRows(rowsQ, liveR int, edgeP float64) int64 {
	if rowsQ <= 0 || liveR <= 0 || edgeP <= 0 {
		return 0
	}
	if edgeP > 1 {
		edgeP = 1
	}
	frac := 1 - math.Pow(1-edgeP, float64(liveR))
	return int64(math.Round(float64(rowsQ) * frac))
}

// ApproxABCPairs estimates the KSpMMABC structural census from a global
// stored-entry count: Pairs[r][q] result rows shipped r→q, and
// NNZABC[r] the stored entries of the adjacency columns selected by
// rank r's live rows (the partial-aggregation kernel's work). Use the
// engine's graph-derived census when exact equality matters; this is
// the synthetic-sweep estimate.
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
// KSpMMABC exchange from its structural census: pairs with no touched
// rows exchange nothing; active pairs send the EncodeRowSet header
// plus ids, and the touched rows' full width-column payload.
func abcFns(pairs [][]int64, width int) (meta, pay func(r, q int) int64) {
	meta = func(r, q int) int64 {
		c := pairs[r][q]
		if c <= 0 {
			return 0
		}
		return 4 * (2 + c)
	}
	pay = func(r, q int) int64 {
		return 4 * pairs[r][q] * int64(width)
	}
	return meta, pay
}

// ABC returns a copy of the schedule with the aggregate-before-
// communicate rewrite applied: every chain
//
//	r1 = redist.sp rX H->grid; r2 = spmm.fwd r1; [relu r2;] r3 = redist r2 grid->H
//
// whose intermediates r1, r2 have no other readers becomes
//
//	r3 = spmm.abc rX H; [relu r3 H;]
//
// — each rank partial-aggregates its own live rows against its full
// adjacency replica and the ranks exchange only the structurally
// touched result rows (metadata round on the side channel, summed on
// arrival in ascending rank order). The rewrite re-associates the
// aggregation sum, so it is opt-in rather than part of Optimize; it
// requires R_A == P (full adjacency per rank) and a sparse schedule,
// and returns an unmodified clone otherwise.
func (s *Schedule) ABC() *Schedule {
	t := s.clone()
	if t.RA != t.P || t.Live <= 0 {
		return t
	}
	type pos struct{ sec, op int }
	var order []pos
	for i := range t.Sections {
		for j := range t.Sections[i].Ops {
			order = append(order, pos{i, j})
		}
	}
	at := func(i int) *Op { return &t.Sections[order[i].sec].Ops[order[i].op] }
	uses := make(map[Reg]int)
	for i := range order {
		op := at(i)
		if op.A != None {
			uses[op.A]++
		}
		if op.B != None {
			uses[op.B]++
		}
	}
	for _, r := range t.Outputs {
		uses[r]++
	}
	drop := make(map[pos]bool)
	rewrote := false
	for i := 0; i+2 < len(order); i++ {
		d1 := at(i)
		if d1.Kind != KRedist || !d1.Sparse ||
			d1.From.Normalize(t.P) != dist.H || d1.To.Normalize(t.P) != t.GridL {
			continue
		}
		d2 := at(i + 1)
		if d2.Kind != KSpMM || !d2.Forward || d2.A != d1.Dst {
			continue
		}
		k := i + 2
		var relu *Op
		if at(k).Kind == KReLU && at(k).A == d2.Dst {
			relu = at(k)
			k++
		}
		if k >= len(order) {
			continue
		}
		d4 := at(k)
		if d4.Kind != KRedist || d4.Sparse || d4.A != d2.Dst ||
			d4.From.Normalize(t.P) != t.GridL || d4.To.Normalize(t.P) != dist.H {
			continue
		}
		wantUses := 1
		if relu != nil {
			wantUses = 2
		}
		if uses[d1.Dst] != 1 || uses[d2.Dst] != wantUses {
			continue
		}
		// Fuse: d1's slot becomes the ABC op producing d4's register in
		// H; the interposed ReLU (elementwise — it commutes with the
		// data movement) re-targets the fused result; d2 and d4 drop.
		*d1 = Op{Kind: KSpMMABC, Step: d1.Step, Dst: d4.Dst, A: d1.A, B: None,
			Forward: true, Layout: dist.H, Rows: d2.Rows, Cols: d2.Cols}
		if relu != nil {
			*relu = Op{Kind: KReLU, Step: relu.Step, Dst: None, A: d4.Dst, B: None,
				Layout: dist.H, Rows: relu.Rows, Cols: relu.Cols}
		}
		drop[order[i+1]] = true
		drop[order[k]] = true
		rewrote = true
	}
	if !rewrote {
		return t
	}
	for i := range t.Sections {
		kept := t.Sections[i].Ops[:0]
		for j, op := range t.Sections[i].Ops {
			if !drop[pos{i, j}] {
				kept = append(kept, op)
			}
		}
		t.Sections[i].Ops = kept
	}
	t.finalize()
	if err := t.Validate(); err != nil {
		panic("plan: ABC-rewritten schedule invalid: " + err.Error())
	}
	return t
}
