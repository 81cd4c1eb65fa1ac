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

// SparseExchangeCensus is the census of one two-round sparse exchange:
// the metadata advert round, whose bytes ride the side channel, then
// the variable-volume payload round, the primary metered volume.
// Read-only for callers — cache hits share it.
type SparseExchangeCensus struct {
	Meta, Pay ExchangeCensus
}

// sparseExchKey identifies one sparse exchange census: the conversion
// and shape plus the live-set identity (N, Live, SparseSeed) — caches
// outlive a single schedule, and sweeps may mix live sets.
type sparseExchKey struct {
	from, to   dist.Layout
	rows, cols int
	n, live    int
	seed       int64
}

type liveSetKey struct {
	n, live int
	seed    int64
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
// from→to redistribution under the schedule's live set. An active pair
// is a nonzero dense tile intersection (dist.sparseRegrid's pair
// geometry; inactive pairs exchange nothing, not even a header): its
// metadata is EncodeRowSet's 2-word header plus the ids of the live
// rows in the pair's row window, its payload those rows' column slices.
func (c *PriceCache) SparseExchange(s *Schedule, from, to dist.Layout, rows, cols int) *SparseExchangeCensus {
	c.mustBind()
	from, to = from.Normalize(c.p), to.Normalize(c.p)
	k := sparseExchKey{from, to, rows, cols, s.N, s.Live, s.SparseSeed}
	if x, ok := c.sx[k]; ok {
		return x
	}
	live := c.LiveFor(s)
	x := &SparseExchangeCensus{Meta: c.newCensus(), Pay: c.newCensus()}
	meta := c.pairBuf(from, to, rows, cols)
	pay := make([]topo.Pair, 0, cap(meta))
	dist.OverlapPairs(from, to, c.p, rows, cols, func(src, dst, rlo, rhi, clo, chi int) {
		n := int64(dist.CountInRange(live, rlo, rhi))
		meta = c.add(&x.Meta, meta, src, dst, 4*(2+n))
		pay = c.add(&x.Pay, pay, src, dst, 4*n*int64(chi-clo))
	})
	c.price(&x.Meta, meta)
	c.price(&x.Pay, pay)
	c.sx[k] = x
	return x
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
// edgeP.
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

// abcCensus is a KSpMMABC structural census: at(r, q) result rows
// shipped r→q, and nnz[r] the stored entries of the adjacency columns
// selected by rank r's live rows (the partial-aggregation kernel's
// work). bounds cuts the receivers into classes [bounds[k],
// bounds[k+1]) inside which at(r, ·) is constant for every r.
type abcCensus struct {
	bounds []int
	at     func(r, q int) int64
	nnz    []int64
}

// approxABC estimates the census from the global stored-entry count:
// the rows r ships q depend on q only through the height of q's H
// panel, and balanced panels have two heights, so the estimate is two
// numbers per sender — O(P) to build, and O(P) to fold (exchange).
// The replay engine derives it from the census's exact count
// (Census.NNZ), so every view of the replay sees the same integers.
func (s *Schedule) approxABC(nnz int64, live []int32) abcCensus {
	p := s.P
	edgeP := float64(nnz) / (float64(s.N) * float64(s.N))
	base, tall := s.N/p, s.N%p
	rows := make([][2]int64, p) // to a receiver of base+1 rows, of base rows
	a := abcCensus{bounds: []int{0, p}, nnz: make([]int64, p)}
	if tall > 0 {
		a.bounds = []int{0, tall, p}
	}
	for r := 0; r < p; r++ {
		rlo, rhi := dist.RowRange(dist.H, p, r, s.N)
		liveR := liveCountIn(live, rlo, rhi)
		a.nnz[r] = nnz * int64(liveR) / int64(s.N)
		rows[r] = [2]int64{abcPairRows(base+1, liveR, edgeP), abcPairRows(base, liveR, edgeP)}
	}
	a.at = func(r, q int) int64 {
		if q < tall {
			return rows[r][0]
		}
		return rows[r][1]
	}
	return a
}

// exchange builds the two-round census of the result exchange of
// width-column rows: pairs with no touched rows exchange nothing;
// active pairs send the EncodeRowSet header plus ids, then the touched
// rows' payload. Each receiver class is folded from one representative,
// O(P · classes); only a topology needs the pairs spelled out.
func (a abcCensus) exchange(c *PriceCache, width int) *SparseExchangeCensus {
	bytes := func(n int64) (meta, pay int64) {
		if n <= 0 {
			return 0, 0
		}
		return 4 * (2 + n), 4 * n * int64(width)
	}
	x := &SparseExchangeCensus{Meta: c.newCensus(), Pay: c.newCensus()}
	for k := 0; k+1 < len(a.bounds); k++ {
		lo, hi := a.bounds[k], a.bounds[k+1]
		var metaIn, payIn int64 // what a class member would receive from every rank
		for r := 0; r < c.p; r++ {
			m, b := bytes(a.at(r, lo))
			peers := int64(hi - lo)
			if lo <= r && r < hi {
				peers--
			}
			x.Meta.Div[r] += peers * m
			x.Pay.Div[r] += peers * b
			metaIn += m
			payIn += b
		}
		for q := lo; q < hi; q++ {
			m, b := bytes(a.at(q, q))
			x.Meta.Mer[q], x.Pay.Mer[q] = metaIn-m, payIn-b
		}
	}
	var meta, pay []topo.Pair
	for r := 0; c.tp != nil && r < c.p; r++ {
		for q := 0; q < c.p; q++ {
			m, b := bytes(a.at(r, q))
			if q != r && m > 0 {
				meta = append(meta, topo.Pair{Src: int32(r), Dst: int32(q), Bytes: m})
			}
			if q != r && b > 0 {
				pay = append(pay, topo.Pair{Src: int32(r), Dst: int32(q), Bytes: b})
			}
		}
	}
	c.price(&x.Meta, meta)
	c.price(&x.Pay, pay)
	return x
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
