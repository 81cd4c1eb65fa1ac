// Sparse row-set exchange — the dist layer of the sparsity-aware
// exchange subsystem (DESIGN.md §4g). Real GNN feature matrices are
// row-sparse (most vertices contribute no signal at a given layer), so
// shipping dense tiles wastes bandwidth on zero rows. The protocol
// here is the two-round exchange of the sparsity-aware communication
// literature (arXiv 2504.04673): a metadata round advertises, per
// destination, which live rows the payload will carry (a fixed-shape
// header plus the row-index census, on the fabric's side channel), and
// a variable-volume payload round then moves only those rows through
// the fabric's all-to-all, whose parts may differ in length. Receivers
// assemble from the *decoded* metadata, never from their own knowledge
// of the live set, so the wire format is load-bearing and fuzzed
// (FuzzSparseExchange).
//
// Rows absent from the live set are dropped on the wire and
// reconstructed as exact zeros (NewMat tiles are zero-filled), so a
// sparse redistribution is bit-identical to the dense one whenever the
// live set covers every nonzero row — the caller's invariant. With the
// live set equal to all rows the byte census degenerates to the dense
// one plus metadata, and callers (internal/core) skip the sparse path
// entirely at density 1.0, reproducing the dense protocol bit-for-bit.
package dist

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"gnnrdm/internal/tensor"
)

// GenRows returns a deterministic sorted set of count distinct row
// indices in [0, n): the canonical seeded live-row generator shared by
// the feature synthesizer (internal/graph), the schedule pricer
// (internal/plan), and the benchmarks, so that the engine's scanned
// live set and the cost model's assumed one coincide by construction.
// count is clamped to [0, n].
func GenRows(seed int64, n, count int) []int32 {
	if count >= n {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	if count <= 0 {
		return []int32{}
	}
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	// Partial Fisher–Yates: the first count entries are a uniform sample
	// without replacement.
	for i := 0; i < count; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := idx[:count]
	slices.Sort(out)
	return out
}

// LiveRows scans a dense matrix and returns the sorted indices of rows
// with at least one nonzero entry — the engine-side live set. The scan
// is value-based, so it is SPMD-consistent on any replicated input.
func LiveRows(x *tensor.Dense) []int32 {
	var out []int32
	for i := 0; i < x.Rows; i++ {
		for _, v := range x.Row(i) {
			if v != 0 {
				out = append(out, int32(i))
				break
			}
		}
	}
	if out == nil {
		out = []int32{}
	}
	return out
}

// KeepRows returns a copy of x with every row outside rows zeroed and
// every row in rows nonzero: a kept row that is all zero in x gets 0.5
// in column 0. LiveRows of the result is therefore exactly the sorted
// set rows, which is how a row-sparse input is made to match the live
// set the schedule pricer assumes (GenRows).
func KeepRows(x *tensor.Dense, rows []int32) *tensor.Dense {
	out := tensor.NewDense(x.Rows, x.Cols)
	for _, r := range rows {
		row := out.Row(int(r))
		copy(row, x.Row(int(r)))
		if !slices.ContainsFunc(row, func(v float32) bool { return v != 0 }) {
			row[0] = 0.5
		}
	}
	return out
}

// CountInRange returns how many of the sorted live row indices fall in
// the half-open global row range [lo, hi) — the per-pair row census
// both the exchange below and the schedule pricer (internal/plan)
// compute, from the same definition.
func CountInRange(live []int32, lo, hi int) int {
	a := sort.Search(len(live), func(i int) bool { return int(live[i]) >= lo })
	b := sort.Search(len(live), func(i int) bool { return int(live[i]) >= hi })
	return b - a
}

// RowsInRange returns the sub-slice of the sorted live set falling in
// [lo, hi); the result aliases live.
func RowsInRange(live []int32, lo, hi int) []int32 {
	a := sort.Search(len(live), func(i int) bool { return int(live[i]) >= lo })
	b := sort.Search(len(live), func(i int) bool { return int(live[i]) >= hi })
	return live[a:b]
}

// EncodeRowSet serializes a row-index advertisement for one exchange
// pair: a two-word header [count, width] followed by the row indices,
// every value stored as an exact small-integer float32 (indices are
// bounded by the planner's 1<<24 dimension cap, within float32's exact
// integer range). width is the payload's column count, letting the
// receiver validate the payload length against the advertisement.
func EncodeRowSet(ids []int32, width int) []float32 {
	out := make([]float32, 2+len(ids))
	out[0] = float32(len(ids))
	out[1] = float32(width)
	for i, id := range ids {
		out[2+i] = float32(id)
	}
	return out
}

// DecodeRowSet parses an EncodeRowSet buffer, validating the header
// against the buffer length and every value's exact integerness.
func DecodeRowSet(buf []float32) (ids []int32, width int, err error) {
	if len(buf) < 2 {
		return nil, 0, fmt.Errorf("dist: row-set advertisement of %d words, need >= 2", len(buf))
	}
	count, okc := exactNonNeg(buf[0])
	width, okw := exactNonNeg(buf[1])
	if !okc || !okw {
		return nil, 0, fmt.Errorf("dist: row-set header not exact non-negative integers: [%v %v]", buf[0], buf[1])
	}
	if len(buf) != 2+count {
		return nil, 0, fmt.Errorf("dist: row-set advertises %d rows but carries %d", count, len(buf)-2)
	}
	ids = make([]int32, count)
	for i := range ids {
		v, ok := exactNonNeg(buf[2+i])
		if !ok {
			return nil, 0, fmt.Errorf("dist: row id %v at position %d not an exact non-negative integer", buf[2+i], i)
		}
		ids[i] = int32(v)
	}
	return ids, width, nil
}

// exactNonNeg converts a float32 to int iff it is an exact
// non-negative integer within the planner's dimension cap.
func exactNonNeg(f float32) (int, bool) {
	n := int(f)
	if f < 0 || n > 1<<24 || float32(n) != f {
		return 0, false
	}
	return n, true
}

// RedistributeSparse converts a row-sparse matrix to the target layout
// shipping only the rows in live — the caller asserts live (sorted
// ascending, global indices) covers every nonzero row; rows outside it
// are reconstructed as exact zeros. Conversions a ragged exchange
// cannot improve (identity, Replicated source or target, P == 1) fall
// through to the dense Redistribute. The exchange runs two rounds:
// metadata (EncodeRowSet per active pair, side channel) then payload
// (live rows only, primary meters), each mirroring the dense regrid's
// divide/exchange/merge charge order.
func (m *Mat) RedistributeSparse(target Layout, live []int32) *Mat {
	p := m.Dev.P()
	target = target.normalize(p)
	src := m.Layout.normalize(p)
	if src == target || src.Kind == Replicated || target.Kind == Replicated || p == 1 {
		return m.Redistribute(target)
	}
	return m.sparseRegrid(target, live)
}

func (m *Mat) sparseRegrid(dstL Layout, live []int32) *Mat {
	dev := m.Dev
	dev.TraceBeginPhase("redistribute-sparse")
	defer dev.TraceEndPhase()
	p := dev.P()
	rows, cols := m.GlobalRows, m.GlobalCols
	srcL := m.Layout.normalize(p)
	world := dev.World()

	myRlo, _ := RowRange(srcL, p, dev.Rank, rows)
	myClo, _ := ColRange(srcL, p, dev.Rank, cols)

	// Pair geometry: the dense tile intersection decides which pairs are
	// active; the live set decides what they carry.
	type pairGeom struct {
		rlo, rhi, clo, chi int
		ids                []int32
	}
	geom := make([]pairGeom, p)
	active := make([]bool, p)
	for s := 0; s < p; s++ {
		trlo, trhi := RowRange(dstL, p, s, rows)
		tclo, tchi := ColRange(dstL, p, s, cols)
		rlo, rhi := max(trlo, myRlo), min(trhi, myRlo+m.Local.Rows)
		clo, chi := max(tclo, myClo), min(tchi, myClo+m.Local.Cols)
		if rlo >= rhi || clo >= chi {
			continue
		}
		active[s] = true
		geom[s] = pairGeom{rlo, rhi, clo, chi, RowsInRange(live, rlo, rhi)}
	}

	// Round 1: metadata. Every active pair advertises its live-row ids
	// and payload width — mechanical protocol traffic the paper's cost
	// model does not count, so it rides the side channel like the ReLU
	// masks of RedistributeMask.
	metaParts := make([][]float32, p)
	var metaDiv int64
	for s := 0; s < p; s++ {
		if !active[s] {
			continue
		}
		g := &geom[s]
		metaParts[s] = EncodeRowSet(g.ids, g.chi-g.clo)
		if s != dev.Rank {
			metaDiv += int64(len(metaParts[s])) * 4
		}
	}
	dev.SetSideChannel(true)
	dev.ChargeMem(metaDiv)
	metaRecv := dev.AllToAll(world, metaParts)
	var metaMer int64
	for s := 0; s < p; s++ {
		if s != dev.Rank {
			metaMer += int64(len(metaRecv[s])) * 4
		}
	}
	dev.ChargeMem(metaMer)
	dev.SetSideChannel(false)

	// Round 2: payload — only the advertised rows travel.
	parts := make([][]float32, p)
	var payDiv int64
	for s := 0; s < p; s++ {
		if !active[s] {
			continue
		}
		g := &geom[s]
		sub := make([]float32, 0, len(g.ids)*(g.chi-g.clo))
		for _, id := range g.ids {
			row := m.Local.Row(int(id) - myRlo)
			sub = append(sub, row[g.clo-myClo:g.chi-myClo]...)
		}
		parts[s] = sub
		if s != dev.Rank {
			payDiv += int64(len(sub)) * 4
		}
	}
	dev.ChargeMem(payDiv)
	recv := dev.AllToAll(world, parts)

	// Merge: place the advertised rows using the decoded metadata. Rows
	// never advertised stay the zeros NewMat allocated.
	out := NewMat(dev, dstL, rows, cols)
	nrlo, _ := RowRange(dstL, p, dev.Rank, rows)
	nclo, _ := ColRange(dstL, p, dev.Rank, cols)
	var payMer int64
	for s := 0; s < p; s++ {
		meta := metaRecv[s]
		if len(meta) == 0 {
			if len(recv[s]) != 0 {
				panic(fmt.Sprintf("dist: sparse regrid got %d unadvertised elements from %d", len(recv[s]), s))
			}
			continue
		}
		ids, width, err := DecodeRowSet(meta)
		if err != nil {
			panic(fmt.Sprintf("dist: sparse regrid metadata from %d: %v", s, err))
		}
		buf := recv[s]
		if len(buf) != len(ids)*width {
			panic(fmt.Sprintf("dist: sparse regrid payload from %d: %d elements for %d rows x %d cols",
				s, len(buf), len(ids), width))
		}
		// The sender's column window is geometry, recomputed here from the
		// layouts (the metadata advertises rows; columns are SPMD-known).
		sclo, schi := ColRange(srcL, p, s, cols)
		clo := max(nclo, sclo)
		if w := min(nclo+out.Local.Cols, schi) - clo; w != width {
			panic(fmt.Sprintf("dist: sparse regrid width from %d: advertised %d, geometry %d", s, width, w))
		}
		if s != dev.Rank {
			payMer += int64(len(buf)) * 4
		}
		for k, id := range ids {
			i := int(id) - nrlo
			if i < 0 || i >= out.Local.Rows {
				panic(fmt.Sprintf("dist: sparse regrid row %d from %d outside my tile", id, s))
			}
			copy(out.Local.Row(i)[clo-nclo:clo-nclo+width], buf[k*width:(k+1)*width])
		}
	}
	dev.ChargeMem(payMer)
	return out
}

// HaloExchange gathers, on every rank, an arbitrary set of global rows
// of a vertex-sliced matrix — the CSR halo exchange: need lists come
// from the local adjacency panel's remote column neighbors. Round 1
// advertises every rank's need list with a ragged allgather
// (EncodeRowSet wire format, side channel); round 2 has each owner
// send every requester its needed rows, deduplicated per requester,
// through a ragged all-to-all. The result holds the needed
// rows in need order (duplicates resolved locally).
func HaloExchange(m *Mat, need []int32) *tensor.Dense {
	dev := m.Dev
	p := dev.P()
	src := m.Layout.normalize(p)
	if src.Kind != Horizontal {
		panic(fmt.Sprintf("dist: HaloExchange needs a vertex-sliced source, have %s", src))
	}
	w := m.GlobalCols
	rlo, rhi := RowRange(src, p, dev.Rank, m.GlobalRows)
	distinct := make([]int32, 0, len(need))
	seen := make(map[int32]struct{}, len(need))
	for _, r := range need {
		if int(r) < 0 || int(r) >= m.GlobalRows {
			panic(fmt.Sprintf("dist: HaloExchange row %d out of range [0, %d)", r, m.GlobalRows))
		}
		if _, ok := seen[r]; !ok {
			seen[r] = struct{}{}
			distinct = append(distinct, r)
		}
	}
	slices.Sort(distinct)
	if p == 1 {
		return expandRows(m.Local, nil, need)
	}
	dev.TraceBeginPhase("halo-exchange")
	defer dev.TraceEndPhase()

	// Round 1: advertise my deduplicated need list to everyone.
	dev.SetSideChannel(true)
	adverts := dev.AllGatherFlat(dev.World(), EncodeRowSet(distinct, w), nil)
	dev.SetSideChannel(false)

	// Round 2: serve every requester the rows I own from its advert.
	// The adverts arrive concatenated in rank order, each 2 + count
	// words; a count that overruns the buffer fails DecodeRowSet.
	parts := make([][]float32, p)
	var packBytes int64
	at := 0
	for s := 0; s < p; s++ {
		end := len(adverts)
		if at+2 <= end {
			if c, ok := exactNonNeg(adverts[at]); ok && at+2+c < end {
				end = at + 2 + c
			}
		}
		ids, aw, err := DecodeRowSet(adverts[at:end])
		at = end
		if err != nil {
			panic(fmt.Sprintf("dist: halo advert from %d: %v", s, err))
		}
		if aw != w {
			panic(fmt.Sprintf("dist: halo advert from %d: width %d, matrix has %d cols", s, aw, w))
		}
		mine := RowsInRange(ids, rlo, rhi)
		buf := make([]float32, 0, len(mine)*w)
		for _, r := range mine {
			buf = append(buf, m.Local.Row(int(r)-rlo)...)
		}
		parts[s] = buf
		if s != dev.Rank {
			packBytes += int64(len(buf)) * 4
		}
	}
	dev.ChargeMem(packBytes)
	recv := dev.AllToAll(dev.World(), parts)

	// Assemble: my distinct rows arrive owner-sorted; each owner packed
	// exactly RowsInRange(my distinct list, its range) in order.
	halo := tensor.NewDense(len(distinct), w)
	var mergeBytes int64
	cursor := make([]int, p)
	for i, r := range distinct {
		owner := PartOf(m.GlobalRows, p, int(r))
		buf := recv[owner]
		copy(halo.Row(i), buf[cursor[owner]*w:(cursor[owner]+1)*w])
		cursor[owner]++
		if owner != dev.Rank {
			mergeBytes += int64(w) * 4
		}
	}
	dev.ChargeMem(mergeBytes)
	return expandRows(halo, distinct, need)
}

// expandRows fans a deduplicated row block back out to request order.
// distinct == nil means src is the full global matrix, indexed by row
// id directly; otherwise src holds exactly the sorted distinct rows.
func expandRows(src *tensor.Dense, distinct, need []int32) *tensor.Dense {
	out := tensor.NewDense(len(need), src.Cols)
	for i, r := range need {
		j := int(r)
		if distinct != nil {
			j = sort.Search(len(distinct), func(k int) bool { return distinct[k] >= r })
		}
		copy(out.Row(i), src.Row(j))
	}
	return out
}
