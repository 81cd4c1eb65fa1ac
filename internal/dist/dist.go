// Package dist implements distributed dense matrices over the simulated
// fabric: the Horizontal (vertex-sliced) and Vertical (feature-sliced)
// layouts of Fig. 2, the grid layout of §III-E used when the adjacency
// matrix is row-panel replicated R_A times, and the divide/exchange/merge
// redistribution of Fig. 7 (an all-to-all personalized exchange whose
// total volume (P-1)/P·N·f is independent of P).
//
// All methods are SPMD: every device in the group must call the same
// method with the same arguments in the same order.
package dist

import (
	"fmt"
	"math"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/tensor"
)

// Kind enumerates layout families.
type Kind int

const (
	// Horizontal slices rows (vertices) across devices: device i owns
	// rows PartRange(N, P, i) and all columns.
	Horizontal Kind = iota
	// Vertical slices columns (features) across devices: device i owns
	// all rows and columns PartRange(f, P, i).
	Vertical
	// Grid slices rows into P/PJ panels and columns into PJ slices;
	// device r owns row panel r/PJ and column slice r%PJ. With PJ=P this
	// is Vertical; with PJ=1 it is Horizontal. PJ equals the adjacency
	// replication factor R_A of §III-E.
	Grid
	// Replicated stores the full matrix on every device.
	Replicated
)

// Layout describes how a global matrix is partitioned across P devices.
type Layout struct {
	Kind Kind
	// PJ is the number of column slices for Grid layouts (ignored
	// otherwise).
	PJ int
}

// H, V and R are the common layouts.
var (
	H = Layout{Kind: Horizontal}
	V = Layout{Kind: Vertical}
	R = Layout{Kind: Replicated}
)

// G returns a Grid layout with pj column slices.
func G(pj int) Layout { return Layout{Kind: Grid, PJ: pj} }

func (l Layout) String() string {
	switch l.Kind {
	case Horizontal:
		return "H"
	case Vertical:
		return "V"
	case Grid:
		return fmt.Sprintf("G%d", l.PJ)
	case Replicated:
		return "R"
	}
	return "?"
}

// Normalize returns the canonical form of l for a fabric of p devices:
// degenerate grids fold into H (PJ<=1) or V (PJ>=P).
func (l Layout) Normalize(p int) Layout { return l.normalize(p) }

// normalize folds degenerate grids into H/V so layout comparisons are
// canonical for a fabric of p devices.
func (l Layout) normalize(p int) Layout {
	if l.Kind == Grid {
		if l.PJ <= 1 {
			return H
		}
		if l.PJ >= p {
			return V
		}
		if p%l.PJ != 0 {
			panic(fmt.Sprintf("dist: grid PJ=%d does not divide P=%d", l.PJ, p))
		}
	}
	return l
}

// PartRange returns the half-open range [lo, hi) of part i when n items
// are split into parts balanced chunks (the first n%parts chunks get one
// extra item).
func PartRange(n, parts, i int) (lo, hi int) {
	base := n / parts
	rem := n % parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// Mat is one device's view of a distributed GlobalRows x GlobalCols dense
// matrix.
type Mat struct {
	Dev                    *comm.Device
	GlobalRows, GlobalCols int
	Layout                 Layout
	// Local is this device's tile. Its shape is implied by Layout.
	Local *tensor.Dense
}

// TileShape returns the local tile shape of the given device under a
// layout.
func TileShape(l Layout, p, rank, rows, cols int) (r, c int) {
	switch l.normalize(p).Kind {
	case Horizontal:
		lo, hi := PartRange(rows, p, rank)
		return hi - lo, cols
	case Vertical:
		lo, hi := PartRange(cols, p, rank)
		return rows, hi - lo
	case Grid:
		pj := l.PJ
		pi := p / pj
		rlo, rhi := PartRange(rows, pi, rank/pj)
		clo, chi := PartRange(cols, pj, rank%pj)
		return rhi - rlo, chi - clo
	case Replicated:
		return rows, cols
	}
	panic("dist: bad layout")
}

// RowRange returns the global row range of a device's tile.
func RowRange(l Layout, p, rank, rows int) (lo, hi int) {
	switch l.normalize(p).Kind {
	case Horizontal:
		return PartRange(rows, p, rank)
	case Vertical, Replicated:
		return 0, rows
	case Grid:
		return PartRange(rows, p/l.PJ, rank/l.PJ)
	}
	panic("dist: bad layout")
}

// TileOverlap returns the element count of the intersection between
// device ra's tile under layout a and device rb's tile under layout b,
// for a global rows x cols matrix on p devices: the exact chunk size
// regrid ships from ra to rb. Schedule pricing (internal/plan) computes
// redistribution volumes from this, so the planner's byte predictions
// derive from the same layout metadata the executor moves bytes with.
func TileOverlap(a Layout, ra int, b Layout, rb int, p, rows, cols int) int {
	arlo, arhi := RowRange(a, p, ra, rows)
	aclo, achi := ColRange(a, p, ra, cols)
	brlo, brhi := RowRange(b, p, rb, rows)
	bclo, bchi := ColRange(b, p, rb, cols)
	r := min(arhi, brhi) - max(arlo, brlo)
	c := min(achi, bchi) - max(aclo, bclo)
	if r <= 0 || c <= 0 {
		return 0
	}
	return r * c
}

// tiling returns a layout's tile grid: rows split into nr balanced
// parts and columns into nc, rank r holding part (r/nc, r%nc) — or,
// when repl, every rank holding the single part.
func tiling(l Layout, p int) (nr, nc int, repl bool) {
	if l.Kind == Replicated {
		return 1, 1, true
	}
	pj := gridPJ(l.normalize(p), p)
	return p / pj, pj, false
}

// partOf inverts PartRange: the part holding item x of n items split
// into parts balanced chunks.
func partOf(n, parts, x int) int {
	base, rem := n/parts, n%parts
	if x < rem*(base+1) {
		return x / (base + 1)
	}
	return rem + (x-rem*(base+1))/base
}

// OverlapPairs visits every (sender, receiver) pair, self pairs
// included, whose tiles intersect — sender src's tile under from,
// receiver dst's under to, for a global rows x cols matrix on p
// devices — with the intersection's row and column ranges; the pair's
// TileOverlap is (rhi-rlo)*(chi-clo). Tile overlap is separable, so
// each sender inverts PartRange per axis to reach only the receivers
// it overlaps: O(p + pairs visited) where calling TileOverlap for
// every pair is p². Visits run in ascending (src, dst) order.
func OverlapPairs(from, to Layout, p, rows, cols int, visit func(src, dst, rlo, rhi, clo, chi int)) {
	fnr, fnc, frepl := tiling(from, p)
	tnr, tnc, trepl := tiling(to, p)
	for src := 0; src < p; src++ {
		fi, fj := src/fnc, src%fnc
		if frepl {
			fi, fj = 0, 0
		}
		arlo, arhi := PartRange(rows, fnr, fi)
		aclo, achi := PartRange(cols, fnc, fj)
		if arlo >= arhi || aclo >= achi {
			continue
		}
		tiHi := partOf(rows, tnr, arhi-1)
		tjLo, tjHi := partOf(cols, tnc, aclo), partOf(cols, tnc, achi-1)
		for ti := partOf(rows, tnr, arlo); ti <= tiHi; ti++ {
			brlo, brhi := PartRange(rows, tnr, ti)
			rlo, rhi := max(arlo, brlo), min(arhi, brhi)
			for tj := tjLo; tj <= tjHi; tj++ {
				bclo, bchi := PartRange(cols, tnc, tj)
				clo, chi := max(aclo, bclo), min(achi, bchi)
				if !trepl {
					visit(src, ti*tnc+tj, rlo, rhi, clo, chi)
					continue
				}
				for dst := 0; dst < p; dst++ {
					visit(src, dst, rlo, rhi, clo, chi)
				}
			}
		}
	}
}

// ColRange returns the global column range of a device's tile.
func ColRange(l Layout, p, rank, cols int) (lo, hi int) {
	switch l.normalize(p).Kind {
	case Vertical:
		return PartRange(cols, p, rank)
	case Horizontal, Replicated:
		return 0, cols
	case Grid:
		return PartRange(cols, l.PJ, rank%l.PJ)
	}
	panic("dist: bad layout")
}

// Distribute builds this device's tile of a global matrix by local
// slicing. It models loading pre-partitioned data and charges no
// communication.
func Distribute(dev *comm.Device, l Layout, global *tensor.Dense) *Mat {
	p := dev.P()
	l = l.normalize(p)
	rlo, rhi := RowRange(l, p, dev.Rank, global.Rows)
	clo, chi := ColRange(l, p, dev.Rank, global.Cols)
	var tile *tensor.Dense
	if rlo == 0 && rhi == global.Rows && clo == 0 && chi == global.Cols {
		tile = global.Clone()
	} else if clo == 0 && chi == global.Cols {
		tile = global.RowSlice(rlo, rhi)
	} else if rlo == 0 && rhi == global.Rows {
		tile = global.ColSlice(clo, chi)
	} else {
		tile = global.RowSlice(rlo, rhi).ColSlice(clo, chi)
	}
	return &Mat{Dev: dev, GlobalRows: global.Rows, GlobalCols: global.Cols, Layout: l, Local: tile}
}

// NewMat allocates a zeroed distributed matrix.
func NewMat(dev *comm.Device, l Layout, rows, cols int) *Mat {
	p := dev.P()
	l = l.normalize(p)
	r, c := TileShape(l, p, dev.Rank, rows, cols)
	return &Mat{Dev: dev, GlobalRows: rows, GlobalCols: cols, Layout: l, Local: tensor.NewDense(r, c)}
}

// FromLocal wraps an existing tile; the caller asserts it matches the
// layout's expected shape.
func FromLocal(dev *comm.Device, l Layout, rows, cols int, tile *tensor.Dense) *Mat {
	p := dev.P()
	l = l.normalize(p)
	wr, wc := TileShape(l, p, dev.Rank, rows, cols)
	if tile.Rows != wr || tile.Cols != wc {
		panic(fmt.Sprintf("dist: tile %dx%d does not match layout %v shape %dx%d",
			tile.Rows, tile.Cols, l, wr, wc))
	}
	return &Mat{Dev: dev, GlobalRows: rows, GlobalCols: cols, Layout: l, Local: tile}
}

// WithDevice returns a shallow copy of the matrix bound to dev (sharing
// the tile storage). The overlap executor uses it to run an op on a
// resource lane of the same rank: the Mat's charges and collectives then
// land on the lane's clock and trace track. dev must have the same Rank
// and fabric as the original Dev.
func (m *Mat) WithDevice(dev *comm.Device) *Mat {
	c := *m
	c.Dev = dev
	return &c
}

// Redistribute converts the matrix to the target layout, returning a new
// Mat. Supported conversions: any -> Replicated (allgather),
// Replicated -> any (local slice, free), Horizontal <-> Vertical,
// Horizontal <-> Grid, Grid -> Horizontal, Grid <-> Vertical, and
// identity (free).
func (m *Mat) Redistribute(target Layout) *Mat { return m.RedistributeInto(target, nil) }

// RedistributeInto is Redistribute writing a grid-family conversion's
// result into old's tile — every element is overwritten — when that tile
// has the target shape and is not m's own; otherwise (old nil included)
// it allocates one. A steady-state caller passes what the same
// conversion returned last time and moves the bytes without allocating
// the tile they land in. Identity and Replicated conversions ignore old.
func (m *Mat) RedistributeInto(target Layout, old *Mat) *Mat {
	p := m.Dev.P()
	target = target.normalize(p)
	src := m.Layout.normalize(p)
	if src == target {
		return m
	}
	switch {
	case target.Kind == Replicated:
		return m.replicate()
	case src.Kind == Replicated:
		out := Distribute(m.Dev, target, m.Local)
		return out
	}
	// Express H and V as degenerate grids and use the general grid
	// redistribution.
	srcPJ, dstPJ := gridPJ(src, p), gridPJ(target, p)
	return m.regrid(srcPJ, dstPJ, false, old)
}

// RedistributeMask converts a 0/1-valued matrix (a ReLU-derivative mask)
// between grid-family layouts, shipping one byte per element — four mask
// values packed per transmitted float32 — as a real implementation would
// ship a uint8 mask over NCCL. Replicated layouts are not supported.
func (m *Mat) RedistributeMask(target Layout) *Mat { return m.RedistributeMaskInto(target, nil) }

// RedistributeMaskInto is RedistributeMask with RedistributeInto's
// destination rule.
func (m *Mat) RedistributeMaskInto(target Layout, old *Mat) *Mat {
	p := m.Dev.P()
	target = target.normalize(p)
	src := m.Layout.normalize(p)
	if src == target {
		return m
	}
	if src.Kind == Replicated || target.Kind == Replicated {
		panic("dist: RedistributeMask supports grid-family layouts only")
	}
	// Mask bytes are mechanical traffic the paper's cost model does not
	// count; meter them on the side channel so primary fabric volumes
	// stay byte-comparable to costmodel predictions.
	m.Dev.SetSideChannel(true)
	defer m.Dev.SetSideChannel(false)
	return m.regrid(gridPJ(src, p), gridPJ(target, p), true, old)
}

func gridPJ(l Layout, p int) int {
	switch l.Kind {
	case Horizontal:
		return 1
	case Vertical:
		return p
	case Grid:
		return l.PJ
	}
	panic("dist: cannot grid layout " + l.String())
}

// narrowRow is the row width, in floats, below which copyBlock moves a
// strided row element by element: a memmove call per 4–8 bytes is what
// held regrid under 1 GB/s. Picked with BenchmarkRegrid (-cpu 1,2, into a
// retained tile): on train-redist's rows of 2 and 1 floats the loop takes
// 5.3 and 2.9 ms per call where copy-per-row takes 7.9 and 6.2; on
// train-gemm's rows of 16 it takes 4.1 ms where copy takes 2.1. Timed
// alone at widths 1–32 the two tie at 4 floats and copy wins from 6.
const narrowRow = 4

// copyBlock copies an h x w block between row-major buffers: row i
// from src[i*ss:] to dst[i*ds:].
func copyBlock(dst []float32, ds int, src []float32, ss int, h, w int) {
	switch {
	case ds == w && ss == w:
		copy(dst[:h*w], src[:h*w])
	case w < narrowRow:
		for i := 0; i < h; i++ {
			d, s := i*ds, i*ss
			for j := 0; j < w; j++ {
				dst[d+j] = src[s+j]
			}
		}
	default:
		for i := 0; i < h; i++ {
			copy(dst[i*ds:i*ds+w], src[i*ss:i*ss+w])
		}
	}
}

// packBlock packs the h x w block of 0/1 values at src (row stride ss)
// into (h*w+3)/4 wire words: four values per float32, one byte each,
// in row-major order. Every word is written whole.
func packBlock(words []float32, src []float32, ss int, h, w int) {
	n := 0
	var bits uint32
	for i := 0; i < h; i++ {
		for _, v := range src[i*ss : i*ss+w] {
			if v != 0 {
				bits |= 1 << (uint(n%4) * 8)
			}
			n++
			if n%4 == 0 {
				words[n/4-1] = math.Float32frombits(bits)
				bits = 0
			}
		}
	}
	if n%4 != 0 {
		words[n/4] = math.Float32frombits(bits)
	}
}

// unpackBlock reverses packBlock into the h x w block at dst (row
// stride ds), writing every element: 1 where the byte is set, else 0.
func unpackBlock(dst []float32, ds int, words []float32, h, w int) {
	n := 0
	for i := 0; i < h; i++ {
		row := dst[i*ds : i*ds+w]
		for j := range row {
			row[j] = 0
			if math.Float32bits(words[n/4])>>(uint(n%4)*8)&0xff != 0 {
				row[j] = 1
			}
			n++
		}
	}
}

// sameStorage reports whether two tiles start at the same element.
func sameStorage(a, b *tensor.Dense) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// TileOf returns the rows x cols tile a producer writes its result into:
// old's, when old is non-nil and its tile has that shape — what the same
// producer returned last time — else a fresh zeroed one. The caller
// overwrites the whole tile.
func TileOf(old *Mat, rows, cols int) *tensor.Dense {
	if old != nil && old.Local.Rows == rows && old.Local.Cols == cols {
		return old.Local
	}
	return tensor.NewDense(rows, cols)
}

// reshape returns dst set to rows x cols over its own storage, grown only
// when too short, or a fresh zeroed tile when dst is nil. The caller
// overwrites the whole result.
func reshape(dst *tensor.Dense, rows, cols int) *tensor.Dense {
	if dst == nil {
		return tensor.NewDense(rows, cols)
	}
	if n := rows * cols; cap(dst.Data) < n {
		dst.Data = make([]float32, n)
	} else {
		dst.Data = dst.Data[:n]
	}
	dst.Rows, dst.Cols = rows, cols
	return dst
}

// regrid converts between two grid layouts (including the degenerate
// H=G(1) and V=G(P)) with a single all-to-all over the world group.
// Device r sends to device s exactly the intersection of r's source tile
// and s's target tile, so the exchanged volume is minimal. Row-group or
// column-group locality (e.g. the (R_A-1)/R_A·N·f of §IV-A4) emerges
// naturally: disjoint tiles exchange nothing.
//
// Two copies per element: divide packs the outgoing parts back to back
// into the device's staging buffer (comm.Stage), and merge copies each
// received part from its sender's staging buffer straight into the
// destination tile while the round still holds it
// (comm.TryAllToAllRecv). The device reuses the buffer only on its next
// staging call, after the collective has returned: a retried round
// redeposits the same buffer, and no member leaves a round before every
// member has read it.
//
// When packed, every part travels as byte-packed mask words (packBlock).
// The result lands in old's tile when that has the target shape and is
// not m's own, else in a fresh one; the target tiles partition the
// matrix, so merge overwrites every element either way.
func (m *Mat) regrid(srcPJ, dstPJ int, packed bool, old *Mat) *Mat {
	dev := m.Dev
	dev.TraceBeginPhase("redistribute")
	defer dev.TraceEndPhase()
	p := dev.P()
	rows, cols := m.GlobalRows, m.GlobalCols
	srcL := G(srcPJ).normalize(p)
	dstL := G(dstPJ).normalize(p)
	src := m.Local
	wire := func(n int) int {
		if packed {
			return (n + 3) / 4
		}
		return n
	}

	myRlo, _ := RowRange(srcL, p, dev.Rank, rows)
	myClo, _ := ColRange(srcL, p, dev.Rank, cols)

	// Divide: pack the part destined to each device. The parts of a
	// plain regrid are exactly the tile; packed ones round up to a
	// word each.
	st := dev.Stage()
	buf := st.Floats(wire(len(src.Data)) + p)
	parts := st.Parts(p)
	at := 0
	var divideBytes int64
	for s := 0; s < p; s++ {
		trlo, trhi := RowRange(dstL, p, s, rows)
		tclo, tchi := ColRange(dstL, p, s, cols)
		// Intersect with my tile (global coords).
		rlo, rhi := max(trlo, myRlo), min(trhi, myRlo+src.Rows)
		clo, chi := max(tclo, myClo), min(tchi, myClo+src.Cols)
		if rlo >= rhi || clo >= chi {
			continue
		}
		h, w := rhi-rlo, chi-clo
		end := at + wire(h*w)
		sub := buf[at:end:end]
		at = end
		block := src.Data[(rlo-myRlo)*src.Cols+(clo-myClo):]
		if packed {
			packBlock(sub, block, src.Cols, h, w)
		} else {
			copyBlock(sub, w, block, src.Cols, h, w)
		}
		parts[s] = sub
		if s != dev.Rank {
			divideBytes += int64(len(sub)) * 4
		}
	}
	dev.ChargeMem(divideBytes) // divide step (local packing)

	// Merge: place each received block into the new tile as its sender's
	// turn comes. The callback runs beside the other devices' and must
	// not panic, so the integrity checks are recorded and raised once the
	// round has drained.
	wr, wc := TileShape(dstL, p, dev.Rank, rows, cols)
	if old != nil && sameStorage(old.Local, src) {
		old = nil
	}
	tile := TileOf(old, wr, wc)
	nrlo, _ := RowRange(dstL, p, dev.Rank, rows)
	nclo, _ := ColRange(dstL, p, dev.Rank, cols)
	var mergeBytes int64
	var broken string
	err := dev.TryAllToAllRecv(dev.World(), parts, func(s int, buf []float32) {
		if len(buf) == 0 || broken != "" {
			return
		}
		srlo, srhi := RowRange(srcL, p, s, rows)
		sclo, schi := ColRange(srcL, p, s, cols)
		rlo, rhi := max(nrlo, srlo), min(nrlo+wr, srhi)
		clo, chi := max(nclo, sclo), min(nclo+wc, schi)
		if rlo >= rhi || clo >= chi {
			broken = fmt.Sprintf("dist: regrid received %d elements from %d with empty intersection", len(buf), s)
			return
		}
		h, w := rhi-rlo, chi-clo
		if wire(h*w) != len(buf) {
			broken = fmt.Sprintf("dist: regrid merge size mismatch from %d: %d vs %d", s, wire(h*w), len(buf))
			return
		}
		if s != dev.Rank {
			mergeBytes += int64(len(buf)) * 4
		}
		block := tile.Data[(rlo-nrlo)*wc+(clo-nclo):]
		if packed {
			unpackBlock(block, wc, buf, h, w)
		} else {
			copyBlock(block, wc, buf, w, h, w)
		}
	})
	if err != nil {
		panic(err)
	}
	if broken != "" {
		panic(broken)
	}
	dev.ChargeMem(mergeBytes) // merge step (local unpacking)
	return &Mat{Dev: dev, GlobalRows: rows, GlobalCols: cols, Layout: dstL, Local: tile}
}

// replicate gathers the full matrix onto every device.
func (m *Mat) replicate() *Mat {
	dev := m.Dev
	dev.TraceBeginPhase("replicate")
	defer dev.TraceEndPhase()
	p := dev.P()
	src := m.Layout.normalize(p)
	buf := dev.AllGatherFlat(dev.World(), m.Local.Data, nil)
	out := NewMat(dev, R, m.GlobalRows, m.GlobalCols)
	at := 0 // sender s's tile follows senders 0..s-1's in buf
	for s := 0; s < p; s++ {
		rlo, rhi := RowRange(src, p, s, m.GlobalRows)
		clo, chi := ColRange(src, p, s, m.GlobalCols)
		for i := rlo; i < rhi; i++ {
			at += copy(out.Local.Row(i)[clo:chi], buf[at:])
		}
	}
	dev.ChargeMem(out.Local.Bytes())
	return out
}

// GatherRows collects the given global rows of a vertex-sliced
// (Horizontal) matrix onto root, assembled in request order; every
// other device returns nil. This is the serving tier's per-query halo
// gather: each owner injects exactly the requested rows it holds (an
// all-to-all where root is the sole receiver), so the metered volume
// is 4·cols·(requested rows not owned by root) — rows root already
// holds ride the self-delivery slot for free. Duplicate row requests
// are sent once per occurrence; callers wanting aggregation-before-
// communication deduplicate first. Root charges one memory write for
// the assembled result.
func (m *Mat) GatherRows(root int, rows []int32) *tensor.Dense {
	return m.GatherRowsInto(root, rows, nil)
}

// GatherRowsInto is GatherRows assembling root's result in dst's storage
// — dst is reshaped to len(rows) x cols, its Data grown only when too
// short, and every element overwritten — or in a fresh tile when dst is
// nil. Root returns dst; the other devices ignore it and return nil. A
// caller gathering batch after batch passes the same dst and allocates no
// result, and every device stages the rows it sends in its comm.Stage.
func (m *Mat) GatherRowsInto(root int, rows []int32, dst *tensor.Dense) *tensor.Dense {
	dev := m.Dev
	p := dev.P()
	m.checkGatherRows(rows)
	var out *tensor.Dense
	if dev.Rank == root {
		out = reshape(dst, len(rows), m.GlobalCols)
	}
	if p == 1 {
		return m.gatherLocal(rows, out)
	}
	dev.TraceBeginPhase("gather-rows")
	defer dev.TraceEndPhase()
	parts := dev.Stage().Parts(p)
	parts[root] = m.packRows(rows)
	// Assemble while the round holds the owners' buffers. Only root's
	// callback does anything.
	short := -1
	err := dev.TryAllToAllRecv(dev.World(), parts, func(s int, buf []float32) {
		if out != nil && short < 0 && !m.placeRows(out, rows, s, buf) {
			short = s // raised below: a callback must not panic
		}
	})
	if err != nil {
		panic(err)
	}
	if short >= 0 {
		panic(fmt.Sprintf("dist: GatherRows got fewer rows from %d than it owns of the request", short))
	}
	if out != nil {
		dev.ChargeMem(out.Bytes())
	}
	return out
}

// GatherRowsLockstep is GatherRowsInto for every rank at once, run from
// one host goroutine: tiles[r] is rank r's view of the matrix, and the
// exchange is one comm.Fabric.LockstepAllToAll instead of P devices
// meeting at the rendezvous. Every rank validates, stages its rows in
// its own comm.Stage and opens and closes the same "gather-rows" phase,
// and root makes the same one memory charge, so the bytes, clocks and
// trace events are GatherRowsInto's. It returns root's result, in dst's
// storage under GatherRowsInto's rule. No Run may be in flight.
func GatherRowsLockstep(tiles []*Mat, root int, rows []int32, dst *tensor.Dense) *tensor.Dense {
	for r, t := range tiles {
		if t.Dev.Rank != r || t.Dev.P() != len(tiles) {
			panic(fmt.Sprintf("dist: GatherRowsLockstep tile %d is rank %d of %d", r, t.Dev.Rank, t.Dev.P()))
		}
		t.checkGatherRows(rows)
	}
	m := tiles[root]
	out := reshape(dst, len(rows), m.GlobalCols)
	if len(tiles) == 1 {
		return m.gatherLocal(rows, out)
	}
	var stack [8][][]float32 // every parts slice, on the stack up to P = 8
	sets := stack[:0]
	for _, t := range tiles {
		t.Dev.TraceBeginPhase("gather-rows")
		parts := t.Dev.Stage().Parts(len(tiles))
		parts[root] = t.packRows(rows)
		sets = append(sets, parts)
	}
	short := -1
	err := m.Dev.F.LockstepAllToAll(m.Dev.World(), sets, func(to, from int, buf []float32) {
		if to == root && short < 0 && !m.placeRows(out, rows, from, buf) {
			short = from
		}
	})
	if err != nil {
		panic(err)
	}
	if short >= 0 {
		panic(fmt.Sprintf("dist: GatherRows got fewer rows from %d than it owns of the request", short))
	}
	m.Dev.ChargeMem(out.Bytes())
	for _, t := range tiles {
		t.Dev.TraceEndPhase()
	}
	return out
}

// checkGatherRows panics unless m is vertex-sliced and every requested
// row is in range.
func (m *Mat) checkGatherRows(rows []int32) {
	if src := m.Layout.normalize(m.Dev.P()); src.Kind != Horizontal {
		panic(fmt.Sprintf("dist: GatherRows needs a vertex-sliced source, have %s", src))
	}
	for _, r := range rows {
		if int(r) < 0 || int(r) >= m.GlobalRows {
			panic(fmt.Sprintf("dist: GatherRows row %d out of range [0, %d)", r, m.GlobalRows))
		}
	}
}

// gatherLocal is the one-device gather: every row is this device's, so
// out is filled straight from the tile and charged as one memory write.
func (m *Mat) gatherLocal(rows []int32, out *tensor.Dense) *tensor.Dense {
	for i, r := range rows {
		copy(out.Row(i), m.Local.Row(int(r)))
	}
	m.Dev.ChargeMem(out.Bytes())
	return out
}

// packRows stages the requested rows this device owns back to back in its
// comm.Stage, in the order they appear in the request.
func (m *Mat) packRows(rows []int32) []float32 {
	rlo, rhi := RowRange(H, m.Dev.P(), m.Dev.Rank, m.GlobalRows)
	owned := 0
	for _, r := range rows {
		if int(r) >= rlo && int(r) < rhi {
			owned++
		}
	}
	mine := m.Dev.Stage().Floats(owned * m.GlobalCols)[:0]
	for _, r := range rows {
		if int(r) >= rlo && int(r) < rhi {
			mine = append(mine, m.Local.Row(int(r)-rlo)...)
		}
	}
	return mine
}

// placeRows copies the rows owner s packed for the request into their
// request-order places in out: walking the request once reads s's buffer
// front to back. It reports false when buf holds fewer rows than s owns
// of the request.
func (m *Mat) placeRows(out *tensor.Dense, rows []int32, s int, buf []float32) bool {
	w := m.GlobalCols
	lo, hi := RowRange(H, m.Dev.P(), s, m.GlobalRows)
	at := 0
	for i, r := range rows {
		if int(r) < lo || int(r) >= hi {
			continue
		}
		if at+w > len(buf) {
			return false
		}
		copy(out.Row(i), buf[at:at+w])
		at += w
	}
	return true
}

// Assemble reconstructs the global matrix from all devices' Mats without
// touching the fabric. For tests and result collection only.
func Assemble(mats []*Mat) *tensor.Dense {
	if len(mats) == 0 {
		return tensor.NewDense(0, 0)
	}
	p := len(mats)
	rows, cols := mats[0].GlobalRows, mats[0].GlobalCols
	out := tensor.NewDense(rows, cols)
	for _, m := range mats {
		l := m.Layout.normalize(p)
		rlo, rhi := RowRange(l, p, m.Dev.Rank, rows)
		clo, chi := ColRange(l, p, m.Dev.Rank, cols)
		for i := rlo; i < rhi; i++ {
			copy(out.Row(i)[clo:chi], m.Local.Row(i-rlo))
		}
	}
	return out
}
