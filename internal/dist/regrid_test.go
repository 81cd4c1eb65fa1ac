package dist

// The two-copy regrid pinned to the three-copy one it replaced. The old
// implementation — per-part buffers built with append, private receive
// copies from the copying AllToAll, merge into a fresh zeroed tile, masks
// through the packMask / unpackMask slice forms — is kept here as the
// oracle, the way PR 18 kept the naive kernels, and the new one must
// agree with it bit for bit in everything observable: the resulting tile,
// the words on the wire, the metered bytes, the ChargeMem totals and the
// trace events.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/tensor"
	"gnnrdm/internal/trace"
)

// packMask packs four 0/1 float values per output float32 (one byte
// each).
func packMask(vals []float32) []float32 {
	out := make([]float32, (len(vals)+3)/4)
	for i, v := range vals {
		if v != 0 {
			word := i / 4
			shift := uint(i%4) * 8
			bits := math.Float32bits(out[word]) | 1<<shift
			out[word] = math.Float32frombits(bits)
		}
	}
	return out
}

// unpackMask reverses packMask given the original element count.
func unpackMask(packed []float32, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		bits := math.Float32bits(packed[i/4])
		if bits>>(uint(i%4)*8)&0xff != 0 {
			out[i] = 1
		}
	}
	return out
}

// regridThreeCopy is regrid as it stood before the two-copy rewrite.
func (m *Mat) regridThreeCopy(srcPJ, dstPJ int, pack func([]float32) []float32, unpack func([]float32, int) []float32) *Mat {
	dev := m.Dev
	dev.TraceBeginPhase("redistribute")
	defer dev.TraceEndPhase()
	p := dev.P()
	rows, cols := m.GlobalRows, m.GlobalCols
	srcL := G(srcPJ).normalize(p)
	dstL := G(dstPJ).normalize(p)

	myRlo, _ := RowRange(srcL, p, dev.Rank, rows)
	myClo, _ := ColRange(srcL, p, dev.Rank, cols)

	parts := make([][]float32, p)
	var divideBytes int64
	for s := 0; s < p; s++ {
		trlo, trhi := RowRange(dstL, p, s, rows)
		tclo, tchi := ColRange(dstL, p, s, cols)
		rlo, rhi := max(trlo, myRlo), min(trhi, myRlo+m.Local.Rows)
		clo, chi := max(tclo, myClo), min(tchi, myClo+m.Local.Cols)
		if rlo >= rhi || clo >= chi {
			parts[s] = nil
			continue
		}
		sub := make([]float32, 0, (rhi-rlo)*(chi-clo))
		for i := rlo; i < rhi; i++ {
			row := m.Local.Row(i - myRlo)
			sub = append(sub, row[clo-myClo:chi-myClo]...)
		}
		if pack != nil {
			sub = pack(sub)
		}
		parts[s] = sub
		if s != dev.Rank {
			divideBytes += int64(len(sub)) * 4
		}
	}
	dev.ChargeMem(divideBytes)

	recv := dev.AllToAll(dev.World(), parts)

	out := NewMat(dev, dstL, rows, cols)
	nrlo, _ := RowRange(dstL, p, dev.Rank, rows)
	nclo, _ := ColRange(dstL, p, dev.Rank, cols)
	var mergeBytes int64
	for s := 0; s < p; s++ {
		buf := recv[s]
		if len(buf) == 0 {
			continue
		}
		srlo, srhi := RowRange(srcL, p, s, rows)
		sclo, schi := ColRange(srcL, p, s, cols)
		rlo, rhi := max(nrlo, srlo), min(nrlo+out.Local.Rows, srhi)
		clo, chi := max(nclo, sclo), min(nclo+out.Local.Cols, schi)
		if rlo >= rhi || clo >= chi {
			panic(fmt.Sprintf("dist: regrid received %d elements from %d with empty intersection", len(buf), s))
		}
		w := chi - clo
		n := (rhi - rlo) * w
		if s != dev.Rank {
			mergeBytes += int64(len(buf)) * 4
		}
		if unpack != nil {
			buf = unpack(buf, n)
		}
		if n != len(buf) {
			panic(fmt.Sprintf("dist: regrid merge size mismatch from %d: %d vs %d", s, n, len(buf)))
		}
		for i := rlo; i < rhi; i++ {
			dst := out.Local.Row(i - nrlo)
			copy(dst[clo-nclo:chi-nclo], buf[(i-rlo)*w:(i-rlo+1)*w])
		}
	}
	dev.ChargeMem(mergeBytes)
	return out
}

// wireTap is a fault hook that only listens: it folds every word
// deposited in a round, in group-position and part order with the part
// lengths, into a checksum — what a seeded bit-flip would index into.
type wireTap struct{ sums []uint32 }

func (*wireTap) BeforeCollective(*comm.Device, string) {}

func (w *wireTap) OnRound(_ *comm.Device, _ string, _ []int, _ uint64, slots []any) error {
	h := crc32.NewIEEE()
	var b [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	for _, s := range slots {
		parts, _ := s.([][]float32)
		for _, part := range parts {
			put(uint32(len(part)))
			for _, v := range part {
				put(math.Float32bits(v))
			}
		}
	}
	w.sums = append(w.sums, h.Sum32())
	return nil
}

// observed is everything a regrid leaves behind that anything can see.
type observed struct {
	wire                  []uint32 // one checksum per round of what was on the wire
	tiles                 []*tensor.Dense
	clock, comm, compute  []float64
	a2a, side, total      int64
	calls                 int64
	tier0, sideTier0      int64
	events                [][]trace.Event
	srcAfter              []*tensor.Dense // the source tiles once the call has returned
	reused, sharesWithSrc []bool          // did the result land in old's tile / in the source's storage
}

// oldMode is what a regrid is handed as its destination.
type oldMode int

const (
	oldNil      oldMode = iota // allocate
	oldDirty                   // right shape, every element NaN: all must be overwritten
	oldMisfit                  // wrong shape: fall back to a fresh tile
	oldAliasing                // right shape, the source's storage: fall back to a fresh tile
	numOldModes
)

func (o oldMode) String() string {
	return [...]string{"old=nil", "old=dirty", "old=misfit", "old=aliasing"}[o]
}

// observeRegrid distributes global in layout from and converts it to
// layout to on a traced p-device fabric, through the oracle or through
// regrid with the given destination mode.
func observeRegrid(p int, global *tensor.Dense, from, to Layout, packed, oracle bool, mode oldMode) observed {
	fab := comm.NewFabric(p, hw.A6000())
	tr := trace.NewTracer(0)
	fab.SetTracer(tr, "regrid")
	tap := &wireTap{}
	fab.SetFaultHook(tap)
	ob := observed{
		tiles: make([]*tensor.Dense, p), srcAfter: make([]*tensor.Dense, p),
		clock: make([]float64, p), comm: make([]float64, p), compute: make([]float64, p),
		events: make([][]trace.Event, p), reused: make([]bool, p), sharesWithSrc: make([]bool, p),
	}
	nan := float32(math.NaN())
	fab.Run(func(d *comm.Device) {
		m := Distribute(d, from, global)
		srcPJ, dstPJ := gridPJ(from.normalize(p), p), gridPJ(to.normalize(p), p)
		var out *Mat
		if oracle {
			if packed {
				d.SetSideChannel(true)
				out = m.regridThreeCopy(srcPJ, dstPJ, packMask, unpackMask)
				d.SetSideChannel(false)
			} else {
				out = m.regridThreeCopy(srcPJ, dstPJ, nil, nil)
			}
		} else {
			wr, wc := TileShape(to, p, d.Rank, global.Rows, global.Cols)
			var old *Mat
			switch mode {
			case oldDirty:
				old = NewMat(d, to, global.Rows, global.Cols)
				for i := range old.Local.Data {
					old.Local.Data[i] = nan
				}
			case oldMisfit:
				old = &Mat{Dev: d, GlobalRows: global.Rows, GlobalCols: global.Cols, Layout: to,
					Local: tensor.NewDense(wr+1, wc)}
				for i := range old.Local.Data {
					old.Local.Data[i] = nan
				}
			case oldAliasing:
				if len(m.Local.Data) >= wr*wc {
					old = &Mat{Dev: d, GlobalRows: global.Rows, GlobalCols: global.Cols, Layout: to,
						Local: tensor.FromRowMajor(wr, wc, m.Local.Data[:wr*wc])}
				}
			}
			if packed {
				out = m.RedistributeMaskInto(to, old)
			} else {
				out = m.RedistributeInto(to, old)
			}
			ob.reused[d.Rank] = old != nil && sameStorage(out.Local, old.Local)
			ob.sharesWithSrc[d.Rank] = sameStorage(out.Local, m.Local)
		}
		ob.tiles[d.Rank], ob.srcAfter[d.Rank] = out.Local, m.Local
		// (At P=1 every grid normalizes to H, so the label is G(dstPJ)'s,
		// not to's — as it always was.)
		if out.Layout != G(dstPJ).normalize(p) || out.GlobalRows != global.Rows || out.GlobalCols != global.Cols {
			panic(fmt.Sprintf("result is %v %dx%d", out.Layout, out.GlobalRows, out.GlobalCols))
		}
	})
	for r := 0; r < p; r++ {
		d := fab.Device(r)
		ob.clock[r], ob.comm[r], ob.compute[r] = d.Clock(), d.CommTime(), d.ComputeTime()
		ob.events[r] = tr.Sessions()[0].Events(r)
	}
	ob.wire = tap.sums
	ob.a2a, ob.side = fab.Meters().Volume[hw.OpAllToAll], fab.Meters().SideVolume[hw.OpAllToAll]
	ob.total, ob.calls = fab.TotalVolume(), fab.Calls(hw.OpAllToAll)
	ob.tier0, ob.sideTier0 = fab.Meters().TierVolume[0][hw.OpAllToAll], fab.Meters().SideTierVolume[0][hw.OpAllToAll]
	return ob
}

func sameBits(a, b *tensor.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// gridLayouts is {H, V, G(pj) for each proper divisor pj of p}.
func gridLayouts(p int) []Layout {
	ls := []Layout{H, V}
	for pj := 2; pj < p; pj++ {
		if p%pj == 0 {
			ls = append(ls, G(pj))
		}
	}
	return ls
}

func TestRegridMatchesThreeCopyOracle(t *testing.T) {
	// Rows and cols not divisible by P, cols < P, rows < P (empty tiles
	// on both sides), a single element, and one shape wide enough for the
	// copy-per-row case beside the narrow-row loop.
	shapes := [][2]int{{11, 7}, {13, 3}, {3, 10}, {1, 1}, {9, 41}}
	for p := 1; p <= 8; p++ {
		for _, from := range gridLayouts(p) {
			for _, to := range gridLayouts(p) {
				if from.normalize(p) == to.normalize(p) {
					continue
				}
				for _, sh := range shapes {
					for _, packed := range []bool{false, true} {
						global := tensor.NewDense(sh[0], sh[1])
						for i := range global.Data {
							global.Data[i] = float32(i + 1) // unique, never NaN
							if packed {
								global.Data[i] = float32((i*7 + i/3) % 2)
							}
						}
						want := observeRegrid(p, global, from, to, packed, true, oldNil)
						for mode := oldMode(0); mode < numOldModes; mode++ {
							name := fmt.Sprintf("P=%d %v->%v %dx%d packed=%v %v", p, from, to, sh[0], sh[1], packed, mode)
							got := observeRegrid(p, global, from, to, packed, false, mode)
							compareObserved(t, name, p, mode, want, got)
						}
					}
				}
			}
		}
	}
}

func compareObserved(t *testing.T, name string, p int, mode oldMode, want, got observed) {
	t.Helper()
	for r := 0; r < p; r++ {
		if !sameBits(want.tiles[r], got.tiles[r]) {
			t.Fatalf("%s: rank %d tile differs from the three-copy regrid's\nwant %v\ngot  %v",
				name, r, want.tiles[r].Data, got.tiles[r].Data)
		}
		if !sameBits(want.srcAfter[r], got.srcAfter[r]) {
			t.Fatalf("%s: rank %d source tile was written", name, r)
		}
		if want.clock[r] != got.clock[r] || want.comm[r] != got.comm[r] || want.compute[r] != got.compute[r] {
			t.Fatalf("%s: rank %d clock/comm/compute %v/%v/%v, oracle %v/%v/%v (ChargeMem totals moved)", name, r,
				got.clock[r], got.comm[r], got.compute[r], want.clock[r], want.comm[r], want.compute[r])
		}
		if !reflect.DeepEqual(want.events[r], got.events[r]) {
			t.Fatalf("%s: rank %d trace events differ\nwant %+v\ngot  %+v", name, r, want.events[r], got.events[r])
		}
		if got.sharesWithSrc[r] {
			t.Fatalf("%s: rank %d result shares the source tile's storage", name, r)
		}
		// A dirty tile of the right shape must be the one written; the
		// misfit and the aliasing one must be left alone. (Empty tiles
		// have no storage to compare.)
		if n := len(got.tiles[r].Data); n > 0 && got.reused[r] != (mode == oldDirty) {
			t.Fatalf("%s: rank %d reused old's tile = %v", name, r, got.reused[r])
		}
	}
	if !reflect.DeepEqual(want.wire, got.wire) {
		t.Fatalf("%s: the parts on the wire differ from the three-copy regrid's (order, lengths or packed words): %08x vs %08x",
			name, got.wire, want.wire)
	}
	if want.a2a != got.a2a || want.side != got.side || want.total != got.total || want.calls != got.calls ||
		want.tier0 != got.tier0 || want.sideTier0 != got.sideTier0 {
		t.Fatalf("%s: metered %d/%d/%d bytes in %d calls (tiers %d/%d), oracle %d/%d/%d in %d (%d/%d)", name,
			got.a2a, got.side, got.total, got.calls, got.tier0, got.sideTier0,
			want.a2a, want.side, want.total, want.calls, want.tier0, want.sideTier0)
	}
}

// The strided block copy at every width either side of narrowRow (its
// fixed-width forms and copy per row), h = 0 included, with both strides
// offset from the width, against the obvious double loop, in raw bits:
// NaN payloads (quiet and signalling, either sign), -0 and ±Inf must
// arrive unchanged, and the words around the block must not move.
func TestCopyBlockWidths(t *testing.T) {
	pattern := []uint32{
		0x7fc00001, 0xffa00003, 0x7f800001, 0x80000000, 0x7f800000, 0xff800000,
		0x00000001, 0x3f800000, 0xc0490fdb, 0x00000000,
	}
	const untouched = 0x7fbadbad // a signalling NaN no source word holds
	for w := 1; w <= 9; w++ {
		for _, h := range []int{0, 1, 2, 5} {
			for _, strides := range [][2]int{{w, w}, {w, w + 3}, {w + 2, w}, {w + 1, w + 4}} {
				ds, ss := strides[0], strides[1]
				src := make([]float32, h*ss+2)
				for i := range src {
					src[i] = math.Float32frombits(pattern[i%len(pattern)])
				}
				dst := make([]float32, h*ds+2)
				for i := range dst {
					dst[i] = math.Float32frombits(untouched)
				}
				copyBlock(dst[1:], ds, src[1:], ss, h, w)
				for i := range dst {
					want := uint32(untouched)
					if at := i - 1; at >= 0 && at/ds < h && at%ds < w {
						want = math.Float32bits(src[1+(at/ds)*ss+at%ds])
					}
					if got := math.Float32bits(dst[i]); got != want {
						t.Fatalf("w=%d h=%d ds=%d ss=%d: dst[%d] = %08x, want %08x", w, h, ds, ss, i, got, want)
					}
				}
			}
		}
	}
}

// packBlock / unpackBlock against the slice forms they replaced, and as a
// round trip into a dirty strided tile: every element of the block is
// written, nothing outside it is, and the wire words are the same bits in
// the same order.
func TestPackUnpackBlockWidths(t *testing.T) {
	nan := float32(math.NaN())
	for w := 1; w <= 9; w++ {
		for _, h := range []int{1, 3, 4} {
			for _, ss := range []int{w, w + 3} {
				src := make([]float32, h*ss)
				var flat []float32
				for i := 0; i < h; i++ {
					for j := 0; j < ss; j++ {
						src[i*ss+j] = float32((i*5 + j*3 + w) % 3 % 2)
						if j < w {
							flat = append(flat, src[i*ss+j])
						}
					}
				}
				want := packMask(flat)
				words := make([]float32, len(want))
				for i := range words {
					words[i] = nan // a reused staging buffer arrives dirty
				}
				packBlock(words, src, ss, h, w)
				for i := range want {
					if math.Float32bits(words[i]) != math.Float32bits(want[i]) {
						t.Fatalf("w=%d h=%d ss=%d: word %d = %08x, packMask %08x", w, h, ss, i,
							math.Float32bits(words[i]), math.Float32bits(want[i]))
					}
				}
				ds := w + 2
				dst := make([]float32, h*ds)
				for i := range dst {
					dst[i] = nan
				}
				unpackBlock(dst, ds, words, h, w)
				back := unpackMask(want, h*w)
				for i := range dst {
					if r, c := i/ds, i%ds; c < w {
						if dst[i] != back[r*w+c] || dst[i] != flat[r*w+c] {
							t.Fatalf("w=%d h=%d: unpacked (%d,%d) = %v, want %v", w, h, r, c, dst[i], flat[r*w+c])
						}
					} else if !math.IsNaN(float64(dst[i])) {
						t.Fatalf("w=%d h=%d: unpackBlock wrote outside the block at (%d,%d)", w, h, r, c)
					}
				}
			}
		}
	}
}

// flipFirstPart is a fault hook that flips a mantissa bit of the first
// element of the first non-empty part deposited in an all-to-all, once.
type flipFirstPart struct{ fired bool }

func (h *flipFirstPart) BeforeCollective(*comm.Device, string) {}

func (h *flipFirstPart) OnRound(_ *comm.Device, op string, _ []int, _ uint64, slots []any) error {
	if h.fired || op != "alltoall" {
		return nil
	}
	for _, s := range slots {
		parts, _ := s.([][]float32)
		for _, part := range parts {
			if len(part) > 0 {
				part[0] = math.Float32frombits(math.Float32bits(part[0]) ^ 1<<20)
				h.fired = true
				return nil
			}
		}
	}
	return nil
}

// A bit flipped in a staged part: with the CRC channel on, the fabric
// restores the staging buffer, the retry retransmits it (it is still
// deposited — the device restages only after the collective returns) and
// the result equals the fault-free one; with it off the flip lands in
// exactly one element of the result.
func TestRegridStagedPartSurvivesCRCRetry(t *testing.T) {
	const p, rows, cols = 4, 13, 6
	global := tensor.NewDense(rows, cols)
	for i := range global.Data {
		global.Data[i] = float32(i + 1)
	}
	run := func(crc bool) (*tensor.Dense, *flipFirstPart) {
		fab := comm.NewFabric(p, hw.A6000())
		hook := &flipFirstPart{}
		fab.SetFaultHook(hook)
		fab.EnableCRC(crc)
		fab.SetRetryPolicy(comm.RetryPolicy{Max: 1, Backoff: 10e-6, Multiplier: 1})
		mats := make([]*Mat, p)
		fab.Run(func(d *comm.Device) {
			mats[d.Rank] = Distribute(d, H, global).Redistribute(V)
		})
		return Assemble(mats), hook
	}
	clean, hook := run(true)
	if !hook.fired {
		t.Fatal("the hook never saw a staged part")
	}
	if !sameBits(clean, global) {
		t.Fatalf("CRC-retried regrid differs from the fault-free result: %v", clean.Data)
	}
	dirty, _ := run(false)
	diff := 0
	for i := range dirty.Data {
		if dirty.Data[i] != global.Data[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("without CRC the flip should land in exactly one element, %d differ", diff)
	}
}

// killAtExchange crashes one rank as it enters the all-to-all.
type killAtExchange struct{ victim int }

func (h killAtExchange) BeforeCollective(d *comm.Device, op string) {
	if d.Rank == h.victim && op == "alltoall" {
		panic(comm.Killed{Rank: d.Rank, Reason: "scheduled crash mid-regrid"})
	}
}
func (killAtExchange) OnRound(*comm.Device, string, []int, uint64, []any) error { return nil }

// A staging buffer is not reused while a round can still read it. First
// the contract regrid leans on, at its sharpest: each device stages round
// k's part in its comm.Stage, one receiver reads slowly, and the senders
// restage round k+1 the moment their collective returns — the slow reader
// must still see round k in every part. Then a peer that dies between
// divide and exchange: the survivors' regrid surfaces a *comm.FaultError,
// no goroutine is left parked in the abandoned round, and the same
// devices' next regrid reuses their staging buffers and lands the
// fault-free result.
func TestRegridStageNotReusedWhileRoundCanRead(t *testing.T) {
	const p, rounds, slow = 3, 20, 2
	fab := comm.NewFabric(p, hw.A6000())
	var seen [p][]float32 // per rank: the first value of each part read
	fab.Run(func(d *comm.Device) {
		for k := 0; k < rounds; k++ {
			st := d.Stage()
			buf := st.Floats(p * 64)
			for i := range buf {
				buf[i] = float32(k)
			}
			parts := st.Parts(p)
			for s := range parts {
				parts[s] = buf[s*64 : (s+1)*64]
			}
			err := d.TryAllToAllRecv(d.World(), parts, func(_ int, part []float32) {
				if d.Rank == slow {
					time.Sleep(200 * time.Microsecond)
				}
				for _, v := range part {
					if v != float32(k) {
						seen[d.Rank] = append(seen[d.Rank], v)
						return
					}
				}
				seen[d.Rank] = append(seen[d.Rank], float32(k))
			})
			if err != nil {
				panic(err)
			}
		}
	})
	for r := range seen {
		for i, v := range seen[r] {
			if k := i / p; v != float32(k) {
				t.Fatalf("rank %d read %v in round %d: a sender restaged its buffer while the round could still read it", r, v, k)
			}
		}
	}

	const rows, cols, marker = 12, 5, 12345
	global := tensor.NewDense(rows, cols)
	for i := range global.Data {
		global.Data[i] = marker
	}
	fab = comm.NewFabric(p, hw.A6000())
	fab.SetFaultHook(killAtExchange{victim: 1})
	before := runtime.NumGoroutine()
	failures := make([]any, p)
	fab.Run(func(d *comm.Device) {
		defer func() {
			failures[d.Rank] = recover()
			if _, killed := failures[d.Rank].(comm.Killed); killed {
				panic(failures[d.Rank]) // the crash is Run's to contain
			}
		}()
		Distribute(d, H, global).Redistribute(V)
	})
	for r, rec := range failures {
		if r == 1 {
			continue
		}
		err, _ := rec.(error)
		var fe *comm.FaultError
		if !errors.As(err, &fe) || !errors.Is(err, comm.ErrPeerDead) {
			t.Fatalf("rank %d: regrid raised %v, want a *comm.FaultError wrapping ErrPeerDead", r, rec)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before the crashed regrid, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
	fab.SetFaultHook(nil)
	mats := make([]*Mat, p)
	staged := make([]*float32, p)
	fab.Run(func(d *comm.Device) {
		staged[d.Rank] = &d.Stage().Floats(1)[0]
		mats[d.Rank] = Distribute(d, H, global).Redistribute(V)
	})
	if !sameBits(Assemble(mats), global) {
		t.Fatal("regrid after an abandoned round differs from the fault-free result")
	}
	for r := range staged {
		if r != 1 && staged[r] != &fab.Device(r).Stage().Floats(1)[0] {
			t.Fatalf("rank %d re-allocated its staging buffer instead of reusing it", r)
		}
	}
}
