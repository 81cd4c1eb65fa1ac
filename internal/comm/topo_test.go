package comm

import (
	"testing"

	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

func spec(t *testing.T, s string, p int) *topo.Topology {
	t.Helper()
	sp, err := topo.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return sp.MustTopology(p)
}

// runMixed drives one representative collective of every kind on a
// world-sized group and returns the fabric for meter inspection.
func runMixed(p int, model *hw.Model, tp *topo.Topology) *Fabric {
	f := NewFabric(p, model)
	f.SetTopology(tp)
	f.Run(func(d *Device) {
		w := d.World()
		buf := make([]float32, 64)
		for i := range buf {
			buf[i] = float32(d.Rank + i)
		}
		d.AllReduceSum(w, buf)
		d.AllGatherFlat(w, buf[:16+d.Rank], nil) // ragged chunks
		var root []float32
		if d.Rank == 0 {
			root = buf[:32]
		}
		d.Broadcast(w, 0, root)
		parts := make([][]float32, p)
		for j := range parts {
			parts[j] = make([]float32, 4*(1+(d.Rank+j)%3))
		}
		d.AllToAll(w, parts)
		counts := make([]int, p)
		total := 0
		for i := range counts {
			counts[i] = 8 + i
			total += counts[i]
		}
		d.ReduceScatterSum(w, make([]float32, total), counts)
		d.Barrier(w)
	})
	return f
}

// TestFlatTopologyBitIdentical is the backward-compat oracle at the
// fabric level: attaching topo.Flat built from the fabric's own model
// must leave every clock, volume, call count, and per-kind meter
// bit-identical to the legacy (nil-topology) path, with all traffic on
// tier 0.
func TestFlatTopologyBitIdentical(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		legacy := runMixed(p, hw.A6000(), nil)
		flat := runMixed(p, hw.A6000(), topo.Flat(p, hw.A6000()))
		if legacy.MaxClock() != flat.MaxClock() {
			t.Fatalf("p=%d: flat topology clock %v != legacy %v (diff %g)",
				p, flat.MaxClock(), legacy.MaxClock(), flat.MaxClock()-legacy.MaxClock())
		}
		// The legacy fabric books every byte on tier 0, so equal censuses
		// also pin the flat topology's tier split.
		if lm, fm := legacy.Meters(), flat.Meters(); lm != fm {
			t.Fatalf("p=%d: flat topology census %+v != legacy %+v", p, fm, lm)
		}
		for r := 0; r < p; r++ {
			lc, fc := legacy.Device(r).Clock(), flat.Device(r).Clock()
			if lc != fc {
				t.Fatalf("p=%d rank %d: clock %v != legacy %v", p, r, fc, lc)
			}
		}
	}
}

// TestFlatTopologyBitIdenticalDegraded extends the flat-parity contract
// to link-fault degradation: worst-multiplier pricing must match the
// legacy linkModel path bit-for-bit through a topology too.
func TestFlatTopologyBitIdenticalDegraded(t *testing.T) {
	build := func(tp *topo.Topology) *Fabric {
		f := NewFabric(4, hw.A6000())
		f.SetTopology(tp)
		f.SetLinkFault(2, 3.5, 1.75)
		f.Run(func(d *Device) {
			d.AllReduceSum(d.World(), make([]float32, 256))
			d.AllGatherFlat(d.World(), make([]float32, 64), nil)
			d.Barrier(d.World())
		})
		return f
	}
	legacy := build(nil)
	flat := build(topo.Flat(4, hw.A6000()))
	if legacy.MaxClock() != flat.MaxClock() {
		t.Fatalf("degraded flat clock %v != legacy %v", flat.MaxClock(), legacy.MaxClock())
	}
	if legacy.TotalVolume() != flat.TotalVolume() {
		t.Fatalf("degraded flat volume %d != legacy %d", flat.TotalVolume(), legacy.TotalVolume())
	}
}

// TestMeteredTiersMatchModel is the end-to-end meter oracle on a
// two-tier topology: for every collective kind, the fabric's per-tier
// byte meters and the clock advance must equal the topo cost model's
// prediction exactly — same inputs, same functions, zero drift.
func TestMeteredTiersMatchModel(t *testing.T) {
	h := hw.A6000()
	tp := spec(t, "4x2:nvlink,ib", 8)
	p := 8
	w := world(p)

	type pred struct {
		kind hw.CollectiveKind
		cost topo.Cost
	}
	var preds []pred

	elems := 300
	_, arCost := tp.AllReduce(h, topo.Auto, w, int64(elems)*4)
	preds = append(preds, pred{hw.OpAllReduce, arCost})

	chunks := make([]int64, p)
	for i := range chunks {
		chunks[i] = int64(4 * (16 + i))
	}
	_, agCost := tp.AllGather(h, topo.Auto, w, chunks)
	preds = append(preds, pred{hw.OpAllGather, agCost})

	bcCost := tp.Broadcast(h, w, 1, 128*4)
	preds = append(preds, pred{hw.OpBroadcast, bcCost})

	pair := func(i, j int) int64 { return int64(4 * (1 + (i+2*j)%4)) }
	_, a2aCost := tp.AllToAll(h, topo.Auto, w, pair)
	preds = append(preds, pred{hw.OpAllToAll, a2aCost})

	counts := make([]int, p)
	cb := make([]int64, p)
	total := 0
	for i := range counts {
		counts[i] = 8 + 2*i
		cb[i] = int64(counts[i]) * 4
		total += counts[i]
	}
	_, rsCost := tp.ReduceScatter(h, topo.Auto, w, cb)
	preds = append(preds, pred{hw.OpReduceScatter, rsCost})

	f := NewFabric(p, h)
	f.SetTopology(tp)
	f.Run(func(d *Device) {
		d.AllReduceSum(d.World(), make([]float32, elems))
		d.AllGatherFlat(d.World(), make([]float32, 16+d.Rank), nil)
		var root []float32
		if d.Rank == 1 {
			root = make([]float32, 128)
		}
		d.Broadcast(d.World(), 1, root)
		parts := make([][]float32, p)
		for j := range parts {
			parts[j] = make([]float32, pair(d.Rank, j)/4)
		}
		d.AllToAll(d.World(), parts)
		d.ReduceScatterSum(d.World(), make([]float32, total), counts)
	})

	clock := 0.0
	for _, pr := range preds {
		clock += pr.cost.Time
		if got := f.Meters().Volume[pr.kind]; got != pr.cost.Bytes() {
			t.Errorf("%v: metered %d bytes, model predicts %d", pr.kind, got, pr.cost.Bytes())
		}
		if got := f.Meters().TierVolume[topo.TierInter][pr.kind]; got != pr.cost.Tier[topo.TierInter] {
			t.Errorf("%v: tier-1 meter %d, model predicts %d", pr.kind, got, pr.cost.Tier[topo.TierInter])
		}
		if got := f.Meters().TierVolume[topo.TierIntra][pr.kind]; got != pr.cost.Tier[topo.TierIntra] {
			t.Errorf("%v: tier-0 meter %d, model predicts %d", pr.kind, got, pr.cost.Tier[topo.TierIntra])
		}
	}
	if f.MaxClock() != clock {
		t.Errorf("fabric clock %v != summed model time %v (diff %g)",
			f.MaxClock(), clock, f.MaxClock()-clock)
	}
}

// TestTopologyRejectsSmallCoverage: a topology that cannot address
// every rank must be refused up front.
func TestTopologyRejectsSmallCoverage(t *testing.T) {
	f := NewFabric(8, hw.A6000())
	defer func() {
		if recover() == nil {
			t.Fatal("SetTopology must reject a 4-device topology on an 8-device fabric")
		}
	}()
	f.SetTopology(spec(t, "2x2:nvlink,ib", 4))
}
