package comm

import (
	"testing"

	"gnnrdm/internal/hw"
	"gnnrdm/internal/trace"
)

func TestDisabledTracerZeroAlloc(t *testing.T) {
	f := NewFabric(1, hw.A6000())
	d := f.Device(0)
	allocs := testing.AllocsPerRun(100, func() {
		d.ChargeGemm(16, 16, 16)
		d.ChargeSpMM(1000, 16)
		d.ChargeMem(4096)
		d.TraceSetEpoch(1)
		d.TraceSetLayer(1)
		d.TraceSetDir("fwd")
		d.TraceBeginPhase("epoch")
		d.TraceEndPhase()
	})
	if allocs != 0 {
		t.Errorf("disabled tracer allocates %.1f per op batch, want 0", allocs)
	}
}

func TestCollectiveEventsMatchDeviceCounters(t *testing.T) {
	tr := trace.NewTracer(0)
	f := NewFabric(4, hw.A6000())
	f.SetTracer(tr, "counters")
	f.Run(func(d *Device) {
		d.ChargeGemm(32, 16, 8)
		d.ChargeSpMM(500, 16)
		d.ChargeMem(1 << 12)
		d.AllReduceSum(d.World(), make([]float32, 64))
		if d.Rank < 2 {
			d.AllGatherFlat([]int{0, 1}, make([]float32, 32), nil)
		} else {
			d.AllGatherFlat([]int{2, 3}, make([]float32, 32), nil)
		}
		parts := make([][]float32, d.P())
		for q := range parts {
			parts[q] = make([]float32, 8)
		}
		d.AllToAll(d.World(), parts)
		d.Barrier(d.World())
	})
	sum := trace.Summarize(tr)
	if len(sum.Sessions) != 1 {
		t.Fatalf("got %d sessions", len(sum.Sessions))
	}
	ss := sum.Sessions[0]
	const tol = 1e-12
	for r := 0; r < 4; r++ {
		d := f.Device(r)
		rt := ss.Ranks[r]
		if diff := rt.CommTime - d.CommTime(); diff > tol || diff < -tol {
			t.Errorf("rank %d comm: trace %v vs device %v", r, rt.CommTime, d.CommTime())
		}
		if diff := rt.ComputeTime - d.ComputeTime(); diff > tol || diff < -tol {
			t.Errorf("rank %d compute: trace %v vs device %v", r, rt.ComputeTime, d.ComputeTime())
		}
		if rt.Dropped != 0 {
			t.Errorf("rank %d dropped %d events", r, rt.Dropped)
		}
	}
	if ss.MaxClock != f.MaxClock() {
		t.Errorf("trace makespan %v vs fabric MaxClock %v", ss.MaxClock, f.MaxClock())
	}
	// Every participant's event carries the occurrence's metered volume;
	// deduplicating by (op, group, seq) reproduces the fabric's volume
	// counters exactly.
	type occ struct {
		op, group string
		seq       uint64
	}
	seen := map[occ]bool{}
	var traced int64
	sess := tr.Sessions()[0]
	for r := 0; r < 4; r++ {
		for _, ev := range sess.Events(r) {
			if ev.Class != trace.ClassCollective {
				continue
			}
			k := occ{op: ev.Op, group: ev.Group, seq: ev.Seq}
			if seen[k] {
				continue
			}
			seen[k] = true
			traced += ev.Bytes
		}
	}
	if traced != f.TotalVolume() {
		t.Errorf("traced collective bytes %d vs fabric volume %d", traced, f.TotalVolume())
	}
}
