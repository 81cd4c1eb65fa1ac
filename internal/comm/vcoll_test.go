package comm

import (
	"errors"
	"testing"

	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// ragged parts for rank r in a P-rank world: r sends r+j+1 elements to
// rank j (self part included but never metered).
func raggedParts(r, p int) ([][]float32, []int) {
	parts := make([][]float32, p)
	counts := make([]int, p)
	for j := range parts {
		n := r + j + 1
		buf := make([]float32, n)
		for k := range buf {
			buf[k] = float32(100*r + 10*j + k)
		}
		parts[j] = buf
		counts[j] = n
	}
	return parts, counts
}

func TestAllToAllVDataAndCounts(t *testing.T) {
	const p = 4
	f := NewFabric(p, hw.A6000())
	f.Run(func(d *Device) {
		parts, counts := raggedParts(d.Rank, p)
		out, recv, err := d.TryAllToAllV(d.World(), parts, counts)
		if err != nil {
			t.Errorf("rank %d: %v", d.Rank, err)
			return
		}
		for i := 0; i < p; i++ {
			want := i + d.Rank + 1 // what rank i sends to me
			if recv[i] != want || len(out[i]) != want {
				t.Errorf("rank %d: recv[%d]=%d len=%d, want %d", d.Rank, i, recv[i], len(out[i]), want)
				return
			}
			for k, v := range out[i] {
				if v != float32(100*i+10*d.Rank+k) {
					t.Errorf("rank %d: out[%d][%d]=%v", d.Rank, i, k, v)
					return
				}
			}
		}
	})
	// Conservation: on a flat fabric the metered volume is the sum of
	// every rank's cross-pair bytes.
	var sum int64
	for r := 0; r < p; r++ {
		for j := 0; j < p; j++ {
			if j != r {
				sum += int64(r+j+1) * 4
			}
		}
	}
	if got := f.Meters().Volume[hw.OpAllToAll]; got != sum {
		t.Fatalf("metered alltoall volume %d, rank census sums to %d", got, sum)
	}
}

func TestAllGatherVDataCountsAndCensus(t *testing.T) {
	const p = 4
	f := NewFabric(p, hw.A6000())
	f.Run(func(d *Device) {
		local := make([]float32, d.Rank+1)
		for k := range local {
			local[k] = float32(10*d.Rank + k)
		}
		out, recv, err := d.TryAllGatherV(d.World(), local, len(local))
		if err != nil {
			t.Errorf("rank %d: %v", d.Rank, err)
			return
		}
		for i := 0; i < p; i++ {
			if recv[i] != i+1 || len(out[i]) != i+1 {
				t.Errorf("rank %d: recv[%d]=%d len=%d, want %d", d.Rank, i, recv[i], len(out[i]), i+1)
				return
			}
			for k, v := range out[i] {
				if v != float32(10*i+k) {
					t.Errorf("rank %d: out[%d][%d]=%v", d.Rank, i, k, v)
					return
				}
			}
		}
	})
	// Each rank's chunk reaches every peer once.
	var want int64
	for r := 0; r < p; r++ {
		want += int64(r+1) * 4 * int64(p-1)
	}
	if got := f.Meters().Volume[hw.OpAllGather]; got != want {
		t.Fatalf("metered allgather volume %d, want %d", got, want)
	}
}

// TestVCollectivesMatchDenseMeters pins the V-paths to the dense
// collectives: the same buffers moved through TryAllToAll /
// TryAllGather must produce identical volumes, call counts, and clocks
// — the V-variants add count validation, never a
// different price.
func TestVCollectivesMatchDenseMeters(t *testing.T) {
	const p = 4
	run := func(v bool) (*Fabric, float64) {
		f := NewFabric(p, hw.A6000())
		f.Run(func(d *Device) {
			parts, counts := raggedParts(d.Rank, p)
			local := parts[0]
			if v {
				d.AllToAllV(d.World(), parts, counts)
				d.AllGatherV(d.World(), local, len(local))
			} else {
				d.AllToAll(d.World(), parts)
				d.AllGather(d.World(), local)
			}
		})
		return f, f.MaxClock()
	}
	fv, cv := run(true)
	fd, cd := run(false)
	if cv != cd {
		t.Fatalf("V clock %v != dense clock %v", cv, cd)
	}
	if mv, md := fv.Meters(), fd.Meters(); mv != md {
		t.Fatalf("V census %+v != dense %+v", mv, md)
	}
}

// TestVCollectivesTopoTiers runs the V-paths on a hierarchical topology
// and checks the tier split is populated and consistent.
func TestVCollectivesTopoTiers(t *testing.T) {
	const p = 8
	spec, err := topo.ParseSpec("4x2:nvlink,ib")
	if err != nil {
		t.Fatal(err)
	}
	fh := NewFabric(p, hw.A6000())
	fh.SetTopology(spec.MustTopology(p))
	fh.Run(func(d *Device) {
		parts, counts := raggedParts(d.Rank, p)
		d.AllToAllV(d.World(), parts, counts)
	})
	m := fh.Meters()
	if m.TierVolume[topo.TierInter][hw.OpAllToAll] == 0 {
		t.Fatal("hierarchical alltoallv moved no inter-node bytes")
	}
	sum := m.TierVolume[topo.TierIntra][hw.OpAllToAll] + m.TierVolume[topo.TierInter][hw.OpAllToAll]
	if sum != m.Volume[hw.OpAllToAll] {
		t.Fatalf("tier split %d != volume %d", sum, m.Volume[hw.OpAllToAll])
	}
}

func TestAllToAllVCountMismatch(t *testing.T) {
	const p = 2
	f := NewFabric(p, hw.A6000())
	f.Run(func(d *Device) {
		parts, counts := raggedParts(d.Rank, p)
		counts[1]++ // advertise a lie
		_, _, err := d.TryAllToAllV(d.World(), parts, counts)
		if !errors.Is(err, ErrCountMismatch) {
			t.Errorf("rank %d: got %v, want ErrCountMismatch", d.Rank, err)
		}
	})
	if f.Calls(hw.OpAllToAll) != 0 {
		t.Fatal("rejected round was metered")
	}
}

func TestAllGatherVCountMismatch(t *testing.T) {
	f := NewFabric(1, hw.A6000())
	f.Run(func(d *Device) {
		_, _, err := d.TryAllGatherV(d.World(), make([]float32, 3), 4)
		if !errors.Is(err, ErrCountMismatch) {
			t.Errorf("got %v, want ErrCountMismatch", err)
		}
	})
}

// TestAllToAllVNilPartsCooperative: a nil parts slice is delivered
// cooperatively to every member, exactly like the dense path.
func TestAllToAllVNilPartsCooperative(t *testing.T) {
	const p = 2
	f := NewFabric(p, hw.A6000())
	f.Run(func(d *Device) {
		var parts [][]float32
		var counts []int
		if d.Rank != 0 {
			parts, counts = raggedParts(d.Rank, p)
		}
		_, _, err := d.TryAllToAllV(d.World(), parts, counts)
		if !errors.Is(err, ErrNilBuffer) {
			t.Errorf("rank %d: got %v, want ErrNilBuffer", d.Rank, err)
		}
	})
}

// TestAllToAllVPeerDead: deadline/fault semantics match the dense
// collectives — a dead peer surfaces as a FaultError wrapping
// ErrPeerDead on every survivor, with the collective deadline charged.
func TestAllToAllVPeerDead(t *testing.T) {
	const p = 2
	f := NewFabric(p, hw.A6000())
	f.Run(func(d *Device) {
		if d.Rank == 1 {
			return // exits immediately: departed rank
		}
		parts, counts := raggedParts(d.Rank, p)
		_, _, err := d.TryAllToAllV(d.World(), parts, counts)
		if !errors.Is(err, ErrPeerDead) {
			t.Errorf("rank %d: got %v, want ErrPeerDead", d.Rank, err)
		}
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Errorf("rank %d: error %v is not a *FaultError", d.Rank, err)
		}
		if d.Clock() < DefaultCollectiveDeadline {
			t.Errorf("rank %d: clock %v < deadline charge", d.Rank, d.Clock())
		}
	})
}
