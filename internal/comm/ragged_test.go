package comm

import (
	"errors"
	"testing"

	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// Ragged (variable-volume, the V of the test names) buffers through the
// dense collectives: AllToAll parts and AllGatherFlat contributions may
// differ in length per member, and the meters price the actual bytes.

// raggedParts returns rank r's parts in a P-rank world: r sends r+j+1
// elements to rank j (self part included but never metered).
func raggedParts(r, p int) [][]float32 {
	parts := make([][]float32, p)
	for j := range parts {
		buf := make([]float32, r+j+1)
		for k := range buf {
			buf[k] = float32(100*r + 10*j + k)
		}
		parts[j] = buf
	}
	return parts
}

func TestAllToAllVDataAndCounts(t *testing.T) {
	const p = 4
	f := NewFabric(p, hw.A6000())
	f.Run(func(d *Device) {
		out, err := d.TryAllToAll(d.World(), raggedParts(d.Rank, p))
		if err != nil {
			t.Errorf("rank %d: %v", d.Rank, err)
			return
		}
		for i := 0; i < p; i++ {
			want := i + d.Rank + 1 // what rank i sends to me
			if len(out[i]) != want {
				t.Errorf("rank %d: len(out[%d])=%d, want %d", d.Rank, i, len(out[i]), want)
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
		out, err := d.TryAllGatherFlat(d.World(), local, nil)
		if err != nil {
			t.Errorf("rank %d: %v", d.Rank, err)
			return
		}
		if len(out) != p*(p+1)/2 {
			t.Errorf("rank %d: gathered %d elements, want %d", d.Rank, len(out), p*(p+1)/2)
			return
		}
		// Member i's i+1 elements follow members 0..i-1's.
		at := 0
		for i := 0; i < p; i++ {
			for k := 0; k <= i; k++ {
				if out[at] != float32(10*i+k) {
					t.Errorf("rank %d: member %d element %d = %v", d.Rank, i, k, out[at])
					return
				}
				at++
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

// TestVCollectivesTopoTiers runs ragged all-to-all and all-gather rounds
// on a hierarchical topology and checks each one's tier split is
// populated and sums to its volume.
func TestVCollectivesTopoTiers(t *testing.T) {
	const p = 8
	spec, err := topo.ParseSpec("4x2:nvlink,ib")
	if err != nil {
		t.Fatal(err)
	}
	fh := NewFabric(p, hw.A6000())
	fh.SetTopology(spec.MustTopology(p))
	fh.Run(func(d *Device) {
		parts := raggedParts(d.Rank, p)
		d.AllToAll(d.World(), parts)
		d.AllGatherFlat(d.World(), parts[0], nil)
	})
	m := fh.Meters()
	for _, op := range []hw.CollectiveKind{hw.OpAllToAll, hw.OpAllGather} {
		if m.TierVolume[topo.TierInter][op] == 0 {
			t.Fatalf("hierarchical ragged %v moved no inter-node bytes", op)
		}
		sum := m.TierVolume[topo.TierIntra][op] + m.TierVolume[topo.TierInter][op]
		if sum != m.Volume[op] {
			t.Fatalf("%v: tier split %d != volume %d", op, sum, m.Volume[op])
		}
	}
}

// TestAllToAllVNilPartsCooperative: a nil parts slice beside ragged
// ones is delivered cooperatively to every member.
func TestAllToAllVNilPartsCooperative(t *testing.T) {
	const p = 2
	f := NewFabric(p, hw.A6000())
	f.Run(func(d *Device) {
		var parts [][]float32
		if d.Rank != 0 {
			parts = raggedParts(d.Rank, p)
		}
		_, err := d.TryAllToAll(d.World(), parts)
		if !errors.Is(err, ErrNilBuffer) {
			t.Errorf("rank %d: got %v, want ErrNilBuffer", d.Rank, err)
		}
	})
}

// TestAllToAllVPeerDead: a dead peer fails a ragged all-to-all as a
// FaultError wrapping ErrPeerDead on every survivor, with the
// collective deadline charged.
func TestAllToAllVPeerDead(t *testing.T) {
	const p = 2
	f := NewFabric(p, hw.A6000())
	f.Run(func(d *Device) {
		if d.Rank == 1 {
			return // exits immediately: departed rank
		}
		_, err := d.TryAllToAll(d.World(), raggedParts(d.Rank, p))
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
