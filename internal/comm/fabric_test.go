package comm

import (
	"math"
	"sync/atomic"
	"testing"

	"gnnrdm/internal/hw"
)

func world(p int) []int {
	g := make([]int, p)
	for i := range g {
		g[i] = i
	}
	return g
}

func TestBroadcast(t *testing.T) {
	f := Run(4, hw.A6000(), func(d *Device) {
		var data []float32
		if d.Rank == 1 {
			data = []float32{1, 2, 3}
		}
		got := d.Broadcast(d.World(), 1, data)
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
			t.Errorf("rank %d got %v", d.Rank, got)
		}
		// Received buffers must be private copies.
		if d.Rank != 1 {
			got[0] = 99
		}
	})
	// Volume: 3 floats to 3 receivers = 36 bytes.
	if v := f.Meters().Volume[hw.OpBroadcast]; v != 36 {
		t.Fatalf("broadcast volume=%d want 36", v)
	}
	if f.Calls(hw.OpBroadcast) != 1 {
		t.Fatalf("calls=%d", f.Calls(hw.OpBroadcast))
	}
}

func TestBroadcastCopySemantics(t *testing.T) {
	// A receiver mutating its copy must not affect other receivers.
	results := make([][]float32, 3)
	Run(3, hw.A6000(), func(d *Device) {
		var data []float32
		if d.Rank == 0 {
			data = []float32{7}
		}
		got := d.Broadcast(d.World(), 0, data)
		got[0] += float32(d.Rank) // mutate private copy
		results[d.Rank] = got
	})
	if results[0][0] != 7 || results[1][0] != 8 || results[2][0] != 9 {
		t.Fatalf("copies not private: %v", results)
	}
}

func TestAllGather(t *testing.T) {
	f := Run(3, hw.A6000(), func(d *Device) {
		local := []float32{float32(d.Rank), float32(d.Rank * 10)}
		got := d.AllGatherFlat(d.World(), local, nil)
		if len(got) != 6 {
			t.Errorf("rank %d gathered %d elements, want 6", d.Rank, len(got))
			return
		}
		for i := 0; i < 3; i++ {
			if got[2*i] != float32(i) || got[2*i+1] != float32(i*10) {
				t.Errorf("rank %d slot %d = %v", d.Rank, i, got[2*i:2*i+2])
			}
		}
	})
	// total buffer = 3*2*4 = 24 bytes; volume = 24 * (3-1) = 48.
	if v := f.Meters().Volume[hw.OpAllGather]; v != 48 {
		t.Fatalf("allgather volume=%d want 48", v)
	}
}

func TestAllReduceSum(t *testing.T) {
	Run(4, hw.A6000(), func(d *Device) {
		local := []float32{float32(d.Rank), 1}
		got := d.AllReduceSum(d.World(), local)
		if got[0] != 6 || got[1] != 4 { // 0+1+2+3, 1*4
			t.Errorf("rank %d got %v", d.Rank, got)
		}
		// Result must be private: mutate and re-reduce.
		got[0] = -1
		again := d.AllReduceSum(d.World(), []float32{1, 1})
		if again[0] != 4 {
			t.Errorf("second reduce got %v", again)
		}
	})
}

func TestAllToAll(t *testing.T) {
	f := Run(3, hw.A6000(), func(d *Device) {
		// Device r sends value 100*r+j to device j.
		parts := make([][]float32, 3)
		for j := range parts {
			parts[j] = []float32{float32(100*d.Rank + j)}
		}
		got := d.AllToAll(d.World(), parts)
		for i := 0; i < 3; i++ {
			want := float32(100*i + d.Rank)
			if got[i][0] != want {
				t.Errorf("rank %d from %d: got %v want %v", d.Rank, i, got[i][0], want)
			}
		}
	})
	// Each device sends 2 off-device floats: total = 3*2*4 = 24 bytes.
	if v := f.Meters().Volume[hw.OpAllToAll]; v != 24 {
		t.Fatalf("alltoall volume=%d want 24", v)
	}
}

func TestSubgroupCollectives(t *testing.T) {
	// Two disjoint groups {0,2} and {1,3} operating concurrently.
	Run(4, hw.A6000(), func(d *Device) {
		var group []int
		if d.Rank%2 == 0 {
			group = []int{0, 2}
		} else {
			group = []int{1, 3}
		}
		got := d.AllReduceSum(group, []float32{float32(d.Rank)})
		want := float32(2) // 0+2
		if d.Rank%2 == 1 {
			want = 4 // 1+3
		}
		if got[0] != want {
			t.Errorf("rank %d got %v want %v", d.Rank, got[0], want)
		}
	})
}

func TestRepeatedCollectivesOnSameGroup(t *testing.T) {
	// Stress slot recycling: many rounds back-to-back.
	Run(4, hw.A6000(), func(d *Device) {
		for round := 0; round < 200; round++ {
			got := d.AllReduceSum(d.World(), []float32{float32(d.Rank + round)})
			want := float32(0 + 1 + 2 + 3 + 4*round)
			if got[0] != want {
				t.Errorf("round %d rank %d: got %v want %v", round, d.Rank, got[0], want)
				return
			}
		}
	})
}

func TestClockSynchronization(t *testing.T) {
	model := hw.A6000()
	f := Run(2, model, func(d *Device) {
		if d.Rank == 0 {
			d.ChargeGemm(1000, 1000, 1000) // rank 0 is slower
		}
		d.Barrier(d.World())
	})
	c0, c1 := f.Device(0).Clock(), f.Device(1).Clock()
	if math.Abs(c0-c1) > 1e-12 {
		t.Fatalf("clocks must sync at barrier: %v vs %v", c0, c1)
	}
	// Rank 1 waited for rank 0: the skew shows in rank 1's comm time.
	if f.Device(1).CommTime() <= f.Device(0).CommTime() {
		t.Fatalf("waiting device should accumulate more comm time: %v vs %v",
			f.Device(1).CommTime(), f.Device(0).CommTime())
	}
	if f.Device(0).ComputeTime() <= 0 || f.Device(1).ComputeTime() != 0 {
		t.Fatal("compute time attribution wrong")
	}
}

func TestChargeAccounting(t *testing.T) {
	model := hw.A6000()
	f := NewFabric(1, model)
	d := f.Device(0)
	d.ChargeSpMM(1000, 16)
	d.ChargeMem(4096)
	wantClock := model.SpMMTime(1000, 16) + model.MemTime(4096)
	if math.Abs(d.Clock()-wantClock) > 1e-15 {
		t.Fatalf("clock=%v want %v", d.Clock(), wantClock)
	}
	if d.CommTime() != 0 {
		t.Fatal("no comm happened")
	}
}

func TestSingletonGroupShortcuts(t *testing.T) {
	f := Run(1, hw.A6000(), func(d *Device) {
		b := d.Broadcast([]int{0}, 0, []float32{1})
		if b[0] != 1 {
			t.Error("singleton broadcast")
		}
		g := d.AllGatherFlat([]int{0}, []float32{2}, nil)
		if len(g) != 1 || g[0] != 2 {
			t.Error("singleton allgather")
		}
		r := d.AllReduceSum([]int{0}, []float32{3})
		if r[0] != 3 {
			t.Error("singleton allreduce")
		}
		a := d.AllToAll([]int{0}, [][]float32{{4}})
		if a[0][0] != 4 {
			t.Error("singleton alltoall")
		}
		d.Barrier([]int{0})
	})
	if f.TotalVolume() != 0 {
		t.Fatalf("singleton groups must move nothing, got %d", f.TotalVolume())
	}
}

func TestVolumeScalingWithP(t *testing.T) {
	// The paper's headline property: redistribution volume is constant in
	// P, broadcast-based volume grows with P.
	n := 1024
	redistVolume := func(p int) int64 {
		f := Run(p, hw.A6000(), func(d *Device) {
			// Each device owns n/p rows and splits them into p column
			// chunks: total data crossing = (p-1)/p * n floats.
			parts := make([][]float32, p)
			for j := range parts {
				parts[j] = make([]float32, n/p/p)
			}
			d.AllToAll(d.World(), parts)
		})
		return f.Meters().Volume[hw.OpAllToAll]
	}
	bcastVolume := func(p int) int64 {
		f := Run(p, hw.A6000(), func(d *Device) {
			for r := 0; r < p; r++ {
				var data []float32
				if d.Rank == r {
					data = make([]float32, n/p)
				}
				d.Broadcast(d.World(), r, data)
			}
		})
		return f.Meters().Volume[hw.OpBroadcast]
	}
	r2, r8 := redistVolume(2), redistVolume(8)
	b2, b8 := bcastVolume(2), bcastVolume(8)
	// Redistribution: (p-1)/p*n*4 bytes: 2048 at p=2, 3584 at p=8 (<2x).
	if float64(r8) > 2*float64(r2) {
		t.Fatalf("redistribution volume grew too fast: %d -> %d", r2, r8)
	}
	// Broadcast: (p-1)*n*4 bytes: 4096 at p=2, 28672 at p=8 (7x).
	if float64(b8) < 3*float64(b2) {
		t.Fatalf("broadcast volume should grow ~(p-1): %d -> %d", b2, b8)
	}
}

func TestDeterministicClocks(t *testing.T) {
	runOnce := func() float64 {
		f := Run(4, hw.A6000(), func(d *Device) {
			for i := 0; i < 10; i++ {
				d.ChargeGemm(100+d.Rank, 50, 60)
				d.AllReduceSum(d.World(), make([]float32, 100))
				parts := make([][]float32, 4)
				for j := range parts {
					parts[j] = make([]float32, 25)
				}
				d.AllToAll(d.World(), parts)
			}
		})
		return f.MaxClock()
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("clocks must be deterministic: %v vs %v", a, b)
	}
}

func TestGroupValidation(t *testing.T) {
	f := NewFabric(2, hw.A6000())
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("unsorted", func() { f.Device(0).Barrier([]int{1, 0}) })
	expectPanic("duplicate", func() { f.Device(0).Barrier([]int{0, 0}) })
	expectPanic("empty", func() { f.Device(0).Barrier(nil) })
	expectPanic("not a member", func() { f.Device(0).AllReduceSum([]int{1, 2}, []float32{1}) })
	expectPanic("alltoall parts", func() { f.Device(0).AllToAll([]int{0, 1}, [][]float32{{1}}) })
}

func TestConcurrentGroupsNoInterference(t *testing.T) {
	// Odd and even subgroups run different numbers of collectives; a
	// trailing world barrier must still work.
	var oddSum atomic.Int64
	Run(8, hw.A6000(), func(d *Device) {
		if d.Rank%2 == 1 {
			g := []int{1, 3, 5, 7}
			for i := 0; i < 5; i++ {
				r := d.AllReduceSum(g, []float32{1})
				oddSum.Add(int64(r[0]))
			}
		}
		d.Barrier(world(8))
	})
	if oddSum.Load() != 4*5*4 { // 4 ranks * 5 rounds * sum 4
		t.Fatalf("oddSum=%d", oddSum.Load())
	}
}

func TestReduceScatterSum(t *testing.T) {
	// 3 devices, shards of sizes 2,1,1.
	counts := []int{2, 1, 1}
	f := Run(3, hw.A6000(), func(d *Device) {
		local := []float32{float32(d.Rank), 1, 2, float32(10 * d.Rank)}
		got := d.ReduceScatterSum(d.World(), local, counts)
		switch d.Rank {
		case 0:
			if len(got) != 2 || got[0] != 3 || got[1] != 3 {
				t.Errorf("rank0 got %v", got)
			}
		case 1:
			if len(got) != 1 || got[0] != 6 {
				t.Errorf("rank1 got %v", got)
			}
		case 2:
			if len(got) != 1 || got[0] != 30 {
				t.Errorf("rank2 got %v", got)
			}
		}
	})
	// Ring reduce-scatter volume: (n-1)*B = 2*16 bytes.
	if v := f.Meters().Volume[hw.OpReduceScatter]; v != 32 {
		t.Fatalf("reducescatter volume=%d want 32", v)
	}
}

func TestReduceScatterValidation(t *testing.T) {
	f := NewFabric(2, hw.A6000())
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("counts len", func() {
		f.Device(0).ReduceScatterSum([]int{0, 1}, []float32{1}, []int{1})
	})
	expectPanic("counts sum", func() {
		f.Device(0).ReduceScatterSum([]int{0, 1}, []float32{1, 2, 3}, []int{1, 1})
	})
}
