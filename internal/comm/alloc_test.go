package comm_test

import (
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
)

// The hot-path allocation pins: steady-state collective rounds must not
// allocate payload-sized buffers. The reduction scratch belongs to the
// group, staging buffers to the device (comm.Stage), and the Flat/Into
// variants write straight into
// caller-held destinations, so per-round allocation is bounded by small
// rendezvous bookkeeping — orders of magnitude under the payload size.
// A regression that reintroduces per-round payload copies (each round
// below moves 4 × 16 KiB) trips the byte bound immediately.

const (
	allocRanks = 4
	allocElems = 4096 // 16 KiB per member buffer
	// allocBytesBound is the per-round bookkeeping allowance across all
	// ranks; payload copies would cost >= 64 KiB per round.
	allocBytesBound = 4096
)

func benchRounds(b *testing.B, round func(d *comm.Device, world []int)) {
	fab := comm.NewFabric(allocRanks, hw.A6000())
	b.ReportAllocs()
	fab.Run(func(d *comm.Device) {
		world := d.World()
		for i := 0; i < b.N; i++ {
			round(d, world)
		}
	})
}

func BenchmarkAllReduceSumInto(b *testing.B) {
	local := make([][]float32, allocRanks)
	dst := make([][]float32, allocRanks)
	for r := range local {
		local[r] = make([]float32, allocElems)
		dst[r] = make([]float32, allocElems)
	}
	benchRounds(b, func(d *comm.Device, world []int) {
		d.AllReduceSumInto(world, local[d.Rank], dst[d.Rank])
	})
}

func BenchmarkAllGatherFlat(b *testing.B) {
	local := make([][]float32, allocRanks)
	dst := make([][]float32, allocRanks)
	for r := range local {
		local[r] = make([]float32, allocElems/allocRanks)
		dst[r] = make([]float32, allocElems)
	}
	benchRounds(b, func(d *comm.Device, world []int) {
		dst[d.Rank] = d.AllGatherFlat(world, local[d.Rank], dst[d.Rank])
	})
}

// BenchmarkRedistributeInto is the steady state of an engine register:
// each H->V regrid lands in the tile the previous one returned, the
// parts travel through the device's staging buffer and are merged straight
// out of the senders', so a round allocates no payload either.
func BenchmarkRedistributeInto(b *testing.B) {
	fab := comm.NewFabric(allocRanks, hw.A6000())
	mats := make([]*dist.Mat, allocRanks)
	for r := range mats {
		mats[r] = dist.NewMat(fab.Device(r), dist.H, allocRanks*allocRanks, allocElems/allocRanks)
	}
	b.ReportAllocs()
	fab.Run(func(d *comm.Device) {
		var old *dist.Mat
		for i := 0; i < b.N; i++ {
			old = mats[d.Rank].RedistributeInto(dist.V, old)
		}
	})
}

// BenchmarkGatherRowsInto is the serving tier's steady state: a
// microbatch's miss rows gathered onto rank 0 into the tile the previous
// gather returned, every owner staging its rows in its comm.Stage.
func BenchmarkGatherRowsInto(b *testing.B) {
	fab := comm.NewFabric(allocRanks, hw.A6000())
	const n, cols = 1024, 40
	rows := []int32{5, 700, 300, 1000, 5, 260, 513, 900} // every owner, a duplicate
	b.ReportAllocs()
	fab.Run(func(d *comm.Device) {
		logits := dist.NewMat(d, dist.H, n, cols)
		tile := logits.GatherRowsInto(0, rows, nil)
		for i := 0; i < b.N; i++ {
			tile = logits.GatherRowsInto(0, rows, tile)
		}
	})
}

// BenchmarkLockstepAllToAll is a host loop's round: every member's parts
// handed to the fabric at once, received in place. It reuses the group's
// scratch and allocates nothing.
func BenchmarkLockstepAllToAll(b *testing.B) {
	fab := comm.NewFabric(allocRanks, hw.A6000())
	parts := make([][][]float32, allocRanks)
	for i := range parts {
		parts[i] = make([][]float32, allocRanks)
		for j := range parts[i] {
			parts[i][j] = make([]float32, allocElems/allocRanks)
		}
	}
	world := fab.Device(0).World()
	var got int
	recv := func(dst, src int, part []float32) { got += len(part) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := fab.LockstepAllToAll(world, parts, recv); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHotPathAllocsBounded runs the retained-buffer benchmarks through
// the framework and asserts the per-round allocated bytes stay under the
// bookkeeping allowance — the executable form of the "zero payload
// allocation in steady state" claim. The rooted row gather is held to
// two objects per device per call as well, and the lockstep round to
// none. Under -race the rounds still
// run, for the data-race coverage, but the byte bound describes the
// uninstrumented build and is only applied there.
func TestHotPathAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed assertion skipped in -short")
	}
	for _, bench := range []struct {
		name      string
		fn        func(*testing.B)
		maxAllocs int64 // objects per round; -1 leaves them unchecked
	}{
		{"AllReduceSumInto", BenchmarkAllReduceSumInto, -1},
		{"AllGatherFlat", BenchmarkAllGatherFlat, -1},
		{"RedistributeInto", BenchmarkRedistributeInto, -1},
		{"GatherRowsInto", BenchmarkGatherRowsInto, 2 * allocRanks},
		{"LockstepAllToAll", BenchmarkLockstepAllToAll, 0},
	} {
		res := testing.Benchmark(bench.fn)
		if res.N == 0 {
			t.Fatalf("%s: benchmark did not run", bench.name)
		}
		got, objs := res.AllocedBytesPerOp(), res.AllocsPerOp()
		t.Logf("%s: %d bytes/round, %d allocs/round (N=%d)", bench.name, got, objs, res.N)
		if got > allocBytesBound && !raceEnabled {
			t.Fatalf("%s: %d bytes allocated per round, bookkeeping bound is %d — payload buffers are being allocated on the hot path",
				bench.name, got, allocBytesBound)
		}
		if bench.maxAllocs >= 0 && objs > bench.maxAllocs {
			t.Fatalf("%s: %d objects allocated per round of %d devices, bound is %d",
				bench.name, objs, allocRanks, bench.maxAllocs)
		}
	}
}

// World is the fabric's one shared slice: identical on every device,
// and capacity-clipped so an append cannot write into it.
func TestWorldIsSharedAndClipped(t *testing.T) {
	fab := comm.NewFabric(3, hw.A6000())
	w := fab.Device(0).World()
	if len(w) != 3 || cap(w) != len(w) {
		t.Fatalf("World() = %v with cap %d, want [0 1 2] with cap 3", w, cap(w))
	}
	for r := 0; r < 3; r++ {
		if got := fab.Device(r).World(); &got[0] != &w[0] || got[r] != r {
			t.Fatalf("rank %d: World() = %v is not the fabric's shared slice", r, got)
		}
	}
	_ = append(w, 99)
	if again := fab.Device(1).World(); len(again) != 3 || cap(again) != 3 {
		t.Fatalf("an append to World() changed it: %v cap %d", again, cap(again))
	}
}
