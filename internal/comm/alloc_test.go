package comm_test

import (
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
)

// The hot-path allocation pins: steady-state collective rounds must not
// allocate payload-sized buffers. The reduction scratch is pooled
// (comm/pool.go) and the Flat/Into variants write straight into
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
// parts travel through a pooled staging buffer and are merged straight
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

// TestHotPathAllocsBounded runs the pooled-path benchmarks through the
// framework and asserts the per-round allocated bytes stay under the
// bookkeeping allowance — the executable form of the "zero payload
// allocation in steady state" claim. Under -race the rounds still run,
// for the data-race coverage, but sync.Pool drops a share of its puts
// there, so the byte bound is only applied to uninstrumented builds.
func TestHotPathAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed assertion skipped in -short")
	}
	for _, bench := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"AllReduceSumInto", BenchmarkAllReduceSumInto},
		{"AllGatherFlat", BenchmarkAllGatherFlat},
		{"RedistributeInto", BenchmarkRedistributeInto},
	} {
		res := testing.Benchmark(bench.fn)
		if res.N == 0 {
			t.Fatalf("%s: benchmark did not run", bench.name)
		}
		if got := res.AllocedBytesPerOp(); got > allocBytesBound && !raceEnabled {
			t.Fatalf("%s: %d bytes allocated per round (N=%d), bookkeeping bound is %d — payload buffers are being allocated on the hot path",
				bench.name, got, res.N, allocBytesBound)
		} else {
			t.Logf("%s: %d bytes/round, %d allocs/round (N=%d)", bench.name, got, res.AllocsPerOp(), res.N)
		}
	}
}
