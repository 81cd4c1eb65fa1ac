package plan

import (
	"reflect"
	"runtime"
	"testing"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// A PriceCache owns one replay engine, reset rather than rebuilt by every
// replay priced on it, and one pair buffer. These pins hold the two
// halves of that contract: a replay on a warm cache allocates only the
// results it returns, and a result never aliases the scratch the next
// replay overwrites.

// reuseCase compiles one ordering of a two-layer model at P=16.
func reuseCase(cfg int, dims []int) (*DAG, Census) {
	s := Compile(Spec{N: 4096, Dims: dims, Config: costmodel.ConfigFromID(cfg, 2), P: 16, RA: 16, Memoize: true}).Optimize()
	return MustBuildDAG(s), s.ApproxCensus(8 * 4096)
}

func reuseTopologies() []*topo.Topology {
	return []*topo.Topology{nil, topo.MustParseSpec("4x4:nvlink,ib").MustTopology(16)}
}

// TestWarmReplayAllocatesOnlyResults: once a cache has priced a DAG,
// PriceDAGEpochsCached allocates its two per-rank clock slices, and a
// two-epoch Replay (sim.Run's engine) its ReplayResult, the final
// clocks, one array under CommTime and ComputeTime, an array and a row
// list under each of the three per-epoch snapshots, and EpochBytes.
func TestWarmReplayAllocatesOnlyResults(t *testing.T) {
	h := hw.A6000()
	const epochs, p = 2, 16
	for _, tp := range reuseTopologies() {
		for _, cfg := range []int{0, 5, 10, 15} {
			d, cen := reuseCase(cfg, []int{32, 64, 16})
			pc := NewPriceCache()
			d.PriceDAGEpochsCached(cen, h, tp, epochs, pc)
			d.Replay(cen, h, tp, epochs, true, 2, pc, nil, "")
			for _, c := range []struct {
				name          string
				allocs, bytes int
				run           func()
			}{
				{"PriceDAGEpochsCached", 2, 2 * p * 8, func() { d.PriceDAGEpochsCached(cen, h, tp, epochs, pc) }},
				{"Replay overlapped", 10, (3 + 3*epochs) * p * 8, func() { d.Replay(cen, h, tp, epochs, true, 2, pc, nil, "") }},
				{"Replay sequential", 10, (3 + 3*epochs) * p * 8, func() { d.Replay(cen, h, tp, epochs, false, 2, pc, nil, "") }},
			} {
				if n := testing.AllocsPerRun(20, c.run); n != float64(c.allocs) {
					t.Errorf("tp=%v cfg %d: %s allocates %.0f objects per call on a warm cache, want %d (its results)",
						tp != nil, cfg, c.name, n, c.allocs)
				}
				if raceEnabled {
					continue
				}
				// The results' per-rank floats, plus 1 KiB for the result
				// struct, slice headers and size-class rounding: below any
				// nodes × P scratch table.
				const runs = 20
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range runs {
					c.run()
				}
				runtime.ReadMemStats(&after)
				if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > uint64(c.bytes+1024) {
					t.Errorf("tp=%v cfg %d: %s allocates %d B per call on a warm cache, want ≤ %d",
						tp != nil, cfg, c.name, b, c.bytes+1024)
				}
			}
		}
	}
}

// TestReplayResultsOutliveTheEngine: replaying ordering A, then a
// differently shaped ordering B, on one cache leaves A's results as a
// fresh cache reports them — ReplayResult, DAGCost and PriceOn's Cost.
func TestReplayResultsOutliveTheEngine(t *testing.T) {
	h := hw.A6000()
	for _, tp := range reuseTopologies() {
		for _, overlap := range []bool{false, true} {
			a, cenA := reuseCase(10, []int{32, 64, 16})
			b, cenB := reuseCase(5, []int{16, 128, 8})
			pc := NewPriceCache()
			got := a.Replay(cenA, h, tp, 2, overlap, 2, pc, nil, "")
			gotCost := a.PriceDAGEpochsCached(cenA, h, tp, 2, pc)
			gotPrice := a.Sched.priceOn(8*4096, h, tp, pc)
			b.Replay(cenB, h, tp, 3, !overlap, 0, pc, nil, "")
			b.PriceDAGEpochsCached(cenB, h, tp, 1, pc)
			b.Sched.priceOn(8*4096, h, tp, pc)

			if want := a.Replay(cenA, h, tp, 2, overlap, 2, nil, nil, ""); !reflect.DeepEqual(got, want) {
				t.Errorf("tp=%v overlap=%v: A's ReplayResult changed after B replayed on its cache", tp != nil, overlap)
			}
			if want := a.PriceDAGEpochsCached(cenA, h, tp, 2, nil); !reflect.DeepEqual(gotCost, want) {
				t.Errorf("tp=%v overlap=%v: A's DAGCost changed after B replayed on its cache", tp != nil, overlap)
			}
			if want := a.Sched.PriceOn(8*4096, h, tp); !reflect.DeepEqual(gotPrice, want) {
				t.Errorf("tp=%v overlap=%v: A's Cost changed after B priced on its cache", tp != nil, overlap)
			}
		}
	}
}
