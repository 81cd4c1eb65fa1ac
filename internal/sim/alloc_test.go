package sim_test

import (
	"testing"

	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sim"
	"gnnrdm/internal/topo"
)

// TestWarmRunAllocatesOnlyResults: a sweep hands sim.Run one PriceCache
// and the DAG it priced; once the cache is warm, a two-epoch run
// allocates only its Result — the struct, the final clocks, one array
// under CommTime and ComputeTime, an array and a row list under each of
// the three per-epoch snapshots, and EpochBytes. The replay engine,
// its tables and the pair buffer belong to the cache and the DAG.
func TestWarmRunAllocatesOnlyResults(t *testing.T) {
	h := hw.A6000()
	const p = 16
	tp := topo.MustParseSpec("4x4:nvlink,ib").MustTopology(p)
	for _, cfg := range []int{0, 10, 15} {
		s := schedFor(4096, []int{32, 64, 16}, cfg, p, p, false)
		d := plan.MustBuildDAG(s)
		cen := s.ApproxCensus(8 * 4096)
		pc := plan.NewPriceCache()
		for _, overlap := range []bool{false, true} {
			c := sim.Config{DAG: d, Census: cen, HW: h, Topology: tp, Epochs: 2, Overlap: overlap, EpochBarriers: 2, Cache: pc}
			sim.MustRun(c)
			if n := testing.AllocsPerRun(20, func() { sim.MustRun(c) }); n != 10 {
				t.Errorf("cfg %d overlap=%v: a warm sim.Run allocates %.0f objects, want 10 (its Result)", cfg, overlap, n)
			}
		}
	}
}
