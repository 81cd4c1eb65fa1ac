package sim_test

import (
	"fmt"
	"testing"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sim"
	"gnnrdm/internal/topo"
)

func sparseSchedFor(n int, dims []int, cfg, p, live int, abc bool) *plan.Schedule {
	s := plan.Compile(plan.Spec{
		N: n, Dims: dims, Config: costmodel.ConfigFromID(cfg, len(dims)-1),
		P: p, RA: p, Memoize: true, InputGrad: true,
		Live: live, SparseSeed: 3,
	}).Optimize()
	if abc {
		s = s.ABC()
	}
	return s
}

// TestSimMetersEqualPriceOnSparse pins the engine's byte census on
// sparse schedules (two-round exchanges) and ABC-rewritten ones
// (KSpMMABC) against the aggregate pricer's byte totals — an
// independent walk (Schedule.PriceOn) over the same schedule — for
// both executors, flat and hierarchical. (The clocks have no second
// pricer to agree with: plan.PriceDAG* reads them off this engine.
// verify.CheckSimMatchesFabric pins them to the live fabric, and
// plan's TestReplayABCHandComputed pins the fabric-less KSpMMABC arm.)
func TestSimMetersEqualPriceOnSparse(t *testing.T) {
	h := hw.A6000()
	dims := []int{16, 12, 8}
	const n, epochs, nnz = 256, 2, 4 * 256
	for _, spec := range []string{"", "8x4:nvlink,ib"} {
		for _, abc := range []bool{false, true} {
			p := 8
			var tp *topo.Topology
			name := fmt.Sprintf("flat/abc=%v", abc)
			if spec != "" {
				ts, err := topo.ParseSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				tp = ts.MustTopology(p)
				name = fmt.Sprintf("%s/abc=%v", spec, abc)
			}
			pc := plan.NewPriceCache()
			t.Run(name, func(t *testing.T) {
				for _, cfg := range []int{2, 3, 10, 15} { // DenseFirst forward layers
					s := sparseSchedFor(n, dims, cfg, p, 32, abc)
					d := plan.MustBuildDAG(s)
					cen := s.ApproxCensus(nnz)
					c := s.PriceOn(nnz, h, tp)
					for _, overlap := range []bool{false, true} {
						res := sim.MustRun(sim.Config{
							DAG: d, Census: cen, HW: h, Topology: tp,
							Epochs: epochs, Overlap: overlap, Cache: pc,
						})
						// Volumes are per-epoch invariant.
						primary := res.Meters.TotalVolume() - res.Meters.TotalSideVolume()
						if w := int64(epochs) * (c.RDMBytes() + c.AllReduce); primary != w {
							t.Fatalf("cfg %d overlap=%v: sim primary volume %d != priced %d", cfg, overlap, primary, w)
						}
						if side, w := res.Meters.TotalSideVolume(), int64(epochs)*c.Side; side != w {
							t.Fatalf("cfg %d overlap=%v: sim side volume %d != priced %d", cfg, overlap, side, w)
						}
					}
				}
			})
		}
	}
}
