package core

import (
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
)

// TestOverlapEpochAllocs pins the overlap executor's steady-state
// allocations to the sequential interpreter's: the DAG, the lanes and
// the finish times are built once, so an overlapped epoch may allocate
// only what the sequential one does plus, per rank, the lane-bound view
// (dist.Mat.WithDevice) a redistribution takes of a register produced
// on another lane.
func TestOverlapEpochAllocs(t *testing.T) {
	const p = 4
	prob := testProblem(t, 256, 16, 8)
	dims := []int{16, 16, 8}
	for _, id := range []int{0, 5, 10} {
		// epochAllocs runs a warm-up epoch on fresh engines, then counts
		// the allocations of one more epoch across all p ranks.
		epochAllocs := func(overlap bool) (float64, *plan.Schedule) {
			o := testOpts(dims, id)
			o.Overlap, o.PinExecutor = overlap, true
			fab := comm.NewFabric(p, hw.A6000())
			engs := make([]*Engine, p)
			fab.Run(func(d *comm.Device) {
				engs[d.Rank] = NewEngine(d, prob, o)
				engs[d.Rank].Epoch()
			})
			n := testing.AllocsPerRun(5, func() {
				fab.Run(func(d *comm.Device) { engs[d.Rank].Epoch() })
			})
			return n, engs[0].Schedule()
		}
		seq, sched := epochAllocs(false)
		ovl, _ := epochAllocs(true)
		redists := 0
		for i := range sched.Sections {
			for _, op := range sched.Sections[i].Ops {
				if op.Kind == plan.KRedist {
					redists++
				}
			}
		}
		if limit := seq + float64(p*redists); ovl > limit {
			t.Errorf("cfg %d: overlapped epoch allocates %.0f, want at most %.0f (sequential %.0f + %d ranks × %d redistributions)",
				id, ovl, limit, seq, p, redists)
		}
		t.Logf("cfg %d: sequential %.0f, overlapped %.0f allocations, %d redistributions", id, seq, ovl, redists)
	}
}
