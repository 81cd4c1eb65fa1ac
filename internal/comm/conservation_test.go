// Conservation and watchdog checks for the fabric itself, via the
// internal/verify oracle. External test package: verify imports comm.
package comm_test

import (
	"errors"
	"testing"
	"time"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/trace"
	"gnnrdm/internal/verify"
)

// TestMixedCollectivesConserve drives every collective, including
// disjoint concurrent subgroups and side-channel traffic, and checks the
// traced rounds against the fabric meters exactly.
func TestMixedCollectivesConserve(t *testing.T) {
	tr := trace.NewTracer(0)
	fab := comm.NewFabric(4, hw.A6000())
	fab.SetTracer(tr, "mixed")
	fab.Run(func(d *comm.Device) {
		world := d.World()
		d.Broadcast(world, 0, []float32{1, 2, 3})
		d.AllGatherFlat(world, []float32{float32(d.Rank)}, nil)
		d.AllReduceSum(world, []float32{1})
		// Disjoint pair groups run concurrently.
		group := []int{0, 1}
		if d.Rank >= 2 {
			group = []int{2, 3}
		}
		d.AllToAll(group, [][]float32{{1, 2}, {3}})
		d.ReduceScatterSum(group, []float32{1, 2, 3}, []int{2, 1})
		d.Barrier(world)
		// Side-channel traffic must reconcile in the ledger too.
		d.SetSideChannel(true)
		d.AllToAll(world, [][]float32{{1}, {2}, {3}, {4}})
		d.SetSideChannel(false)
	})
	verify.CheckFabricSession(t, fab, tr.Sessions()[0])
}

// TestErrorPathsGuarded exercises a cooperative collective failure under
// the deadlock watchdog: every rank must receive the error, and the
// fabric must stay usable for a follow-up round — all well before the
// watchdog fires.
func TestErrorPathsGuarded(t *testing.T) {
	verify.NoDeadlock(t, 30*time.Second, func() {
		fab := comm.NewFabric(4, hw.A6000())
		errs := make([]error, 4)
		sums := make([][]float32, 4)
		fab.Run(func(d *comm.Device) {
			var buf []float32
			if d.Rank != 2 {
				buf = []float32{1}
			}
			_, errs[d.Rank] = d.TryAllGatherFlat(d.World(), buf, nil)
			sums[d.Rank] = d.AllReduceSum(d.World(), []float32{float32(d.Rank)})
		})
		for r, err := range errs {
			if !errors.Is(err, comm.ErrNilBuffer) {
				t.Errorf("rank %d: got %v, want ErrNilBuffer", r, err)
			}
		}
		for r, s := range sums {
			if len(s) != 1 || s[0] != 6 {
				t.Errorf("rank %d: follow-up allreduce %v, want [6]", r, s)
			}
		}
	})
}
