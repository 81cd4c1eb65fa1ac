package verify

import (
	"fmt"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sim"
	"gnnrdm/internal/topo"
)

// CheckSimMatchesFabric is the discrete-event backend's differential
// pin: it trains the same problem on a live fabric — sequential
// interpreter and overlap DAG executor — and replays it on the sim
// engine, asserting bit-identical per-device clocks, per-device
// communication and compute time accumulators, and the complete meter
// matrix (per-kind volume, side-channel volume, call counts, and both
// link-tier splits), with no tolerance anywhere. The fabric legs run
// bare epoch loops (no epoch barriers), which is what the sim's
// EpochBarriers=0 protocol reproduces.
//
// Options must not request accuracy evaluation (EvalMask): its
// all-reduce is outside the epoch schedule the sim replays.
func CheckSimMatchesFabric(t testing.TB, prob *core.Problem, p, epochs int, o core.Options) {
	t.Helper()
	if o.EvalMask != nil {
		panic("verify: CheckSimMatchesFabric with EvalMask")
	}
	sched := scheduleFor(prob, p, o)
	dag := plan.MustBuildDAG(sched)
	ra := o.RA
	if ra == 0 {
		ra = p
	}
	cen := core.PanelCensus(prob, p, ra)
	for _, overlap := range []bool{false, true} {
		mode := "sequential"
		if overlap {
			mode = "overlap"
		}
		live := trainOverlapMode(p, prob, o, epochs, overlap)
		res := sim.MustRun(sim.Config{
			DAG: dag, Census: cen, HW: hw.A6000(), Topology: o.Topology,
			Epochs: epochs, Overlap: overlap,
		})
		for r := 0; r < p; r++ {
			if res.Clocks[r] != live.clocks[r] {
				t.Fatalf("%s rank %d: sim clock %.17g != live %.17g (Δ=%g)",
					mode, r, res.Clocks[r], live.clocks[r], res.Clocks[r]-live.clocks[r])
			}
			if res.CommTime[r] != live.commT[r] {
				t.Fatalf("%s rank %d: sim comm time %.17g != live %.17g (Δ=%g)",
					mode, r, res.CommTime[r], live.commT[r], res.CommTime[r]-live.commT[r])
			}
			if res.ComputeTime[r] != live.compT[r] {
				t.Fatalf("%s rank %d: sim compute time %.17g != live %.17g (Δ=%g)",
					mode, r, res.ComputeTime[r], live.compT[r], res.ComputeTime[r]-live.compT[r])
			}
		}
		if d := meterDiff(res.Meters, live.fab.Meters()); d != "" {
			t.Fatalf("%s: sim census differs from live at %s", mode, d)
		}
	}
}

// meterDiff names the first field where two byte censuses differ, with
// both values ("SideTierVolume[inter][alltoall] (12 vs 16)"), or
// returns "" when they are equal.
func meterDiff(a, b comm.Meters) string {
	if a == b {
		return ""
	}
	const intra, inter = topo.TierIntra, topo.TierInter
	for k := range hw.NumCollectiveKinds {
		for _, f := range []struct {
			name string
			a, b int64
		}{
			{"Volume", a.Volume[k], b.Volume[k]},
			{"SideVolume", a.SideVolume[k], b.SideVolume[k]},
			{"Calls", a.Calls[k], b.Calls[k]},
			{"TierVolume[intra]", a.TierVolume[intra][k], b.TierVolume[intra][k]},
			{"TierVolume[inter]", a.TierVolume[inter][k], b.TierVolume[inter][k]},
			{"SideTierVolume[intra]", a.SideTierVolume[intra][k], b.SideTierVolume[intra][k]},
			{"SideTierVolume[inter]", a.SideTierVolume[inter][k], b.SideTierVolume[inter][k]},
		} {
			if f.a != f.b {
				return fmt.Sprintf("%s[%s] (%d vs %d)", f.name, k, f.a, f.b)
			}
		}
	}
	return ""
}
