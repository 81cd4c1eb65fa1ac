package verify

import (
	"testing"

	"gnnrdm/internal/core"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// This file reconciles the topology-aware fabric against the planner's
// closed-form topology pricing: the same invariants the flat checks
// enforce, extended per link tier. The planner, the topo cost library,
// and the live fabric are three accountings of one epoch; they must
// agree byte-for-byte on every tier.

// CheckTopoScheduleMatchesMeters trains one epoch with opts.Topology
// set and reconciles the fabric's meters against the compiled
// schedule's topology-aware prices exactly: RDM volume, all-reduce
// volume, side-channel mask bytes, and — the topology-specific
// invariant — the per-link-tier split of both the primary and side
// volumes. Options must not request per-epoch accuracy evaluation
// (EvalMask), whose all-reduce is outside the epoch schedule.
func CheckTopoScheduleMatchesMeters(t testing.TB, prob *core.Problem, p int, o core.Options) {
	t.Helper()
	if o.Topology == nil {
		panic("verify: CheckTopoScheduleMatchesMeters without Topology")
	}
	if o.EvalMask != nil {
		panic("verify: CheckTopoScheduleMatchesMeters with EvalMask")
	}
	fab := TrainFabric(p, prob, o, 1)
	c := scheduleFor(prob, p, o).PriceOn(prob.A.NNZ(), hw.A6000(), o.Topology)
	m := fab.Meters()
	if got := m.Volume[hw.OpAllToAll] + m.Volume[hw.OpAllGather]; got != c.RDMBytes() {
		t.Fatalf("P=%d on %s: metered RDM volume %d bytes, schedule prices %d (Δ=%d)",
			p, o.Topology.Name, got, c.RDMBytes(), got-c.RDMBytes())
	}
	if got := m.Volume[hw.OpAllReduce]; got != c.AllReduce {
		t.Fatalf("P=%d on %s: metered all-reduce volume %d bytes, schedule prices %d (Δ=%d)",
			p, o.Topology.Name, got, c.AllReduce, got-c.AllReduce)
	}
	if got := m.TotalSideVolume(); got != c.Side {
		t.Fatalf("P=%d on %s: metered side-channel volume %d bytes, schedule prices %d (Δ=%d)",
			p, o.Topology.Name, got, c.Side, got-c.Side)
	}
	for tier := range topo.NumTiers {
		var prim, side int64
		for k := range hw.NumCollectiveKinds {
			prim += m.TierVolume[tier][k]
			side += m.SideTierVolume[tier][k]
		}
		if prim != c.Tier[tier] {
			t.Fatalf("P=%d on %s: metered tier-%d volume %d bytes, schedule prices %d (Δ=%d)",
				p, o.Topology.Name, tier, prim, c.Tier[tier], prim-c.Tier[tier])
		}
		if side != c.SideTier[tier] {
			t.Fatalf("P=%d on %s: metered tier-%d side volume %d bytes, schedule prices %d (Δ=%d)",
				p, o.Topology.Name, tier, side, c.SideTier[tier], side-c.SideTier[tier])
		}
	}
}

// CheckFlatTopologyBitIdentical trains the same epoch twice — once on
// the legacy flat fabric, once with an explicit Flat topology attached —
// and asserts the runs are bit-for-bit indistinguishable: identical
// makespan and identical byte census — the flat fabric books every byte
// on tier 0, so the Flat topology must too. This is the
// backward-compatibility contract: attaching a single-tier topology must
// not change anything.
func CheckFlatTopologyBitIdentical(t testing.TB, prob *core.Problem, p int, o core.Options) {
	t.Helper()
	flat := TrainFabric(p, prob, o, 1)
	o.Topology = topo.Flat(p, hw.A6000())
	topod := TrainFabric(p, prob, o, 1)
	if a, b := flat.MaxClock(), topod.MaxClock(); a != b {
		t.Fatalf("P=%d: flat makespan %v, Flat-topology makespan %v — not bit-identical", p, a, b)
	}
	if d := meterDiff(topod.Meters(), flat.Meters()); d != "" {
		t.Fatalf("P=%d: Flat-topology census differs from the flat fabric's at %s", p, d)
	}
}
