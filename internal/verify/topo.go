package verify

import (
	"testing"

	"gnnrdm/internal/core"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// This file checks the topology-aware fabric against the flat one; the
// per-link-tier reconciliation of meters against the planner's
// topology pricing is CheckScheduleMatchesMeters with o.Topology set.
// The planner, the topo cost library, and the live fabric are three
// accountings of one epoch; they must agree byte-for-byte on every tier.

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
