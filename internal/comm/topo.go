// Topology-aware fabric paths. Attaching a topo.Topology
// (Fabric.SetTopology) switches every collective's time and byte
// accounting from the flat linkModel formulas to the internal/topo
// algorithm library, metering traffic per link tier. Every collective
// runs its one fused rendezvous; the algorithm topo.Auto picks is priced
// and metered exactly inside it ("virtual routing") without extra
// rounds, which keeps the decision trivially consistent across ranks.
package comm

import (
	"fmt"

	"gnnrdm/internal/topo"
)

// SetTopology attaches an interconnect topology: subsequent collectives
// price and meter through internal/topo's algorithm library, splitting
// bytes by link tier. The topology must cover every rank (t.P >= P).
// Passing nil restores the flat pre-topology accounting. Call before
// Run. A flat single-tier topology built from the fabric's own model
// (topo.Flat(p, hw)) reproduces the nil-topology fabric bit-for-bit.
func (f *Fabric) SetTopology(t *topo.Topology) {
	if t != nil && t.P < f.P {
		panic(fmt.Sprintf("comm: topology covers %d devices, fabric has %d", t.P, f.P))
	}
	f.topology = t
}

// topoFor returns the topology a collective over group runs at — the
// attached topology degraded by the worst per-rank link-fault
// multipliers among the participants (mirroring linkModel) — or nil
// when no topology is attached.
func (f *Fabric) topoFor(group []int) *topo.Topology {
	t := f.topology
	if t == nil || f.linkAlpha == nil {
		return t
	}
	alpha, beta := 1.0, 1.0
	for _, r := range group {
		if f.linkAlpha[r] > alpha {
			alpha = f.linkAlpha[r]
		}
		if f.linkBeta[r] > beta {
			beta = f.linkBeta[r]
		}
	}
	if alpha == 1 && beta == 1 {
		return t
	}
	return t.Degraded(alpha, beta)
}
