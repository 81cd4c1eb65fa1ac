// The metering/topology-routing seam. A Meter prices one collective
// round from its byte census alone as a topo.Cost — the modelled time
// and the bytes that crossed each link tier — and Meters is the per-run
// census those rounds are booked into. The live fabric's rendezvous
// finalizers run exactly this code; the payload-free replay engine
// (plan/replay.go, behind internal/sim) prices through the same Meter
// (plan.PriceCache, once per distinct round) and books into its own
// Meters, so the two censuses compare with ==.
//
// Routing: a Meter either carries a topology (collectives price and
// split bytes per link tier through internal/topo's algorithm library)
// or a flat hardware model (the pre-topology closed forms, every byte
// on tier 0). The fabric builds one per round via MeterFor, which folds
// in per-rank link fault degradation.
package comm

import (
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// Meters is one run's byte census by collective kind: primary and
// side-channel volume (Device.SetSideChannel), call counts, and both
// volumes split per link tier. A flat fabric books every byte on tier 0.
type Meters struct {
	Volume         [hw.NumCollectiveKinds]int64
	SideVolume     [hw.NumCollectiveKinds]int64
	Calls          [hw.NumCollectiveKinds]int64
	TierVolume     [topo.NumTiers][hw.NumCollectiveKinds]int64
	SideTierVolume [topo.NumTiers][hw.NumCollectiveKinds]int64
}

// Add books one metered round of the given kind: its bytes on the
// primary or side channel, split by tier, and one call.
func (m *Meters) Add(kind hw.CollectiveKind, c topo.Cost, side bool) {
	vol, tier := &m.Volume, &m.TierVolume
	if side {
		vol, tier = &m.SideVolume, &m.SideTierVolume
	}
	vol[kind] += c.Bytes()
	for t := range tier {
		tier[t][kind] += c.Tier[t]
	}
	m.Calls[kind]++
}

// TotalVolume returns all bytes moved, side-channel traffic included.
func (m Meters) TotalVolume() int64 {
	var s int64
	for k := range m.Volume {
		s += m.Volume[k] + m.SideVolume[k]
	}
	return s
}

// TotalSideVolume returns the side-channel bytes across all kinds.
func (m Meters) TotalSideVolume() int64 {
	var s int64
	for _, v := range m.SideVolume {
		s += v
	}
	return s
}

// Meter prices collective rounds for one routing context. Exactly one
// of the two routes is active: Topo != nil routes through the
// topology-aware algorithm library with HW as the base link model;
// Topo == nil uses HW's flat CollectiveTime formulas.
type Meter struct {
	HW   *hw.Model
	Topo *topo.Topology
}

// MeterFor returns the meter a collective over group runs under: the
// fabric's topology (degraded by the participants' worst link-fault
// multipliers) when one is attached, else the flat link model for the
// group (same degradation rule). This is the routing decision every
// rendezvous finalizer makes, exposed as a value.
func (f *Fabric) MeterFor(group []int) Meter {
	if tp := f.topoFor(group); tp != nil {
		return Meter{HW: f.HW, Topo: tp}
	}
	return Meter{HW: f.linkModel(group)}
}

// flatCost is a flat-route price: the closed-form time of an n-member
// collective over timeBytes, and bytes metered on tier 0.
func (m Meter) flatCost(kind hw.CollectiveKind, n int, timeBytes, bytes int64) topo.Cost {
	return topo.Cost{Time: m.HW.CollectiveTime(kind, n, timeBytes), Tier: [topo.NumTiers]int64{topo.TierIntra: bytes}}
}

// Broadcast prices root sending bytes to every member. rootIdx is the
// root's group position.
func (m Meter) Broadcast(group []int, rootIdx int, bytes int64) topo.Cost {
	if m.Topo != nil {
		return m.Topo.Broadcast(m.HW, group, rootIdx, bytes)
	}
	return m.flatCost(hw.OpBroadcast, len(group), bytes, bytes*int64(len(group)-1))
}

// AllGather prices gathering per-position chunks (chunks[i] bytes from
// group position i) onto every member.
func (m Meter) AllGather(group []int, chunks []int64) topo.Cost {
	if m.Topo != nil {
		_, c := m.Topo.AllGather(m.HW, topo.Auto, group, chunks)
		return c
	}
	var total int64
	for _, b := range chunks {
		total += b
	}
	return m.flatCost(hw.OpAllGather, len(group), total, total*int64(len(group)-1))
}

// AllReduce prices an element-wise sum of bytes-sized buffers onto
// every member.
func (m Meter) AllReduce(group []int, bytes int64) topo.Cost {
	if m.Topo != nil {
		_, c := m.Topo.AllReduce(m.HW, topo.Auto, group, bytes)
		return c
	}
	return m.flatCost(hw.OpAllReduce, len(group), bytes, 2*bytes*int64(len(group)-1))
}

// AllToAll prices a personalized exchange. pair(i, j) is the bytes
// group position i sends to position j (consulted only on the topology
// route); maxInject and total are the busiest injector's and the
// summed cross-pair bytes (self-pairs excluded), which the flat route
// prices and meters from.
func (m Meter) AllToAll(group []int, pair func(i, j int) int64, maxInject, total int64) topo.Cost {
	if m.Topo != nil {
		_, c := m.Topo.AllToAll(m.HW, topo.Auto, group, pair)
		return c
	}
	return m.flatCost(hw.OpAllToAll, len(group), maxInject, total)
}

// ReduceScatter prices a sum + scatter leaving chunkBytes[i] bytes on
// group position i; totalBytes is the full buffer size (the sum of
// chunkBytes).
func (m Meter) ReduceScatter(group []int, chunkBytes []int64, totalBytes int64) topo.Cost {
	if m.Topo != nil {
		_, c := m.Topo.ReduceScatter(m.HW, topo.Auto, group, chunkBytes)
		return c
	}
	return m.flatCost(hw.OpReduceScatter, len(group), totalBytes, totalBytes*int64(len(group)-1))
}

// Barrier prices a latency-only group synchronization (never metered).
func (m Meter) Barrier(group []int) float64 {
	if m.Topo != nil {
		return m.Topo.Barrier(m.HW, group)
	}
	return m.HW.LinkLatency
}
