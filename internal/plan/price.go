package plan

import (
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// This file prices a compiled schedule as a view of the replay engine
// (replay.go): one sequential epoch on the ApproxCensus of a global
// stored-entry count, read off op by op. An op's bytes are what it added
// to the replayed fabric's meters — the same census the live fabric
// meters, so the verifier reconciles them byte-for-byte — and its time
// is how far it advanced the latest device clock. The schedule's time
// is that clock at the end of the epoch, PriceDAGOn's SeqTime.

// OpCost is the priced cost of one schedule step.
type OpCost struct {
	Step int
	Kind Kind
	// AllToAll, AllGather and AllReduce are the op's fabric byte volumes
	// by collective class, matching the simulator's meters exactly.
	AllToAll, AllGather, AllReduce int64
	// Side is byte-packed mask traffic on the fabric's side channel
	// (excluded from the primary meters, as the paper's model omits it).
	Side int64
	// Tier and SideTier split the primary and side volumes by link tier
	// (intra-node, inter-node). Only populated by PriceOn with a
	// topology; under flat pricing everything is tier 0.
	Tier     [topo.NumTiers]int64
	SideTier [topo.NumTiers]int64
	// Time is how far the op advanced the latest device clock.
	Time float64
}

// Cost is a priced schedule: the per-op breakdown plus totals.
type Cost struct {
	PerOp                          []OpCost
	AllToAll, AllGather, AllReduce int64
	Side                           int64
	Tier                           [topo.NumTiers]int64
	SideTier                       [topo.NumTiers]int64
	Time                           float64
}

// RDMBytes returns the volume the §IV cost model counts — all-to-all
// redistributions plus column-group allgathers — directly comparable to
// costmodel.EvaluateEngine's CommVolumeBytes and to the fabric's
// Volume(OpAllToAll) + Volume(OpAllGather).
func (c Cost) RDMBytes() int64 { return c.AllToAll + c.AllGather }

// Price prices the schedule on the flat fabric. nnz is the global
// stored-entry count of the propagation operator (for SpMM kernel
// time); h is the hardware model time is drawn from.
func (s *Schedule) Price(nnz int64, h *hw.Model) Cost {
	return s.PriceOn(nnz, h, nil)
}

// PriceOn prices the schedule on an interconnect topology (nil = flat):
// one sequential replay epoch on ApproxCensus(nnz), so every collective
// is priced as the live fabric prices it under the default Auto
// algorithm selection, and the op byte volumes — split per link tier on
// a topology — equal the fabric's meters for the same schedule exactly.
// Time is the epoch's latest device clock.
func (s *Schedule) PriceOn(nnz int64, h *hw.Model, tp *topo.Topology) Cost {
	e := newEngine(s, nil, s.ApproxCensus(nnz), h, tp, 1, nil)
	e.perOp = make([]OpCost, 0, s.Ops())
	e.run(false, 0, nil, "")
	t := e.meters.since(&Meters{}, tp != nil)
	return Cost{
		PerOp: e.perOp, AllToAll: t.AllToAll, AllGather: t.AllGather, AllReduce: t.AllReduce,
		Side: t.Side, Tier: t.Tier, SideTier: t.SideTier, Time: e.wasClock,
	}
}

// priceOp appends the op the engine just replayed to its per-op costs.
func (e *engine) priceOp() {
	oc := e.meters.since(&e.was, e.tp != nil)
	oc.Step, oc.Kind = e.op.Step, e.op.Kind
	clock := e.wasClock
	for _, c := range e.clk {
		clock = max(clock, c)
	}
	oc.Time = clock - e.wasClock
	e.was, e.wasClock = e.meters, clock
	e.perOp = append(e.perOp, oc)
}

// since returns the bytes the meters gained since was, by collective
// class and side channel, and by link tier when tiers is set (the flat
// fabric meters everything on tier 0 and leaves the split unpopulated).
func (m *Meters) since(was *Meters, tiers bool) OpCost {
	oc := OpCost{
		AllToAll:  m.Volume[hw.OpAllToAll] - was.Volume[hw.OpAllToAll],
		AllGather: m.Volume[hw.OpAllGather] - was.Volume[hw.OpAllGather],
		AllReduce: m.Volume[hw.OpAllReduce] - was.Volume[hw.OpAllReduce],
	}
	for k := range m.SideVolume {
		oc.Side += m.SideVolume[k] - was.SideVolume[k]
		if !tiers {
			continue
		}
		for t := range oc.Tier {
			oc.Tier[t] += m.TierVolume[t][k] - was.TierVolume[t][k]
			oc.SideTier[t] += m.SideTierVolume[t][k] - was.SideTierVolume[t][k]
		}
	}
	return oc
}

// weightBytes returns the model's total weight bytes (KUpdate charges
// a memory pass over four times that, as core.execOp does).
func (s *Schedule) weightBytes() int64 {
	var b int64
	for l := 1; l < len(s.Dims); l++ {
		b += int64(s.Dims[l-1]) * int64(s.Dims[l]) * 4
	}
	if s.SAGE {
		b *= 2
	}
	return b
}
