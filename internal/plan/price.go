package plan

import (
	"gnnrdm/internal/comm"
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

// Traffic is a byte ledger: what a priced op or schedule added to the
// replayed fabric's meters, or what a live fabric metered (TrafficOf).
type Traffic struct {
	// AllToAll, AllGather and AllReduce are the fabric byte volumes by
	// collective class, matching the simulator's meters exactly. Other
	// is the primary volume of every other kind; a replay books none.
	AllToAll, AllGather, AllReduce, Other int64
	// Side is byte-packed mask traffic on the fabric's side channel
	// (excluded from the primary meters, as the paper's model omits it).
	Side int64
	// Tier and SideTier split the primary and side volumes by link tier
	// (intra-node, inter-node); the flat fabric books everything on
	// tier 0.
	Tier     [topo.NumTiers]int64
	SideTier [topo.NumTiers]int64
}

// TrafficOf projects a fabric's meters onto the ledger.
func TrafficOf(m comm.Meters) Traffic { return since(&m, &comm.Meters{}) }

// Total returns the primary-channel byte total.
func (t Traffic) Total() int64 { return t.AllToAll + t.AllGather + t.AllReduce + t.Other }

// Add accumulates o into t.
func (t *Traffic) Add(o Traffic) {
	t.AllToAll += o.AllToAll
	t.AllGather += o.AllGather
	t.AllReduce += o.AllReduce
	t.Other += o.Other
	t.Side += o.Side
	for i := range t.Tier {
		t.Tier[i] += o.Tier[i]
		t.SideTier[i] += o.SideTier[i]
	}
}

// OpCost is the priced cost of one schedule step.
type OpCost struct {
	Step int
	Kind Kind
	Traffic
	// Time is how far the op advanced the latest device clock.
	Time float64
}

// Cost is a priced schedule: the per-op breakdown plus totals.
type Cost struct {
	PerOp []OpCost
	Traffic
	Time float64
}

// RDMBytes returns the volume the §IV cost model counts — all-to-all
// redistributions plus column-group allgathers — directly comparable to
// costmodel.EvaluateEngine's CommVolumeBytes and to the fabric's
// Meters.Volume[OpAllToAll] + Volume[OpAllGather].
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
	return s.priceOn(nnz, h, tp, nil)
}

// priceOn is PriceOn on a shared PriceCache (nil prices on a private
// one).
func (s *Schedule) priceOn(nnz int64, h *hw.Model, tp *topo.Topology, pc *PriceCache) Cost {
	e := newEngine(s, nil, s.ApproxCensus(nnz), h, tp, 1, pc)
	e.perOp = make([]OpCost, 0, s.Ops())
	e.run(false, 0, nil, "")
	return Cost{PerOp: e.perOp, Traffic: TrafficOf(e.meters), Time: e.wasClock}
}

// priceOp appends the op the engine just replayed to its per-op costs.
func (e *engine) priceOp() {
	clock := e.wasClock
	for _, c := range e.clk {
		clock = max(clock, c)
	}
	e.perOp = append(e.perOp, OpCost{
		Step: e.op.Step, Kind: e.op.Kind,
		Traffic: since(&e.meters, &e.was),
		Time:    clock - e.wasClock,
	})
	e.was, e.wasClock = e.meters, clock
}

// since returns the bytes the meters m gained since was, by collective
// class, side channel and link tier.
func since(m, was *comm.Meters) Traffic {
	var tr Traffic
	for k := range m.Volume {
		v := m.Volume[k] - was.Volume[k]
		switch hw.CollectiveKind(k) {
		case hw.OpAllToAll:
			tr.AllToAll += v
		case hw.OpAllGather:
			tr.AllGather += v
		case hw.OpAllReduce:
			tr.AllReduce += v
		default:
			tr.Other += v
		}
		tr.Side += m.SideVolume[k] - was.SideVolume[k]
		for t := range tr.Tier {
			tr.Tier[t] += m.TierVolume[t][k] - was.TierVolume[t][k]
			tr.SideTier[t] += m.SideTierVolume[t][k] - was.SideTierVolume[t][k]
		}
	}
	return tr
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
