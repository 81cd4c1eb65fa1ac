package plan

import (
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// This file prices a dependency DAG exactly: PriceDAG* run the replay
// engine (replay.go) under both executors and report its per-device
// clocks, which equal the live fabric's (verify.CheckOverlapEquivalence).

// Census carries the per-rank quantities pricing cannot derive from
// the schedule alone: the adjacency row-panel stored-entry counts the
// engine charges its SpMMs with.
type Census struct {
	// NNZFwd and NNZBwd are each rank's forward (Aᵀ) and backward (A)
	// panel NNZ. Length P.
	NNZFwd, NNZBwd []int64
	// NNZ is the exact global stored-entry count. The KSpMMABC arm
	// derives its structural census from it on demand (an O(P) class
	// form); schedules without ABC ops ignore it.
	NNZ int64
	// ABCPairs and NNZABC, when set, override that estimate with an
	// explicit structural census: result rows shipped r→q (P×P) and each
	// rank's partial-aggregation stored-entry work.
	ABCPairs [][]int64
	NNZABC   []int64
}

// ApproxCensus estimates a census from a global stored-entry count by
// distributing nnz proportionally to each rank's panel rows, rounded
// up, alike in both directions (NNZFwd and NNZBwd share one read-only
// slice). It is the census PriceOn replays. Use the engine's real panel
// counts (core.PanelCensus) when clock equality with a live run
// matters.
func (s *Schedule) ApproxCensus(nnz int64) Census {
	panels := make([]int64, s.P)
	for r := range panels {
		rlo, rhi := dist.RowRange(s.GridL, s.P, r, s.N)
		panels[r] = (nnz*int64(rhi-rlo) + int64(s.N) - 1) / int64(s.N)
	}
	return Census{NNZFwd: panels, NNZBwd: panels, NNZ: nnz}
}

// DAGCost is the result of pricing a DAG on a topology: per-device
// overlapped and sequential finish times for the priced run, with
// their maxima. Charges depend on shapes, not values, so every epoch
// replays the same sequence — but ranks do not barrier at epoch
// boundaries, so an E-epoch run is not exactly E times one epoch;
// PriceDAGEpochs carries per-device clocks across boundaries the same
// way the live fabric does.
type DAGCost struct {
	PerDevice    []float64 // overlapped finish per rank
	Makespan     float64   // max over PerDevice
	PerDeviceSeq []float64
	SeqTime      float64
}

// Efficiency returns the overlap win as 1 - critical-path/sequential
// (0 = no op pair overlapped, larger = more comm hidden).
func (c DAGCost) Efficiency() float64 {
	if c.SeqTime <= 0 {
		return 0
	}
	return 1 - c.Makespan/c.SeqTime
}

// PriceDAGOn prices the DAG's critical path on an interconnect
// topology (nil = flat, exactly the pre-topology fabric formulas) and,
// from the same engine, the sequential schedule, so callers can
// compare like for like. Collectives are priced under the fabric's
// default Auto algorithm selection.
func (d *DAG) PriceDAGOn(cen Census, h *hw.Model, tp *topo.Topology) DAGCost {
	return d.PriceDAGEpochs(cen, h, tp, 1)
}

// PriceDAGEpochs prices an E-epoch run: the schedule replays E times
// with per-device clocks carried across epoch boundaries (the overlap
// executor rejoins its resource lanes at each boundary — an occupancy
// Join — but ranks never barrier, so later epochs start from skewed
// clocks exactly as the live fabric does). The result equals the live
// device clocks after E epochs, overlapped and sequential.
func (d *DAG) PriceDAGEpochs(cen Census, h *hw.Model, tp *topo.Topology, epochs int) DAGCost {
	return d.PriceDAGEpochsCached(cen, h, tp, epochs, nil)
}

// PriceDAGEpochsCached is PriceDAGEpochs sharing a PriceCache across
// calls (nil prices with a private cache): a sweep that prices many
// schedules on one (P, hardware, topology) context computes each
// regrid's byte census and topology routing once. Cached and
// uncached pricing are bit-identical. Pricing is a view of the replay
// engine (replay.go): one engine, run overlapped then sequentially
// with no epoch barriers, read off its clocks.
func (d *DAG) PriceDAGEpochsCached(cen Census, h *hw.Model, tp *topo.Topology, epochs int, pc *PriceCache) DAGCost {
	e := newEngine(d.Sched, d, cen, h, tp, epochs, pc)
	e.run(true, 0, nil, "")
	c := DAGCost{PerDevice: e.clocks()}
	e.run(false, 0, nil, "")
	c.PerDeviceSeq = e.clocks()
	for r := range c.PerDevice {
		c.Makespan = max(c.Makespan, c.PerDevice[r])
		c.SeqTime = max(c.SeqTime, c.PerDeviceSeq[r])
	}
	return c
}
