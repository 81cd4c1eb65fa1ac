package plan

import (
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// Choose picks the per-layer SpMM/GEMM ordering (§IV-B's model-driven
// selection, lifted from closed-form epoch terms to the op level) by
// compiling, optimizing and pricing every one of the 4^L
// costmodel.ConfigFromID orderings — each forward and backward slot
// independently, so mixed orderings are candidates like any other.
// Both objectives are read off the replay engine on the candidate's
// ApproxCensus: with overlap == false a candidate costs its sequential
// replay epoch (PriceOn's Time, PriceDAGOn's SeqTime); with overlap ==
// true, its dependency-DAG critical path (PriceDAGOn's Makespan), which
// can favour an ordering that moves more bytes but exposes them
// earlier. tp == nil prices the flat fabric. The first minimum in
// ascending ID wins, so the pick is deterministic.
func Choose(sp Spec, nnz int64, h *hw.Model, tp *topo.Topology, overlap bool) costmodel.Config {
	L := len(sp.Dims) - 1
	var best costmodel.Config
	var bestT float64
	for id := 0; id < costmodel.NumConfigs(L); id++ {
		s := sp
		s.Config = costmodel.ConfigFromID(id, L)
		sched := Compile(s).Optimize()
		var t float64
		if overlap {
			t = MustBuildDAG(sched).PriceDAGOn(sched.ApproxCensus(nnz), h, tp).Makespan
		} else {
			t = sched.PriceOn(nnz, h, tp).Time
		}
		if id == 0 || t < bestT {
			best, bestT = s.Config, t
		}
	}
	return best
}
