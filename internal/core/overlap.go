package core

import (
	"gnnrdm/internal/comm"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/tensor"
)

// This file is the overlap executor behind Options.Overlap: the epoch's
// ops run on per-resource device lanes (compute, intra link, inter link
// — hw.Resource) instead of the device's one timeline, so a GEMM's clock
// runs while the NIC drains an all-reduce bucket. The executor is a
// walk: one loop on the device goroutine visits the DAG's nodes in
// schedule order, advances the node's lane to its dependencies' finish
// times and runs execOp there. That is the occupancy model of the replay
// engine (plan/replay.go), which is why the live clocks equal the priced
// critical path: a lane's clocks depend only on its op order and its
// dependencies' finish times, never on which host thread runs it.
// Numerics are untouched: every op runs the same execOp code in the
// sequential interpreter's order, and collectives keep their
// group-position reduction order.
//
// Deadlock freedom and fault handling are the sequential interpreter's:
// every rank enters its collectives in schedule order, whatever lanes
// they land on, and a crash (fault.Killed) or a survivor's
// *comm.FaultError panics on the device goroutine itself.

// PanelCensus computes the per-rank adjacency panel stored-entry counts
// of a problem under (P, RA) partitioning — the exact census the DAG
// pricer needs to reproduce the engine's SpMM charges (Engine
// extractPanels slices the same panels). ra = 0 means full replication
// (RA = P), mirroring Options.
func PanelCensus(prob *Problem, p, ra int) plan.Census {
	if ra == 0 {
		ra = p
	}
	gridL := dist.G(ra).Normalize(p)
	cen := plan.Census{NNZFwd: make([]int64, p), NNZBwd: make([]int64, p), NNZ: prob.A.NNZ()}
	for r := 0; r < p; r++ {
		rlo, rhi := dist.RowRange(gridL, p, r, prob.N())
		cen.NNZBwd[r] = prob.A.RowPtr[rhi] - prob.A.RowPtr[rlo]
		if at := prob.ATranspose; at != nil {
			cen.NNZFwd[r] = at.RowPtr[rhi] - at.RowPtr[rlo]
		} else {
			cen.NNZFwd[r] = cen.NNZBwd[r]
		}
	}
	return cen
}

// runOverlap executes one epoch's schedule over the device's resource
// lanes. regs and grads are the epoch's register file and gradient
// slots, same as the sequential path.
func (e *Engine) runOverlap(regs []*dist.Mat, grads []*tensor.Dense) {
	d, rank, tp := e.dag, e.dev.Rank, e.opts.Topology
	if d == nil {
		// First overlapped epoch: build the DAG, and a lane for each
		// resource this rank's ops occupy. Compute ops run on the device
		// itself.
		d = plan.MustBuildDAG(e.sched)
		e.dag, e.finish = d, make([]float64, len(d.Nodes))
		e.lanes[hw.ResCompute] = e.dev
		for i := range d.Nodes {
			if res := d.OpResource(i, rank, tp); e.lanes[res] == nil {
				e.lanes[res] = new(comm.Device)
			}
		}
	}
	// Fork each link lane in place at the base clock, with the run's
	// scope tags on its trace track.
	epoch := e.epoch - 1 // Epoch() tagged the base with its pre-increment value
	for res := hw.ResCompute + 1; res < hw.NumResources; res++ {
		if l := e.lanes[res]; l != nil {
			*l = *e.dev.Lane(int(res))
			l.TraceSetConfig(e.cfgTag)
			l.TraceSetEpoch(epoch)
		}
	}
	for i := range d.Nodes {
		n := &d.Nodes[i]
		lane := e.lanes[d.OpResource(i, rank, tp)]
		for _, dep := range n.Deps {
			lane.AdvanceClock(e.finish[dep])
		}
		lane.TraceSetStep(n.Op.Step)
		e.execOp(lane, n.Op, regs, grads)
		lane.TraceSetStep(0)
		e.finish[i] = lane.Clock()
	}
	// Rejoin the link lanes into the base timeline (clock = max, meters
	// summed): the occupancy join of the pricer's epoch boundary.
	for res := hw.ResCompute + 1; res < hw.NumResources; res++ {
		if l := e.lanes[res]; l != nil {
			e.dev.MergeLane(l)
		}
	}
}
