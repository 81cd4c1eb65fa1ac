package plan

import (
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// resourceTable is a DAG's per-(node, rank) overlap-resource
// classification under one topology, built once and kept on the DAG,
// so every overlapped replay of the DAG and the live overlap executor's
// lane map (core's walk, through DAG.OpResource) read one table.
// opResource depends on the rank only for KSpMM, and there only through
// the rank's column group (its allgather) and not the op: the table
// stores one resource per node, and one per rank that every such KSpMM
// node shares.
type resourceTable struct {
	tp   *topo.Topology
	node []hw.Resource // colRes: the rank's column group's resource
	col  []hw.Resource // per rank; nil when P/RA < 2
}

// colRes marks a node whose resource is its rank's column group's.
const colRes = hw.NumResources

// resources returns the DAG's resource table under a topology (nil =
// flat), building it on the first call for that topology.
func (d *DAG) resources(tp *topo.Topology) *resourceTable {
	if t := d.res; t != nil && t.tp == tp {
		return t
	}
	s := d.Sched
	t := &resourceTable{tp: tp, node: make([]hw.Resource, len(d.Nodes))}
	if s.P/s.RA > 1 {
		t.col = make([]hw.Resource, s.P)
		for j := range s.RA {
			res := s.colLinkRes(j, tp)
			for _, r := range dist.ColGroup(s.P, s.RA, j) {
				t.col[r] = res
			}
		}
	}
	for i := range d.Nodes {
		op := d.Nodes[i].Op
		if op.Kind == KSpMM && t.col != nil {
			t.node[i] = colRes
		} else {
			t.node[i] = s.opResource(op, 0, tp)
		}
	}
	d.res = t
	return t
}

// at returns node's resource on rank — opResource(node's op, rank).
func (t *resourceTable) at(node, rank int) hw.Resource {
	if res := t.node[node]; res != colRes {
		return res
	}
	return t.col[rank]
}

// OpResource returns the device resource node i occupies on rank under
// the overlap executor, read off the DAG's resource table for tp (nil =
// flat): ops that reach the fabric bind to the link engine of their
// collective's tier, everything else to compute (opResource).
func (d *DAG) OpResource(i, rank int, tp *topo.Topology) hw.Resource {
	return d.resources(tp).at(i, rank)
}
