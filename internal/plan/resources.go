package plan

import (
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// resourceTable is a DAG's per-(node, rank) overlap-resource
// classification under one topology, built once and kept on the DAG,
// so every overlapped replay of the DAG and the live overlap executor
// (core's runOverlap, through DAG.OpResource) read one table.
// opResource depends on the rank only for KSpMM, and there only through
// the rank's grid column (its column group's allgather) and not the op:
// the table stores one resource per node, and one per grid column that
// every such KSpMM node shares.
type resourceTable struct {
	tp   *topo.Topology
	ra   int
	node []hw.Resource // colRes: the rank's grid column's resource
	col  []hw.Resource // per grid column; nil when P/RA < 2
}

// colRes marks a node whose resource is its rank's grid column's.
const colRes = hw.NumResources

// resources returns the DAG's resource table under a topology (nil =
// flat), building it on the first call for that topology.
func (d *DAG) resources(tp *topo.Topology) *resourceTable {
	if t := d.res; t != nil && t.tp == tp {
		return t
	}
	s := d.Sched
	t := &resourceTable{tp: tp, ra: s.RA, node: make([]hw.Resource, len(d.Nodes))}
	if s.P/s.RA > 1 {
		t.col = make([]hw.Resource, s.RA)
		for j := range t.col {
			t.col[j] = s.colLinkRes(j, tp)
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
	return t.col[rank%t.ra]
}

// OpResource returns the device resource node i occupies on rank under
// the overlap executor, read off the DAG's resource table for tp (nil =
// flat): ops that reach the fabric bind to the link engine of their
// collective's tier, everything else to compute (opResource).
func (d *DAG) OpResource(i, rank int, tp *topo.Topology) hw.Resource {
	return d.resources(tp).at(i, rank)
}
