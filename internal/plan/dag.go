package plan

import (
	"fmt"
	"sort"
	"strings"

	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// This file lifts a compiled schedule from a linear op list to an
// explicit dependency DAG: edges derive from each op's read and write
// sets over registers (SSA pointer definitions), data cells (the
// storage registers alias — KMemoize/KReuse and same-layout KRedist
// share their operand's tile), weight buckets, and gradient buckets.
// Two ops with disjoint sets commute; the overlap executor
// (core.Options.Overlap) and the occupancy pricer (PriceDAGOn) may run
// them concurrently on different device resources. The schedule's own
// order is one valid topological order, and BuildDAG only ever adds
// edges pointing backwards in it, so the DAG is acyclic by
// construction and node index order is the canonical topo order
// everywhere below.

// DAGNode is one schedule op plus its dependency edges. Deps lists the
// indices (into DAG.Nodes) of every op that must finish before this op
// may start, sorted ascending and deduplicated; all are < the node's
// own index.
type DAGNode struct {
	Op    *Op
	Index int
	// Phase and Layer locate the op's section ("init", "fwd", "loss",
	// "bwd", "update"; layer 0 outside fwd/bwd).
	Phase string
	Layer int
	Deps  []int
}

// DAG is a schedule with explicit dependencies. Nodes appear in
// schedule order, which is a topological order of the edges.
type DAG struct {
	Sched *Schedule
	Nodes []DAGNode

	res *resourceTable // the last topology's resource table (resources.go)
}

// cell identifiers partition mutable state: each fresh register
// assignment opens a data cell (aliases share it), and each weight and
// gradient slot is its own cell.
type dagBuilder struct {
	s         *Schedule
	defNode   map[Reg]int // node that assigned the register (SSA)
	cellOf    map[Reg]int // data cell the register's tile lives in
	lastWrite map[int]int // cell -> last writing node
	readers   map[int][]int
	nextCell  int
	wCell     []int // weight-slot cells (read by KGEMM, written by KUpdate)
	gCell     []int // gradient-slot cells (written by KAllReduceGrad, read by KUpdate)
}

func newDagBuilder(s *Schedule) *dagBuilder {
	b := &dagBuilder{
		s:         s,
		defNode:   make(map[Reg]int, s.NumRegs),
		cellOf:    make(map[Reg]int, s.NumRegs),
		lastWrite: make(map[int]int),
		readers:   make(map[int][]int),
	}
	b.wCell = make([]int, s.NumWeights)
	b.gCell = make([]int, s.NumWeights)
	for i := range b.wCell {
		b.wCell[i] = b.alloc()
		b.gCell[i] = b.alloc()
	}
	return b
}

func (b *dagBuilder) alloc() int { c := b.nextCell; b.nextCell++; return c }

// BuildDAG derives the dependency DAG of a valid schedule. The
// derivation is deterministic: identical schedules produce identical
// DAGs. Invalid schedules (Validate fails) are rejected.
func BuildDAG(s *Schedule) (*DAG, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	d := &DAG{Sched: s, Nodes: make([]DAGNode, 0, s.Ops())}
	b := newDagBuilder(s)
	for i := range s.Sections {
		sec := &s.Sections[i]
		for j := range sec.Ops {
			op := &sec.Ops[j]
			n := len(d.Nodes)
			deps := map[int]struct{}{}
			dep := func(m int) { deps[m] = struct{}{} }
			// readCell: the op reads the cell's latest data version (RAW).
			readCell := func(c int) {
				if w, ok := b.lastWrite[c]; ok {
					dep(w)
				}
				b.readers[c] = append(b.readers[c], n)
			}
			// readReg: the op reads r's current tile data — it needs the
			// register assigned (RAW on the pointer) and the latest data
			// version of its cell (RAW on the tile).
			readReg := func(r Reg) {
				dep(b.defNode[r])
				readCell(b.cellOf[r])
			}
			// writeCell: the op overwrites the cell in place — WAW
			// against the previous writer and WAR against every reader
			// since.
			writeCell := func(c int) {
				if w, ok := b.lastWrite[c]; ok {
					dep(w)
				}
				for _, rd := range b.readers[c] {
					dep(rd)
				}
				b.lastWrite[c] = n
				b.readers[c] = nil
			}
			f := &opTable[op.Kind]
			// The executor's Redistribute returns an identity's operand
			// Mat unchanged: a pure alias.
			alias := f.dst == dstAlias ||
				op.Kind == KRedist && op.From.Normalize(s.P) == op.To.Normalize(s.P)
			switch {
			case alias:
				// Dst gets A's tile (a pointer copy, no data touched): it
				// commutes with data mutations of the cell, so the only
				// edge is A's pointer definition.
				dep(b.defNode[op.A])
				b.cellOf[op.Dst] = b.cellOf[op.A]
				b.defNode[op.Dst] = n
			case f.inPlace:
				if f.regs > 1 {
					readReg(op.B)
				}
				dep(b.defNode[op.A])
				writeCell(b.cellOf[op.A])
			default:
				regs := [2]Reg{op.A, op.B}
				for _, r := range regs[:f.regs] {
					readReg(r)
				}
			}
			switch f.slots {
			case readsWeight:
				readCell(b.wCell[op.Weight])
			case writesGrad:
				writeCell(b.gCell[op.Weight])
			case updatesAll:
				for w := range b.wCell {
					readCell(b.gCell[w])
					writeCell(b.wCell[w])
				}
			}
			if f.dst == dstFresh && !alias {
				// A freshly produced tile opens a new cell.
				c := b.alloc()
				b.cellOf[op.Dst], b.defNode[op.Dst], b.lastWrite[c] = c, n, n
			}
			node := DAGNode{Op: op, Index: n, Phase: sec.Phase, Layer: sec.Layer}
			for m := range deps {
				node.Deps = append(node.Deps, m)
			}
			sort.Ints(node.Deps)
			d.Nodes = append(d.Nodes, node)
		}
	}
	return d, nil
}

// MustBuildDAG is BuildDAG panicking on error, for schedules known
// valid (Compile output).
func MustBuildDAG(s *Schedule) *DAG {
	d, err := BuildDAG(s)
	if err != nil {
		panic(err)
	}
	return d
}

// String renders the DAG as the schedule dump followed by an "edges"
// section listing, per dependent op in topo (schedule) order, its
// dependency steps: "  s9 <- s3 s7". Ops with no dependencies are
// omitted. The dump is a fixed point of ParseDAG.
func (d *DAG) String() string {
	var b strings.Builder
	b.WriteString(d.Sched.String())
	b.WriteString("edges\n")
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if len(n.Deps) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  s%d <-", n.Op.Step)
		for _, m := range n.Deps {
			fmt.Fprintf(&b, " s%d", d.Nodes[m].Op.Step)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseDAG loads a DAG from its String dump: the schedule part is
// Parsed, the DAG re-derived with BuildDAG, and the whole text
// verified to equal the derived DAG's dump — a dump whose edges
// disagree with the schedule's own dependency structure is an error,
// so a DAG can never deserialize into something its schedule would not
// produce.
func ParseDAG(text string) (*DAG, error) {
	i := strings.Index(text, "\nedges\n")
	if i < 0 {
		return nil, fmt.Errorf("plan: missing edges section")
	}
	s, err := Parse(text[:i+1])
	if err != nil {
		return nil, err
	}
	d, err := BuildDAG(s)
	if err != nil {
		return nil, err
	}
	if d.String() != text {
		return nil, fmt.Errorf("plan: edges disagree with schedule-derived DAG")
	}
	return d, nil
}

// colGroup returns the ranks sharing rank's grid column (ascending),
// matching the engine's column-group construction.
func (s *Schedule) colGroup(rank int) []int {
	j := rank % s.RA
	g := make([]int, 0, s.P/s.RA)
	for r := j; r < s.P; r += s.RA {
		g = append(g, r)
	}
	return g
}

// linkRes maps a collective over a sorted group from rank first to rank
// last, n members, to the device resource its op occupies: the link
// engine of the slowest tier any two members communicate over — a
// sorted group spans nodes iff its ends do, so topo.WorstTier reads
// them alone, and every member of one group agrees on it, which is what
// keeps per-lane rendezvous order rank-consistent in the overlap
// executor. Groups of one device never reach the fabric — compute.
func linkRes(tp *topo.Topology, first, last, n int) hw.Resource {
	if n < 2 {
		return hw.ResCompute
	}
	if tp != nil && tp.WorstTier([]int{first, last}) == topo.TierInter {
		return hw.ResLinkInter
	}
	return hw.ResLinkIntra
}

// colLinkRes is linkRes for rank's column group (colGroup): j, j+RA, …
// below P.
func (s *Schedule) colLinkRes(rank int, tp *topo.Topology) hw.Resource {
	if s.P/s.RA < 2 {
		// Singleton column groups: no allgather.
		return hw.ResCompute
	}
	j := rank % s.RA
	n := (s.P-1-j)/s.RA + 1
	return linkRes(tp, j, j+(n-1)*s.RA, n)
}

// opResource classifies which of rank's device resources the op
// occupies under the overlap executor: ops that reach the fabric bind
// to the link engine of their collective's tier (the whole op,
// including its local pack/unpack kernels, runs on that lane so its
// charge order stays exactly the sequential interpreter's); everything
// else is compute. The classification depends on the rank only through
// its column group (KSpMM), and all members of any one collective's
// group always agree on the resource. It allocates nothing: a group is
// classified by its ends.
func (s *Schedule) opResource(op *Op, rank int, tp *topo.Topology) hw.Resource {
	world := linkRes(tp, 0, s.P-1, s.P)
	switch op.Kind {
	case KRedist:
		from, to := op.From.Normalize(s.P), op.To.Normalize(s.P)
		if from == to || from == dist.R {
			// Alias, or replicated source scattering locally: no fabric.
			return hw.ResCompute
		}
		// Regrid all-to-all, or replicate's world allgather.
		return world
	case KSpMM:
		return s.colLinkRes(rank, tp)
	case KSpMMABC:
		// The structural exchange is a world all-to-all (two rounds).
		return world
	case KAllReduceGrad, KLoss:
		return world
	case KReLUGrad:
		if op.From.Normalize(s.P) != op.To.Normalize(s.P) {
			return world
		}
	}
	return hw.ResCompute
}
