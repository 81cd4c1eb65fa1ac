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
			// readReg: the op reads r's current tile data — it needs the
			// register assigned (RAW on the pointer) and the latest data
			// version of its cell (RAW on the tile).
			readReg := func(r Reg) {
				dep(b.defNode[r])
				c := b.cellOf[r]
				if w, ok := b.lastWrite[c]; ok {
					dep(w)
				}
				b.readers[c] = append(b.readers[c], n)
			}
			// defReg: the op assigns r a freshly produced tile.
			defReg := func(r Reg) {
				c := b.alloc()
				b.cellOf[r] = c
				b.defNode[r] = n
				b.lastWrite[c] = n
			}
			// aliasReg: the op assigns dst the same tile a holds
			// (pointer copy, no data touched) — it commutes with data
			// mutations of the cell, so the only edge is the pointer
			// definition of a.
			aliasReg := func(dst, a Reg) {
				dep(b.defNode[a])
				b.cellOf[dst] = b.cellOf[a]
				b.defNode[dst] = n
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
			readCell := func(c int) {
				if w, ok := b.lastWrite[c]; ok {
					dep(w)
				}
				b.readers[c] = append(b.readers[c], n)
			}
			switch op.Kind {
			case KInput:
				defReg(op.Dst)
			case KRedist:
				if op.From.Normalize(s.P) == op.To.Normalize(s.P) {
					// The executor's Redistribute returns the operand
					// Mat unchanged: a pure alias.
					aliasReg(op.Dst, op.A)
				} else {
					readReg(op.A)
					defReg(op.Dst)
				}
			case KSpMM, KSpMMABC:
				readReg(op.A)
				defReg(op.Dst)
			case KGEMM:
				readReg(op.A)
				readCell(b.wCell[op.Weight])
				defReg(op.Dst)
			case KGradGEMM:
				readReg(op.A)
				readReg(op.B)
				defReg(op.Dst)
			case KAllReduceGrad:
				readReg(op.A)
				writeCell(b.gCell[op.Weight])
			case KReLU:
				dep(b.defNode[op.A])
				writeCell(b.cellOf[op.A])
			case KReLUGrad:
				readReg(op.B)
				dep(b.defNode[op.A])
				writeCell(b.cellOf[op.A])
			case KAdd:
				readReg(op.B)
				dep(b.defNode[op.A])
				writeCell(b.cellOf[op.A])
			case KMemoize, KReuse:
				aliasReg(op.Dst, op.A)
			case KLoss:
				readReg(op.A)
				defReg(op.Dst)
			case KMemWrite:
				readReg(op.A)
			case KUpdate:
				for w := range b.wCell {
					readCell(b.gCell[w])
					writeCell(b.wCell[w])
				}
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
// Parsed, the DAG re-derived with BuildDAG, and the listed edges
// verified to match the derivation exactly — a dump whose edges
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
	if got, want := d.String()[i+1:], text[i+1:]; got != want {
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

func (s *Schedule) world() []int {
	w := make([]int, s.P)
	for i := range w {
		w[i] = i
	}
	return w
}

// linkRes maps a collective's group to the device resource its op
// occupies: the link engine of the slowest tier any two members
// communicate over (every member of one group agrees on it, which is
// what keeps per-lane rendezvous order rank-consistent in the overlap
// executor). Groups of one device never reach the fabric — compute.
func (s *Schedule) linkRes(group []int, tp *topo.Topology) hw.Resource {
	if len(group) < 2 {
		return hw.ResCompute
	}
	if tp != nil && tp.WorstTier(group) == topo.TierInter {
		return hw.ResLinkInter
	}
	return hw.ResLinkIntra
}

// OpResource classifies which of rank's device resources the op
// occupies under the overlap executor: ops that reach the fabric bind
// to the link engine of their collective's tier (the whole op,
// including its local pack/unpack kernels, runs on that lane so its
// charge order stays exactly the sequential interpreter's); everything
// else is compute. The classification depends on the rank only through
// its column group (KSpMM), and all members of any one collective's
// group always agree on the resource.
func (s *Schedule) OpResource(op *Op, rank int, tp *topo.Topology) hw.Resource {
	switch op.Kind {
	case KRedist:
		from, to := op.From.Normalize(s.P), op.To.Normalize(s.P)
		if from == to || from == dist.R {
			// Alias, or replicated source scattering locally: no fabric.
			return hw.ResCompute
		}
		// Regrid all-to-all, or replicate's world allgather.
		return s.linkRes(s.world(), tp)
	case KSpMM:
		if s.P/s.RA < 2 {
			// Singleton column group: no allgather, no group to build.
			return hw.ResCompute
		}
		return s.linkRes(s.colGroup(rank), tp)
	case KSpMMABC:
		// The structural exchange is a world all-to-all (two rounds).
		return s.linkRes(s.world(), tp)
	case KAllReduceGrad, KLoss:
		return s.linkRes(s.world(), tp)
	case KReLUGrad:
		if op.From.Normalize(s.P) != op.To.Normalize(s.P) {
			return s.linkRes(s.world(), tp)
		}
	}
	return hw.ResCompute
}
