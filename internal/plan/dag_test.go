package plan

import (
	"fmt"
	"strings"
	"testing"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// dagCorpus compiles a representative schedule population: every
// corner the DAG builder has to classify — all-SpMM-first through
// all-GEMM-first orderings, naive and optimized, single device through
// P=8, reduced replication, GraphSAGE, memoization on and off, with
// and without the input gradient.
func dagCorpus() []*Schedule {
	var out []*Schedule
	for _, cfg := range []int{0, 3, 5, 10, 15} {
		for _, p := range []int{1, 2, 4, 8} {
			sp := spec2(64, cfg, p, p, true)
			out = append(out, Compile(sp), Compile(sp).Optimize())
		}
	}
	out = append(out,
		Compile(spec2(64, 6, 8, 2, true)).Optimize(),
		Compile(spec2(64, 9, 8, 4, false)).Optimize(),
		Compile(Spec{N: 48, Dims: []int{8, 6, 4}, Config: costmodel.ConfigFromID(5, 2),
			P: 4, RA: 2, SAGE: true, Memoize: true, InputGrad: true}).Optimize(),
		Compile(Spec{N: 32, Dims: []int{8, 4}, Config: costmodel.ConfigFromID(1, 1),
			P: 2, RA: 2, Memoize: false}),
	)
	return out
}

// opRW derives each op's read and write sets over abstract locations —
// register pointers ("reg:"), aliased tile storage ("st:"), weight
// slots ("w:") and gradient slots ("g:") — straight from the
// documented executor semantics (core.Engine.execOp), independently of
// the DAG builder's incremental bookkeeping. Aliasing ops (KMemoize,
// KReuse, layout-preserving KRedist) copy the pointer without touching
// tile data, so they read only the register.
func opRW(s *Schedule) (reads, writes []map[string]bool) {
	st := make(map[Reg]int)
	next := 0
	fresh := func(r Reg) int { next++; st[r] = next; return next }
	for i := range s.Sections {
		for j := range s.Sections[i].Ops {
			op := &s.Sections[i].Ops[j]
			rd := map[string]bool{}
			wr := map[string]bool{}
			regR := func(r Reg) { rd[fmt.Sprintf("reg:%d", r)] = true }
			dataR := func(r Reg) { regR(r); rd[fmt.Sprintf("st:%d", st[r])] = true }
			dataRW := func(r Reg) { dataR(r); wr[fmt.Sprintf("st:%d", st[r])] = true }
			def := func(r Reg) { wr[fmt.Sprintf("reg:%d", r)] = true; wr[fmt.Sprintf("st:%d", fresh(r))] = true }
			alias := func(dst, a Reg) { regR(a); wr[fmt.Sprintf("reg:%d", dst)] = true; st[dst] = st[a] }
			switch op.Kind {
			case KInput:
				def(op.Dst)
			case KRedist:
				if op.From.Normalize(s.P) == op.To.Normalize(s.P) {
					alias(op.Dst, op.A)
				} else {
					dataR(op.A)
					def(op.Dst)
				}
			case KSpMM, KLoss:
				dataR(op.A)
				def(op.Dst)
			case KGEMM:
				dataR(op.A)
				rd[fmt.Sprintf("w:%d", op.Weight)] = true
				def(op.Dst)
			case KGradGEMM:
				dataR(op.A)
				dataR(op.B)
				def(op.Dst)
			case KAllReduceGrad:
				dataR(op.A)
				wr[fmt.Sprintf("g:%d", op.Weight)] = true
			case KReLU:
				dataRW(op.A)
			case KReLUGrad, KAdd:
				dataR(op.B)
				dataRW(op.A)
			case KMemoize, KReuse:
				alias(op.Dst, op.A)
			case KMemWrite:
				dataR(op.A)
			case KUpdate:
				for w := 0; w < s.NumWeights; w++ {
					rd[fmt.Sprintf("g:%d", w)] = true
					rd[fmt.Sprintf("w:%d", w)] = true
					wr[fmt.Sprintf("w:%d", w)] = true
				}
			}
			reads = append(reads, rd)
			writes = append(writes, wr)
		}
	}
	return reads, writes
}

func intersects(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

// TestBuildDAGPreservesSequentialDependencies is the DAG-construction
// property test: for every ordered op pair of every corpus schedule,
// either the pair provably commutes (disjoint read/write sets under
// the independent oracle) or the later op is reachable from the
// earlier through DAG edges. Conversely every direct edge corresponds
// to a real dependence — no spurious serialization. Structural
// invariants (deps sorted, deduplicated, strictly backwards: acyclic
// by construction) are asserted on the way.
func TestBuildDAGPreservesSequentialDependencies(t *testing.T) {
	for si, s := range dagCorpus() {
		d, err := BuildDAG(s)
		if err != nil {
			t.Fatalf("schedule %d: %v", si, err)
		}
		n := len(d.Nodes)
		reads, writes := opRW(s)
		if len(reads) != n {
			t.Fatalf("schedule %d: oracle saw %d ops, DAG %d", si, len(reads), n)
		}
		// anc[j] = every node reachable backwards from j.
		anc := make([]map[int]bool, n)
		for j := 0; j < n; j++ {
			node := &d.Nodes[j]
			if node.Index != j {
				t.Fatalf("schedule %d node %d: Index %d", si, j, node.Index)
			}
			anc[j] = map[int]bool{}
			prev := -1
			for _, m := range node.Deps {
				if m <= prev {
					t.Fatalf("schedule %d node %d: deps %v not strictly ascending", si, j, node.Deps)
				}
				if m >= j {
					t.Fatalf("schedule %d node %d: dep %d not backwards (cycle risk)", si, j, m)
				}
				prev = m
				anc[j][m] = true
				for a := range anc[m] {
					anc[j][a] = true
				}
				// Each direct edge must be a real dependence.
				if !intersects(writes[m], reads[j]) && !intersects(writes[m], writes[j]) &&
					!intersects(reads[m], writes[j]) {
					t.Fatalf("schedule %d: spurious edge s%d -> s%d (disjoint read/write sets)",
						si, d.Nodes[m].Op.Step, node.Op.Step)
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dep := intersects(writes[i], reads[j]) || intersects(writes[i], writes[j]) ||
					intersects(reads[i], writes[j])
				if dep && !anc[j][i] {
					t.Fatalf("schedule %d: sequential dependency s%d -> s%d (%v -> %v) lost by the DAG",
						si, d.Nodes[i].Op.Step, d.Nodes[j].Op.Step, d.Nodes[i].Op.Kind, d.Nodes[j].Op.Kind)
				}
			}
		}
	}
}

// TestBuildDAGDeterministic rebuilds every corpus DAG from a reparsed
// schedule and requires identical dumps: the derivation depends only on
// the schedule text, never on map iteration order or prior state.
func TestBuildDAGDeterministic(t *testing.T) {
	for si, s := range dagCorpus() {
		a := MustBuildDAG(s).String()
		s2, err := Parse(s.String())
		if err != nil {
			t.Fatalf("schedule %d: %v", si, err)
		}
		if b := MustBuildDAG(s2).String(); a != b {
			t.Fatalf("schedule %d: DAG not deterministic:\n--- first\n%s--- second\n%s", si, a, b)
		}
	}
}

// TestParseDAGRoundTrip pins the String/ParseDAG fixed point and the
// edge-verification property: a dump whose edges section disagrees
// with the schedule's own derivation must be rejected.
func TestParseDAGRoundTrip(t *testing.T) {
	s := Compile(spec2(64, 5, 4, 4, true)).Optimize()
	d := MustBuildDAG(s)
	text := d.String()
	d2, err := ParseDAG(text)
	if err != nil {
		t.Fatal(err)
	}
	if d2.String() != text {
		t.Fatalf("ParseDAG round trip not a fixed point:\n--- first\n%s--- second\n%s", text, d2.String())
	}
	if _, err := ParseDAG(s.String()); err == nil {
		t.Fatal("ParseDAG accepted a dump with no edges section")
	}
	// Drop one edge line: the remaining edges no longer match the
	// schedule-derived DAG.
	lines := strings.Split(text, "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		if strings.Contains(lines[i], "<-") {
			lines = append(lines[:i], lines[i+1:]...)
			break
		}
	}
	if _, err := ParseDAG(strings.Join(lines, "\n")); err == nil {
		t.Fatal("ParseDAG accepted edges that disagree with the schedule")
	}
}

// TestOpResourceGroupConsistency is the overlap executor's
// deadlock-freedom precondition: for every collective-bearing op, all
// members of the op's group on any topology agree on the resource the
// op occupies (the resource is a function of the group, not the rank).
// The DAG's resource table, which the replay and the live overlap
// executor both read, must hold exactly that classification.
func TestOpResourceGroupConsistency(t *testing.T) {
	spec8x4 := topo.MustParseSpec("8x4:nvlink,ib")
	for si, s := range dagCorpus() {
		var tps []*topo.Topology
		tps = append(tps, nil)
		if s.P <= 32 {
			tps = append(tps, spec8x4.MustTopology(s.P))
		}
		d := MustBuildDAG(s)
		world := make([]int, s.P)
		for r := range world {
			world[r] = r
		}
		for _, tp := range tps {
			for i := range d.Nodes {
				for r := 0; r < s.P; r++ {
					if got, want := d.OpResource(i, r, tp), s.opResource(d.Nodes[i].Op, r, tp); got != want {
						t.Fatalf("schedule %d node %d rank %d: table %v, opResource %v", si, i, r, got, want)
					}
				}
			}
			for i := range s.Sections {
				for j := range s.Sections[i].Ops {
					op := &s.Sections[i].Ops[j]
					var group []int
					switch op.Kind {
					case KSpMM:
						// Per-rank groups: members must agree pairwise.
						for r := 0; r < s.P; r++ {
							res := s.opResource(op, r, tp)
							for _, q := range s.colGroup(r) {
								if got := s.opResource(op, q, tp); got != res {
									t.Fatalf("schedule %d s%d: rank %d resource %v, group member %d %v",
										si, op.Step, r, res, q, got)
								}
							}
						}
						continue
					default:
						group = world
					}
					res := s.opResource(op, group[0], tp)
					for _, r := range group[1:] {
						if got := s.opResource(op, r, tp); got != res {
							t.Fatalf("schedule %d s%d (%v): rank %d resource %v, rank %d %v",
								si, op.Step, op.Kind, group[0], res, r, got)
						}
					}
				}
			}
		}
	}
}

// TestChooseOverlapDisagrees pins a problem shape where sequential and
// overlap pricing disagree on the best Table IV row: a wide hidden
// layer on 4 devices of the 8x4 reference machine. Row 10 (fwd[DS]
// bwd[SD]) moves the fewest bytes end to end, but row 5 (fwd[SD]
// bwd[DS]) exposes its redistribution earlier, so its DAG critical path
// is shorter — the overlap executor should train with 5 even though the
// sequential interpreter is (marginally) faster with 10. The same shape
// is goldened in `rdminfo -plan -overlap` output.
func TestChooseOverlapDisagrees(t *testing.T) {
	h := hw.A6000()
	tp := topo.MustParseSpec("8x4:nvlink,ib").MustTopology(4)
	sp := Spec{N: 512, Dims: []int{32, 256, 8}, P: 4, RA: 4, Memoize: true, InputGrad: true}
	seq := Choose(sp, 65536, h, tp, false).ID()
	ovl := Choose(sp, 65536, h, tp, true).ID()
	if seq != 10 || ovl != 5 {
		t.Fatalf("Choose: sequential %d, overlap %d; want 10 and 5", seq, ovl)
	}
}

// TestPriceDAGOverlapNeverSlower prices every corpus DAG flat and
// hierarchical: the critical path can never exceed the sequential
// replay (overlap only removes idle waiting), and on a single device
// there is nothing to overlap, so the two are equal.
func TestPriceDAGOverlapNeverSlower(t *testing.T) {
	h := hw.A6000()
	spec8x4 := topo.MustParseSpec("8x4:nvlink,ib")
	for si, s := range dagCorpus() {
		d := MustBuildDAG(s)
		cen := s.ApproxCensus(int64(4 * s.N))
		for _, tp := range []*topo.Topology{nil, spec8x4.MustTopology(s.P)} {
			c := d.PriceDAGOn(cen, h, tp)
			if c.Makespan > c.SeqTime {
				t.Fatalf("schedule %d: critical path %v exceeds sequential %v", si, c.Makespan, c.SeqTime)
			}
			if s.P == 1 && c.Makespan != c.SeqTime {
				t.Fatalf("schedule %d: P=1 overlap %v != sequential %v", si, c.Makespan, c.SeqTime)
			}
			if c.Efficiency() < 0 || c.Efficiency() >= 1 {
				t.Fatalf("schedule %d: efficiency %v out of range", si, c.Efficiency())
			}
		}
	}
}
