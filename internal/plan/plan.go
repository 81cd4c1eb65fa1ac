// Package plan is the planner half of the engine's plan/execute split:
// it compiles one RDM training epoch — the forward pass, loss, backward
// pass, and optimizer update of a chosen Table IV ordering — into a
// typed, inspectable op schedule that internal/core interprets, the
// pricing model (price.go) audits byte-for-byte against the fabric
// meters, and the ordering chooser (choose.go) optimizes per layer.
//
// The IR is SSA-flavored: every op reads and writes virtual registers
// holding distributed matrices (dist.Mat tiles), each register is
// assigned exactly once, and layout pre/post-conditions are explicit
// (an SpMM consumes and produces the grid layout G(R_A); a GEMM is
// vertex-sliced Horizontal only; Redistribute converts between the
// two). Compile (compile.go) performs an abstract interpretation of the
// engine's epoch — tracking, per logical value, the set of layouts it
// has been materialized in, exactly like the executor's layout cache —
// so the naive schedule reproduces the engine op-for-op. The pass
// pipeline (passes.go) then elides redistributions whose source and
// target layouts already agree, removes dead ops (the G^0 chain when
// the input gradient is not wanted, memoizations nothing reuses), and
// renumbers registers and steps.
//
// One table, opTable, declares each op kind once: its dump syntax,
// operands, layout contract and DAG effect. The printer, the reader,
// Validate, BuildDAG, the passes and the compiler all read it; a new
// kind is one table row plus its replay arm (replay.go) and its
// core.execOp arm. Schedules serialize with String and load with
// Parse, which accepts exactly the text String emits (fuzzed by
// FuzzPlanString).
package plan

import (
	"fmt"
	"strings"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
)

// Reg is a virtual register holding one distributed matrix.
type Reg int

// None marks an unused register operand.
const None Reg = -1

// Kind enumerates the op vocabulary.
type Kind uint8

const (
	// KInput materializes the input features X in Layout (free: the
	// initial distribution is a data-loading choice, §IV-A1).
	KInput Kind = iota
	// KRedist converts A from layout From to layout To (the
	// divide/exchange/merge all-to-all of Fig. 7).
	KRedist
	// KSpMM aggregates: Dst = Aᵀ·A (Forward) or A·A (backward), both
	// operands grid-laid-out; with R_A < P it allgathers the dense
	// input within the column group first (§III-E).
	KSpMM
	// KGEMM multiplies by a replicated weight: Dst = A·W[Weight]
	// (or ·Wᵀ when TransW), Horizontal only — communication-free.
	KGEMM
	// KGradGEMM computes the local partial of a weight gradient,
	// Dst = (A tile)ᵀ·(B tile), both Horizontal; the partial is
	// logically Replicated pending the all-reduce.
	KGradGEMM
	// KAllReduceGrad sums partial A across all devices into weight
	// gradient slot Weight.
	KAllReduceGrad
	// KReLU applies ReLU to A in place.
	KReLU
	// KReLUGrad multiplies A in place by the ReLU derivative mask
	// derived from B (H^{l-1}): applied locally when From == To,
	// otherwise a byte-packed mask travels From -> To on the fabric's
	// side channel.
	KReLUGrad
	// KAdd accumulates B into A in place (the GraphSAGE self term).
	KAdd
	// KMemoize records A as the layer's retained forward intermediate
	// AᵀH^{l-1} (§III-C); a register alias, free at runtime.
	KMemoize
	// KReuse reads a memoized intermediate back in the backward pass;
	// the explicit rewrite that replaces engine-internal memo state.
	KReuse
	// KLoss computes the weighted softmax cross-entropy over Horizontal
	// logits A, all-reduces the scalar loss, and produces the scaled
	// gradient G^L in Dst.
	KLoss
	// KMemWrite charges the memory write-out of A (the forward T
	// materialization the engine prices after its redistribution).
	KMemWrite
	// KUpdate applies the Adam step to all weights from the accumulated
	// gradient slots.
	KUpdate
	// KSpMMABC is the aggregate-before-communicate fusion (DESIGN.md
	// §4g): at R_A = P every rank holds the full adjacency, so instead of
	// redistributing a row-sparse A to the grid, aggregating, and
	// redistributing back, each rank partial-aggregates its own live rows
	// locally and the ranks exchange only the structurally touched result
	// rows, summed on arrival. Dst = A_adj·A, both Horizontal. Produced
	// only by the opt-in ABC rewrite pass, never by Compile/Optimize.
	KSpMMABC
)

// Op is one schedule step. Fields beyond Kind/Step are used or ignored
// per kind; Rows and Cols are the global shape of the value produced
// (or mutated in place).
type Op struct {
	Kind Kind
	// Step is the 1-based schedule-global step ID assigned by Finalize;
	// the executor tags every trace event it emits for this op with it.
	Step int
	Dst  Reg
	A, B Reg
	// Rows, Cols is the global shape of Dst (or A for in-place ops).
	Rows, Cols int
	// Layout is the layout token of KInput, KSpMM, KSpMMABC, KReLU and
	// KAdd: Dst's layout, or A's for the in-place ops.
	Layout dist.Layout
	// From, To are KRedist's conversion and KReLUGrad's mask movement
	// (From == To means the mask is already local).
	From, To dist.Layout
	// Forward selects the forward operator Aᵀ for KSpMM.
	Forward bool
	// Sparse marks a KRedist as row-sparse: only the schedule's live rows
	// (dist.GenRows(SparseSeed, N, Live)) travel, through the two-round
	// metadata + variable-volume payload exchange
	// (dist.RedistributeSparse).
	Sparse bool
	// Weight is the weight (and gradient) slot of KGEMM, KGradGEMM and
	// KAllReduceGrad.
	Weight int
	// TransW transposes the weight in KGEMM.
	TransW bool
}

// Section groups the ops of one phase of the epoch, in execution order.
// Phase is one of "init", "fwd", "loss", "bwd", "update"; Layer is the
// 1-based layer of "fwd"/"bwd" sections and 0 otherwise.
type Section struct {
	Phase string
	Layer int
	Ops   []Op
}

// Schedule is a compiled epoch: the full op sequence plus the problem
// shape it was compiled for. The executor interprets Sections in order;
// N, Dims and the flags are retained so the schedule prices itself and
// round-trips through String/Parse.
type Schedule struct {
	P, RA int
	N     int
	Dims  []int
	// Config is the Table IV ordering the schedule implements; it may
	// be non-uniform across layers (planner-chosen mixed orderings).
	Config                   costmodel.Config
	SAGE, Memoize, InputGrad bool
	// Live > 0 declares the input features row-sparse: exactly Live of
	// the N rows are nonzero, and the live set is
	// dist.GenRows(SparseSeed, N, Live) — the canonical seeded generator
	// shared with the feature synthesizer and the executor, so the
	// pricer's assumed rows and the fabric's shipped rows coincide by
	// construction. Live == 0 is the dense schedule.
	Live       int
	SparseSeed int64
	// GridL is dist.G(RA) normalized for P: the SpMM-side layout.
	GridL dist.Layout
	// NumRegs is the register-file size the executor allocates.
	NumRegs int
	// NumWeights is the weight-slot count (L, or 2L with SAGE).
	NumWeights int
	// Outputs are registers that are results of the epoch beyond the
	// loss and weight gradients (G^0 when InputGrad); dead-code
	// elimination keeps their producing chains.
	Outputs  []Reg
	Sections []Section
}

// Layers returns L.
func (s *Schedule) Layers() int { return len(s.Dims) - 1 }

// Ops returns the total op count across sections.
func (s *Schedule) Ops() int {
	n := 0
	for i := range s.Sections {
		n += len(s.Sections[i].Ops)
	}
	return n
}

// dstMode is what an op does to its destination register.
type dstMode uint8

const (
	dstNone  dstMode = iota // no destination register
	dstFresh                // Dst is assigned a freshly produced tile
	dstAlias                // Dst is assigned A's tile (a pointer copy)
)

// argKind is the token an op line carries between its registers and its
// shape.
type argKind uint8

const (
	argNone   argKind = iota
	argLayout         // Layout, e.g. "G2"
	argFromTo         // From->To, e.g. "H->G2"
	argWeight         // Weight, e.g. "w1"
)

// lay names a layout relative to one op of a schedule (Schedule.layout).
type lay uint8

const (
	lAny  lay = iota // unconstrained
	lH               // Horizontal
	lR               // Replicated
	lGrid            // the schedule's grid layout GridL
	lArg             // the op's Layout
	lFrom            // the op's From
	lTo              // the op's To
)

// slotEffect is an op's effect on the weight and gradient slots.
type slotEffect uint8

const (
	slotsNone   slotEffect = iota
	readsWeight            // reads weight slot Weight
	writesGrad             // writes gradient slot Weight
	updatesAll             // reads every gradient slot, writes every weight slot
)

// flagKind names the Op flag a kind's variant mnemonic sets.
type flagKind uint8

const (
	flagNone flagKind = iota
	flagSparse
	flagForward
	flagTransW
)

// opForm declares one op kind. Its dump line reads
//
//	[rD =] mnemonic [rA [rB]] [arg] [RxC]
//
// and the same row drives the printer, the reader, Validate's layout
// contract, BuildDAG's read and write sets, dead-code elimination, and
// the compiler's operand canonicalization.
type opForm struct {
	mn     string   // mnemonic
	flagMn string   // mnemonic of the variant that sets flag
	flag   flagKind // the Op flag the variant sets
	dst    dstMode
	// inPlace ops mutate A's tile; the others only read their operands.
	inPlace bool
	regs    int // register operands: A, then B
	arg     argKind
	bare    bool   // the line ends without a shape
	want    lay    // the layout a Layout token must name (lAny: any)
	in      [2]lay // the layouts A and B must have
	def     lay    // the layout a fresh Dst is defined in
	slots   slotEffect
	// root ops have effects beyond their registers and are never dead.
	root bool
}

// opTable is the op vocabulary, one row per Kind.
var opTable = [...]opForm{
	KInput:         {mn: "input", dst: dstFresh, arg: argLayout, def: lArg},
	KRedist:        {mn: "redist", flagMn: "redist.sp", flag: flagSparse, dst: dstFresh, regs: 1, arg: argFromTo, in: [2]lay{lFrom}, def: lTo},
	KSpMM:          {mn: "spmm.bwd", flagMn: "spmm.fwd", flag: flagForward, dst: dstFresh, regs: 1, arg: argLayout, want: lGrid, in: [2]lay{lGrid}, def: lGrid},
	KGEMM:          {mn: "gemm", flagMn: "gemm.t", flag: flagTransW, dst: dstFresh, regs: 1, arg: argWeight, in: [2]lay{lH}, def: lH, slots: readsWeight},
	KGradGEMM:      {mn: "gradgemm", dst: dstFresh, regs: 2, arg: argWeight, in: [2]lay{lH, lH}, def: lR},
	KAllReduceGrad: {mn: "allreduce.grad", regs: 1, arg: argWeight, in: [2]lay{lR}, slots: writesGrad, root: true},
	KReLU:          {mn: "relu", inPlace: true, regs: 1, arg: argLayout, in: [2]lay{lArg}},
	KReLUGrad:      {mn: "relugrad", inPlace: true, regs: 2, arg: argFromTo, in: [2]lay{lTo, lFrom}},
	KAdd:           {mn: "add", inPlace: true, regs: 2, arg: argLayout, in: [2]lay{lArg, lArg}},
	KMemoize:       {mn: "memoize", dst: dstAlias, regs: 1},
	KReuse:         {mn: "reuse", dst: dstAlias, regs: 1},
	KLoss:          {mn: "loss", dst: dstFresh, regs: 1, in: [2]lay{lH}, def: lH, root: true},
	KMemWrite:      {mn: "memwrite", regs: 1, root: true},
	KUpdate:        {mn: "update", bare: true, slots: updatesAll, root: true},
	KSpMMABC:       {mn: "spmm.abc", dst: dstFresh, regs: 1, arg: argLayout, want: lH, in: [2]lay{lH}, def: lH},
}

// flagOf returns the Op field a flag names.
func (op *Op) flagOf(f flagKind) *bool {
	switch f {
	case flagSparse:
		return &op.Sparse
	case flagForward:
		return &op.Forward
	case flagTransW:
		return &op.TransW
	}
	return nil
}

// layout resolves a layout name for op; lAny resolves to the zero
// Layout.
func (s *Schedule) layout(l lay, op *Op) dist.Layout {
	switch l {
	case lH:
		return dist.H
	case lR:
		return dist.R
	case lGrid:
		return s.GridL
	case lArg:
		return op.Layout.Normalize(s.P)
	case lFrom:
		return op.From.Normalize(s.P)
	case lTo:
		return op.To.Normalize(s.P)
	}
	return dist.Layout{}
}

// OpString renders one op in the canonical dump grammar (without the
// step prefix).
func (op *Op) OpString() string {
	if int(op.Kind) >= len(opTable) {
		return "?"
	}
	f := &opTable[op.Kind]
	var b strings.Builder
	if f.dst != dstNone {
		fmt.Fprintf(&b, "r%d = ", op.Dst)
	}
	if f.flag != flagNone && *op.flagOf(f.flag) {
		b.WriteString(f.flagMn)
	} else {
		b.WriteString(f.mn)
	}
	regs := [2]Reg{op.A, op.B}
	for _, r := range regs[:f.regs] {
		fmt.Fprintf(&b, " r%d", r)
	}
	switch f.arg {
	case argLayout:
		fmt.Fprintf(&b, " %s", op.Layout)
	case argFromTo:
		fmt.Fprintf(&b, " %s->%s", op.From, op.To)
	case argWeight:
		fmt.Fprintf(&b, " w%d", op.Weight)
	}
	if !f.bare {
		fmt.Fprintf(&b, " %dx%d", op.Rows, op.Cols)
	}
	return b.String()
}

func b01(v bool) int {
	if v {
		return 1
	}
	return 0
}

// String renders the schedule in the deterministic, parseable dump
// grammar. The dump is a fixed point of Parse: Parse(s.String())
// re-prints byte-identically.
func (s *Schedule) String() string {
	var b strings.Builder
	dims := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		dims[i] = fmt.Sprint(d)
	}
	fmt.Fprintf(&b, "schedule p=%d ra=%d n=%d dims=%s config=%d sage=%d memoize=%d inputgrad=%d regs=%d weights=%d",
		s.P, s.RA, s.N, strings.Join(dims, ","), s.Config.ID(),
		b01(s.SAGE), b01(s.Memoize), b01(s.InputGrad), s.NumRegs, s.NumWeights)
	if s.Live > 0 {
		fmt.Fprintf(&b, " live=%d sseed=%d", s.Live, s.SparseSeed)
	}
	b.WriteByte('\n')
	if len(s.Outputs) > 0 {
		outs := make([]string, len(s.Outputs))
		for i, r := range s.Outputs {
			outs[i] = fmt.Sprintf("r%d", r)
		}
		fmt.Fprintf(&b, "outputs %s\n", strings.Join(outs, " "))
	}
	for i := range s.Sections {
		sec := &s.Sections[i]
		if sec.Layer > 0 {
			fmt.Fprintf(&b, "section %s %d\n", sec.Phase, sec.Layer)
		} else {
			fmt.Fprintf(&b, "section %s\n", sec.Phase)
		}
		for j := range sec.Ops {
			op := &sec.Ops[j]
			fmt.Fprintf(&b, "  s%d %s\n", op.Step, op.OpString())
		}
	}
	return b.String()
}

// Structural caps keeping Parse/Validate safe on adversarial (fuzzed)
// input: no single field may force large allocations downstream.
const (
	maxP    = 4096
	maxDim  = 1 << 24
	maxRegs = 1 << 20
	maxOps  = 1 << 20
)

func parseLayout(tok string) (dist.Layout, error) {
	switch {
	case tok == "H":
		return dist.H, nil
	case tok == "V":
		return dist.V, nil
	case tok == "R":
		return dist.R, nil
	case len(tok) > 1 && tok[0] == 'G':
		var pj int
		if _, err := fmt.Sscanf(tok[1:], "%d", &pj); err != nil || pj < 1 || pj > maxP {
			return dist.Layout{}, fmt.Errorf("plan: bad layout %q", tok)
		}
		return dist.G(pj), nil
	}
	return dist.Layout{}, fmt.Errorf("plan: bad layout %q", tok)
}

func parseReg(tok string) (Reg, error) {
	var r int
	if _, err := fmt.Sscanf(tok, "r%d", &r); err != nil || r < 0 || r >= maxRegs {
		return None, fmt.Errorf("plan: bad register %q", tok)
	}
	return Reg(r), nil
}

func parseWeight(tok string) (int, error) {
	var w int
	if _, err := fmt.Sscanf(tok, "w%d", &w); err != nil || w < 0 || w >= maxRegs {
		return 0, fmt.Errorf("plan: bad weight slot %q", tok)
	}
	return w, nil
}

func parseShape(tok string) (rows, cols int, err error) {
	if _, err := fmt.Sscanf(tok, "%dx%d", &rows, &cols); err != nil ||
		rows < 1 || cols < 1 || rows > maxDim || cols > maxDim {
		return 0, 0, fmt.Errorf("plan: bad shape %q", tok)
	}
	return rows, cols, nil
}

func parseFromTo(tok string) (from, to dist.Layout, err error) {
	i := strings.Index(tok, "->")
	if i < 0 {
		return from, to, fmt.Errorf("plan: bad layout pair %q", tok)
	}
	if from, err = parseLayout(tok[:i]); err != nil {
		return from, to, err
	}
	to, err = parseLayout(tok[i+2:])
	return from, to, err
}

// Parse loads a schedule from its String dump. It accepts exactly the
// text String emits: a schedule that does not re-print byte-identically
// (extra spaces, padded numbers, trailing tokens, a missing final
// newline) is an error. Parsed schedules are structurally validated
// (Validate) before being returned.
func Parse(text string) (*Schedule, error) {
	lines := strings.Split(text, "\n")
	if !strings.HasPrefix(lines[0], "schedule ") {
		return nil, fmt.Errorf("plan: missing schedule header")
	}
	s := &Schedule{}
	var dimsStr string
	var cfgID, sage, memo, igrad int
	if _, err := fmt.Sscanf(lines[0], "schedule p=%d ra=%d n=%d dims=%s config=%d sage=%d memoize=%d inputgrad=%d regs=%d weights=%d",
		&s.P, &s.RA, &s.N, &dimsStr, &cfgID, &sage, &memo, &igrad, &s.NumRegs, &s.NumWeights); err != nil {
		return nil, fmt.Errorf("plan: bad header: %v", err)
	}
	if s.P < 1 || s.P > maxP || s.RA < 1 || s.RA > s.P || s.P%s.RA != 0 {
		return nil, fmt.Errorf("plan: bad p=%d ra=%d", s.P, s.RA)
	}
	if s.N < 1 || s.N > maxDim || s.NumRegs < 0 || s.NumRegs > maxRegs ||
		s.NumWeights < 0 || s.NumWeights > maxRegs {
		return nil, fmt.Errorf("plan: header out of range")
	}
	s.SAGE, s.Memoize, s.InputGrad = sage == 1, memo == 1, igrad == 1
	// Sparse schedules append " live=N sseed=S" to the header.
	if i := strings.Index(lines[0], " live="); i >= 0 {
		if _, err := fmt.Sscanf(lines[0][i:], " live=%d sseed=%d", &s.Live, &s.SparseSeed); err != nil {
			return nil, fmt.Errorf("plan: bad sparse header: %v", err)
		}
		if s.Live < 1 || s.Live > s.N {
			return nil, fmt.Errorf("plan: bad sparse header %q", lines[0][i:])
		}
	}
	for _, d := range strings.Split(dimsStr, ",") {
		var v int
		if _, err := fmt.Sscanf(d, "%d", &v); err != nil || v < 1 || v > maxDim {
			return nil, fmt.Errorf("plan: bad dim %q", d)
		}
		s.Dims = append(s.Dims, v)
	}
	if len(s.Dims) < 2 || len(s.Dims) > 64 {
		return nil, fmt.Errorf("plan: need 2..64 dims, got %d", len(s.Dims))
	}
	L := s.Layers()
	if cfgID < 0 || cfgID >= costmodel.NumConfigs(L) {
		return nil, fmt.Errorf("plan: config %d out of range for L=%d", cfgID, L)
	}
	s.Config = costmodel.ConfigFromID(cfgID, L)
	s.GridL = dist.G(s.RA).Normalize(s.P)

	nops := 0
	for _, line := range lines[1:] {
		switch {
		case line == "":
			// The final newline's; the canonical check rejects any other.
		case strings.HasPrefix(line, "outputs "):
			for _, tok := range strings.Fields(line)[1:] {
				r, err := parseReg(tok)
				if err != nil {
					return nil, err
				}
				s.Outputs = append(s.Outputs, r)
			}
		case strings.HasPrefix(line, "section "):
			// A missing layer reads as 0; anything Sscanf skips fails the
			// canonical check below.
			sec := Section{}
			fmt.Sscanf(line, "section %s %d", &sec.Phase, &sec.Layer)
			layered := sec.Phase == "fwd" || sec.Phase == "bwd"
			if !layered && sec.Phase != "init" && sec.Phase != "loss" && sec.Phase != "update" ||
				layered != (sec.Layer > 0) || sec.Layer < 0 || sec.Layer > L {
				return nil, fmt.Errorf("plan: bad section line %q", line)
			}
			s.Sections = append(s.Sections, sec)
		case strings.HasPrefix(line, "  s"):
			if len(s.Sections) == 0 {
				return nil, fmt.Errorf("plan: op before any section")
			}
			if nops++; nops > maxOps {
				return nil, fmt.Errorf("plan: too many ops")
			}
			op, err := parseOp(strings.Fields(line))
			if err != nil {
				return nil, err
			}
			sec := &s.Sections[len(s.Sections)-1]
			sec.Ops = append(sec.Ops, op)
		default:
			return nil, fmt.Errorf("plan: bad line %q", line)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.String() != text {
		return nil, fmt.Errorf("plan: schedule text is not String's canonical dump")
	}
	return s, nil
}

// parseOp decodes one whitespace-split "sN [rD =] mnemonic ..." op line
// through its kind's opTable row.
func parseOp(f []string) (Op, error) {
	op := Op{Dst: None, A: None, B: None}
	bad := fmt.Errorf("plan: bad op line %q", strings.Join(f, " "))
	if len(f) < 2 {
		return op, bad
	}
	if _, err := fmt.Sscanf(f[0], "s%d", &op.Step); err != nil || op.Step < 1 || op.Step > maxOps {
		return op, bad
	}
	rest := f[1:]
	if len(rest) >= 3 && rest[1] == "=" {
		d, err := parseReg(rest[0])
		if err != nil {
			return op, bad
		}
		op.Dst, rest = d, rest[2:]
	}
	found, flag := false, false
	for k := range opTable {
		if f := &opTable[k]; rest[0] == f.mn || rest[0] == f.flagMn {
			op.Kind, found, flag = Kind(k), true, rest[0] == f.flagMn
			break
		}
	}
	form := &opTable[op.Kind]
	args := rest[1:]
	n := form.regs
	if form.arg != argNone {
		n++
	}
	if !form.bare {
		n++
	}
	if !found || (op.Dst != None) != (form.dst != dstNone) || len(args) != n {
		return op, bad
	}
	if flag {
		*op.flagOf(form.flag) = true
	}
	// The fusion is forward-only.
	op.Forward = op.Forward || op.Kind == KSpMMABC
	var err error
	if form.regs > 0 {
		op.A, err = parseReg(args[0])
	}
	if form.regs > 1 && err == nil {
		op.B, err = parseReg(args[1])
	}
	if err == nil {
		switch form.arg {
		case argLayout:
			op.Layout, err = parseLayout(args[form.regs])
		case argFromTo:
			op.From, op.To, err = parseFromTo(args[form.regs])
		case argWeight:
			op.Weight, err = parseWeight(args[form.regs])
		}
	}
	if err == nil && !form.bare {
		op.Rows, op.Cols, err = parseShape(args[n-1])
	}
	if err != nil {
		return op, bad
	}
	return op, nil
}

// Validate checks the schedule's structural invariants: in-range
// header fields, single assignment, definition before use, strictly
// increasing step IDs, weight slots in range, and each op's layout
// contract from its opTable row (SpMM operands grid-laid-out, GEMM
// operands Horizontal, Redistribute sources matching their register's
// layout). Compile output always validates; Parse rejects input that
// does not.
func (s *Schedule) Validate() error {
	if len(s.Dims) < 2 {
		return fmt.Errorf("plan: need at least one layer")
	}
	if s.Config.Layers() != s.Layers() {
		return fmt.Errorf("plan: config/dims layer mismatch")
	}
	if s.NumRegs > maxRegs || s.Ops() > maxOps {
		return fmt.Errorf("plan: schedule too large")
	}
	wantWeights := s.Layers()
	if s.SAGE {
		wantWeights *= 2
	}
	if s.NumWeights != wantWeights {
		return fmt.Errorf("plan: weights=%d, want %d", s.NumWeights, wantWeights)
	}
	layouts := make(map[Reg]dist.Layout, s.NumRegs)
	lastStep := 0
	use := func(r Reg, want lay, op *Op) error {
		l, ok := layouts[r]
		if !ok {
			return fmt.Errorf("plan: r%d used before definition", r)
		}
		if w := s.layout(want, op); want != lAny && l != w {
			return fmt.Errorf("plan: r%d has layout %s, op needs %s", r, l, w)
		}
		return nil
	}
	for i := range s.Sections {
		for j := range s.Sections[i].Ops {
			op := &s.Sections[i].Ops[j]
			if op.Step <= lastStep {
				return fmt.Errorf("plan: step %d not increasing", op.Step)
			}
			lastStep = op.Step
			if int(op.Kind) >= len(opTable) {
				return fmt.Errorf("plan: unknown op kind %d", op.Kind)
			}
			f := &opTable[op.Kind]
			switch {
			case op.Kind == KRedist && op.Sparse && s.Live <= 0:
				return fmt.Errorf("plan: sparse redist in a dense schedule (live=0)")
			case op.Kind == KSpMMABC && s.RA != s.P:
				return fmt.Errorf("plan: spmm.abc needs ra == p, have ra=%d p=%d", s.RA, s.P)
			case f.want != lAny && op.Layout.Normalize(s.P) != s.layout(f.want, op):
				return fmt.Errorf("plan: %s layout %s, want %s", f.mn, op.Layout, s.layout(f.want, op))
			case f.arg == argWeight && (op.Weight < 0 || op.Weight >= s.NumWeights):
				return fmt.Errorf("plan: weight slot %d out of range", op.Weight)
			}
			regs := [2]Reg{op.A, op.B}
			for k, r := range regs[:f.regs] {
				if err := use(r, f.in[k], op); err != nil {
					return err
				}
			}
			if f.dst == dstNone {
				continue
			}
			if op.Dst < 0 || int(op.Dst) >= s.NumRegs {
				return fmt.Errorf("plan: r%d out of range (regs=%d)", op.Dst, s.NumRegs)
			}
			if _, dup := layouts[op.Dst]; dup {
				return fmt.Errorf("plan: r%d assigned twice", op.Dst)
			}
			if f.dst == dstAlias {
				layouts[op.Dst] = layouts[op.A]
			} else {
				layouts[op.Dst] = s.layout(f.def, op)
			}
		}
	}
	for _, r := range s.Outputs {
		if err := use(r, lAny, nil); err != nil {
			return fmt.Errorf("plan: output %v", err)
		}
	}
	return nil
}

// clone deep-copies the schedule so passes can rewrite freely.
func (s *Schedule) clone() *Schedule {
	t := *s
	t.Dims = append([]int(nil), s.Dims...)
	t.Config = costmodel.ConfigFromID(s.Config.ID(), s.Layers())
	t.Outputs = append([]Reg(nil), s.Outputs...)
	t.Sections = make([]Section, len(s.Sections))
	for i := range s.Sections {
		t.Sections[i] = s.Sections[i]
		t.Sections[i].Ops = append([]Op(nil), s.Sections[i].Ops...)
	}
	return &t
}

// preferLayout returns the layout a value map's cache-filling
// redistribution reads from, in the executor cache's deterministic
// source preference: H, then V, then grids by ascending string key.
func preferLayout(have map[dist.Layout]Reg) dist.Layout {
	if _, ok := have[dist.H]; ok {
		return dist.H
	}
	if _, ok := have[dist.V]; ok {
		return dist.V
	}
	if len(have) == 0 {
		panic("plan: empty layout set")
	}
	var best dist.Layout
	first := true
	for l := range have {
		if first || l.String() < best.String() {
			best, first = l, false
		}
	}
	return best
}
