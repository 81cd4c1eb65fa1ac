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
// Schedules serialize with String and load with Parse; the two are a
// fixed point (Parse(s.String()).String() == s.String()), fuzzed by
// FuzzPlanString.
package plan

import (
	"fmt"
	"sort"
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
	// Layout is Dst's layout (KInput, KSpMM, KGEMM, KReLU, KAdd,
	// KMemoize, KReuse, KLoss, KGradGEMM).
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

// assigns reports whether ops of this kind define their Dst register
// (the rest mutate in place, charge costs, or reduce into weight
// slots).
func (k Kind) assigns() bool {
	switch k {
	case KInput, KRedist, KSpMM, KSpMMABC, KGEMM, KGradGEMM, KMemoize, KReuse, KLoss:
		return true
	}
	return false
}

func (k Kind) mnemonic(op *Op) string {
	switch k {
	case KInput:
		return "input"
	case KRedist:
		if op.Sparse {
			return "redist.sp"
		}
		return "redist"
	case KSpMM:
		if op.Forward {
			return "spmm.fwd"
		}
		return "spmm.bwd"
	case KSpMMABC:
		return "spmm.abc"
	case KGEMM:
		if op.TransW {
			return "gemm.t"
		}
		return "gemm"
	case KGradGEMM:
		return "gradgemm"
	case KAllReduceGrad:
		return "allreduce.grad"
	case KReLU:
		return "relu"
	case KReLUGrad:
		return "relugrad"
	case KAdd:
		return "add"
	case KMemoize:
		return "memoize"
	case KReuse:
		return "reuse"
	case KLoss:
		return "loss"
	case KMemWrite:
		return "memwrite"
	case KUpdate:
		return "update"
	}
	return "?"
}

// OpString renders one op in the canonical dump grammar (without the
// step prefix).
func (op *Op) OpString() string {
	shape := fmt.Sprintf("%dx%d", op.Rows, op.Cols)
	switch op.Kind {
	case KInput:
		return fmt.Sprintf("r%d = input %s %s", op.Dst, op.Layout, shape)
	case KRedist:
		return fmt.Sprintf("r%d = %s r%d %s->%s %s", op.Dst, op.Kind.mnemonic(op), op.A, op.From, op.To, shape)
	case KSpMM, KSpMMABC:
		return fmt.Sprintf("r%d = %s r%d %s %s", op.Dst, op.Kind.mnemonic(op), op.A, op.Layout, shape)
	case KGEMM:
		return fmt.Sprintf("r%d = %s r%d w%d %s", op.Dst, op.Kind.mnemonic(op), op.A, op.Weight, shape)
	case KGradGEMM:
		return fmt.Sprintf("r%d = gradgemm r%d r%d w%d %s", op.Dst, op.A, op.B, op.Weight, shape)
	case KAllReduceGrad:
		return fmt.Sprintf("allreduce.grad r%d w%d %s", op.A, op.Weight, shape)
	case KReLU:
		return fmt.Sprintf("relu r%d %s %s", op.A, op.Layout, shape)
	case KReLUGrad:
		return fmt.Sprintf("relugrad r%d r%d %s->%s %s", op.A, op.B, op.From, op.To, shape)
	case KAdd:
		return fmt.Sprintf("add r%d r%d %s %s", op.A, op.B, op.Layout, shape)
	case KMemoize:
		return fmt.Sprintf("r%d = memoize r%d %s", op.Dst, op.A, shape)
	case KReuse:
		return fmt.Sprintf("r%d = reuse r%d %s", op.Dst, op.A, shape)
	case KLoss:
		return fmt.Sprintf("r%d = loss r%d %s", op.Dst, op.A, shape)
	case KMemWrite:
		return fmt.Sprintf("memwrite r%d %s", op.A, shape)
	case KUpdate:
		return "update"
	}
	return "?"
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
		if _, err := fmt.Sscanf(tok[1:], "%d", &pj); err != nil || pj < 1 || pj > maxP || fmt.Sprintf("G%d", pj) != tok {
			return dist.Layout{}, fmt.Errorf("plan: bad layout %q", tok)
		}
		return dist.G(pj), nil
	}
	return dist.Layout{}, fmt.Errorf("plan: bad layout %q", tok)
}

func parseReg(tok string) (Reg, error) {
	var r int
	if _, err := fmt.Sscanf(tok, "r%d", &r); err != nil || r < 0 || r >= maxRegs || fmt.Sprintf("r%d", r) != tok {
		return None, fmt.Errorf("plan: bad register %q", tok)
	}
	return Reg(r), nil
}

func parseWeight(tok string) (int, error) {
	var w int
	if _, err := fmt.Sscanf(tok, "w%d", &w); err != nil || w < 0 || w >= maxRegs || fmt.Sprintf("w%d", w) != tok {
		return 0, fmt.Errorf("plan: bad weight slot %q", tok)
	}
	return w, nil
}

func parseShape(tok string) (rows, cols int, err error) {
	if _, err := fmt.Sscanf(tok, "%dx%d", &rows, &cols); err != nil ||
		rows < 1 || cols < 1 || rows > maxDim || cols > maxDim ||
		fmt.Sprintf("%dx%d", rows, cols) != tok {
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
// grammar String emits; anything else is an error. Parsed schedules are
// structurally validated (Validate) before being returned.
func Parse(text string) (*Schedule, error) {
	lines := strings.Split(text, "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "schedule ") {
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
	if sage|memo|igrad > 1 || sage < 0 || memo < 0 || igrad < 0 {
		return nil, fmt.Errorf("plan: bad flags")
	}
	s.SAGE, s.Memoize, s.InputGrad = sage == 1, memo == 1, igrad == 1
	// The sparse extension (" live=N sseed=S") is appended to the header
	// only for sparse schedules; the positional Sscanf above ignores
	// trailing tokens, so dense dumps and old parsers are unaffected.
	if i := strings.Index(lines[0], " live="); i >= 0 {
		if _, err := fmt.Sscanf(lines[0][i:], " live=%d sseed=%d", &s.Live, &s.SparseSeed); err != nil {
			return nil, fmt.Errorf("plan: bad sparse header: %v", err)
		}
		if s.Live < 1 || s.Live > s.N ||
			fmt.Sprintf(" live=%d sseed=%d", s.Live, s.SparseSeed) != lines[0][i:] {
			return nil, fmt.Errorf("plan: bad sparse header %q", lines[0][i:])
		}
	}
	for _, d := range strings.Split(dimsStr, ",") {
		var v int
		if _, err := fmt.Sscanf(d, "%d", &v); err != nil || v < 1 || v > maxDim || fmt.Sprint(v) != d {
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
	for ln := 1; ln < len(lines); ln++ {
		line := lines[ln]
		if line == "" {
			if ln != len(lines)-1 {
				return nil, fmt.Errorf("plan: blank line %d", ln+1)
			}
			continue
		}
		switch {
		case strings.HasPrefix(line, "outputs "):
			if ln != 1 || len(s.Outputs) > 0 {
				return nil, fmt.Errorf("plan: misplaced outputs line")
			}
			for _, tok := range strings.Fields(line)[1:] {
				r, err := parseReg(tok)
				if err != nil {
					return nil, err
				}
				s.Outputs = append(s.Outputs, r)
			}
			if len(s.Outputs) == 0 {
				return nil, fmt.Errorf("plan: empty outputs line")
			}
		case strings.HasPrefix(line, "section "):
			f := strings.Fields(line)
			sec := Section{}
			switch len(f) {
			case 2:
				sec.Phase = f[1]
				if sec.Phase != "init" && sec.Phase != "loss" && sec.Phase != "update" {
					return nil, fmt.Errorf("plan: section %q needs no layer or is unknown", f[1])
				}
			case 3:
				sec.Phase = f[1]
				if sec.Phase != "fwd" && sec.Phase != "bwd" {
					return nil, fmt.Errorf("plan: layered section %q unknown", f[1])
				}
				if _, err := fmt.Sscanf(f[2], "%d", &sec.Layer); err != nil || sec.Layer < 1 || sec.Layer > L || fmt.Sprint(sec.Layer) != f[2] {
					return nil, fmt.Errorf("plan: bad section layer %q", f[2])
				}
			default:
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
	return s, nil
}

// parseOp decodes one "sN mnemonic ..." op line (already
// whitespace-split).
func parseOp(f []string) (Op, error) {
	var op Op
	bad := func() (Op, error) { return op, fmt.Errorf("plan: bad op line %q", strings.Join(f, " ")) }
	if len(f) < 2 {
		return bad()
	}
	var step int
	if _, err := fmt.Sscanf(f[0], "s%d", &step); err != nil || step < 1 || step > maxOps || fmt.Sprintf("s%d", step) != f[0] {
		return bad()
	}
	op.Step = step
	op.Dst, op.A, op.B = None, None, None
	rest := f[1:]
	// Assignment forms: "rD = mnemonic ...".
	if len(rest) >= 3 && rest[1] == "=" {
		d, err := parseReg(rest[0])
		if err != nil {
			return bad()
		}
		op.Dst = d
		rest = rest[2:]
	}
	var err error
	mn := rest[0]
	args := rest[1:]
	reg := func(i int) (Reg, bool) {
		if i >= len(args) {
			return None, false
		}
		r, e := parseReg(args[i])
		if e != nil {
			return None, false
		}
		return r, true
	}
	shape := func(i int) bool {
		if i != len(args)-1 {
			return false
		}
		op.Rows, op.Cols, err = parseShape(args[i])
		return err == nil
	}
	ok := false
	switch mn {
	case "input":
		if op.Dst != None && len(args) == 2 {
			if op.Layout, err = parseLayout(args[0]); err == nil && shape(1) {
				ok = true
			}
		}
		op.Kind = KInput
	case "redist", "redist.sp":
		if a, k := reg(0); k && op.Dst != None && len(args) == 3 {
			op.A = a
			if op.From, op.To, err = parseFromTo(args[1]); err == nil && shape(2) {
				op.Layout = op.To
				ok = true
			}
		}
		op.Kind, op.Sparse = KRedist, mn == "redist.sp"
	case "spmm.fwd", "spmm.bwd":
		if a, k := reg(0); k && op.Dst != None && len(args) == 3 {
			op.A = a
			if op.Layout, err = parseLayout(args[1]); err == nil && shape(2) {
				ok = true
			}
		}
		op.Kind, op.Forward = KSpMM, mn == "spmm.fwd"
	case "spmm.abc":
		if a, k := reg(0); k && op.Dst != None && len(args) == 3 {
			op.A = a
			if op.Layout, err = parseLayout(args[1]); err == nil && shape(2) {
				ok = true
			}
		}
		op.Kind, op.Forward = KSpMMABC, true
	case "gemm", "gemm.t":
		if a, k := reg(0); k && op.Dst != None && len(args) == 3 {
			op.A = a
			if op.Weight, err = parseWeight(args[1]); err == nil && shape(2) {
				op.Layout = dist.H
				ok = true
			}
		}
		op.Kind, op.TransW = KGEMM, mn == "gemm.t"
	case "gradgemm":
		a, ka := reg(0)
		b, kb := reg(1)
		if ka && kb && op.Dst != None && len(args) == 4 {
			op.A, op.B = a, b
			if op.Weight, err = parseWeight(args[2]); err == nil && shape(3) {
				op.Layout = dist.R
				ok = true
			}
		}
		op.Kind = KGradGEMM
	case "allreduce.grad":
		if a, k := reg(0); k && op.Dst == None && len(args) == 3 {
			op.A = a
			if op.Weight, err = parseWeight(args[1]); err == nil && shape(2) {
				ok = true
			}
		}
		op.Kind = KAllReduceGrad
	case "relu":
		if a, k := reg(0); k && op.Dst == None && len(args) == 3 {
			op.A = a
			if op.Layout, err = parseLayout(args[1]); err == nil && shape(2) {
				ok = true
			}
		}
		op.Kind = KReLU
	case "relugrad":
		a, ka := reg(0)
		b, kb := reg(1)
		if ka && kb && op.Dst == None && len(args) == 4 {
			op.A, op.B = a, b
			if op.From, op.To, err = parseFromTo(args[2]); err == nil && shape(3) {
				op.Layout = op.To
				ok = true
			}
		}
		op.Kind = KReLUGrad
	case "add":
		a, ka := reg(0)
		b, kb := reg(1)
		if ka && kb && op.Dst == None && len(args) == 4 {
			op.A, op.B = a, b
			if op.Layout, err = parseLayout(args[2]); err == nil && shape(3) {
				ok = true
			}
		}
		op.Kind = KAdd
	case "memoize", "reuse", "loss":
		if a, k := reg(0); k && op.Dst != None && len(args) == 2 {
			op.A = a
			if shape(1) {
				op.Layout = dist.H
				ok = true
			}
		}
		switch mn {
		case "memoize":
			op.Kind = KMemoize
		case "reuse":
			op.Kind = KReuse
		default:
			op.Kind = KLoss
		}
	case "memwrite":
		if a, k := reg(0); k && op.Dst == None && len(args) == 2 {
			op.A = a
			if shape(1) {
				ok = true
			}
		}
		op.Kind = KMemWrite
	case "update":
		ok = op.Dst == None && len(args) == 0
		op.Kind = KUpdate
	default:
		return bad()
	}
	if !ok {
		return bad()
	}
	return op, nil
}

// Validate checks the schedule's structural invariants: in-range
// header fields, single assignment, definition before use, strictly
// increasing step IDs, weight slots in range, and per-op layout
// pre/post-conditions (SpMM operands grid-laid-out, GEMM operands
// Horizontal, Redistribute sources matching their register's layout).
// Compile output always validates; Parse rejects input that does not.
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
	shapes := make(map[Reg][2]int, s.NumRegs)
	lastStep := 0
	use := func(r Reg, want *dist.Layout) error {
		l, ok := layouts[r]
		if !ok {
			return fmt.Errorf("plan: r%d used before definition", r)
		}
		if want != nil && l != *want {
			return fmt.Errorf("plan: r%d has layout %s, op needs %s", r, l, *want)
		}
		return nil
	}
	def := func(r Reg, l dist.Layout, rows, cols int) error {
		if r < 0 || int(r) >= s.NumRegs {
			return fmt.Errorf("plan: r%d out of range (regs=%d)", r, s.NumRegs)
		}
		if _, dup := layouts[r]; dup {
			return fmt.Errorf("plan: r%d assigned twice", r)
		}
		layouts[r] = l
		shapes[r] = [2]int{rows, cols}
		return nil
	}
	for i := range s.Sections {
		for j := range s.Sections[i].Ops {
			op := &s.Sections[i].Ops[j]
			if op.Step <= lastStep {
				return fmt.Errorf("plan: step %d not increasing", op.Step)
			}
			lastStep = op.Step
			var err error
			switch op.Kind {
			case KInput:
				err = def(op.Dst, op.Layout.Normalize(s.P), op.Rows, op.Cols)
			case KRedist:
				from := op.From.Normalize(s.P)
				if op.Sparse && s.Live <= 0 {
					err = fmt.Errorf("plan: sparse redist in a dense schedule (live=0)")
				} else if err = use(op.A, &from); err == nil {
					err = def(op.Dst, op.To.Normalize(s.P), op.Rows, op.Cols)
				}
			case KSpMMABC:
				h := dist.H
				if s.RA != s.P {
					err = fmt.Errorf("plan: spmm.abc needs ra == p, have ra=%d p=%d", s.RA, s.P)
				} else if op.Layout.Normalize(s.P) != dist.H {
					err = fmt.Errorf("plan: spmm.abc layout %s, want H", op.Layout)
				} else if err = use(op.A, &h); err == nil {
					err = def(op.Dst, dist.H, op.Rows, op.Cols)
				}
			case KSpMM:
				if op.Layout.Normalize(s.P) != s.GridL {
					err = fmt.Errorf("plan: spmm layout %s, want grid %s", op.Layout, s.GridL)
				} else if err = use(op.A, &s.GridL); err == nil {
					err = def(op.Dst, s.GridL, op.Rows, op.Cols)
				}
			case KGEMM:
				h := dist.H
				if err = use(op.A, &h); err == nil {
					if op.Weight < 0 || op.Weight >= s.NumWeights {
						err = fmt.Errorf("plan: weight slot %d out of range", op.Weight)
					} else {
						err = def(op.Dst, dist.H, op.Rows, op.Cols)
					}
				}
			case KGradGEMM:
				h := dist.H
				if err = use(op.A, &h); err == nil {
					if err = use(op.B, &h); err == nil {
						if op.Weight < 0 || op.Weight >= s.NumWeights {
							err = fmt.Errorf("plan: weight slot %d out of range", op.Weight)
						} else {
							err = def(op.Dst, dist.R, op.Rows, op.Cols)
						}
					}
				}
			case KAllReduceGrad:
				r := dist.R
				if err = use(op.A, &r); err == nil && (op.Weight < 0 || op.Weight >= s.NumWeights) {
					err = fmt.Errorf("plan: weight slot %d out of range", op.Weight)
				}
			case KReLU:
				l := op.Layout.Normalize(s.P)
				err = use(op.A, &l)
			case KReLUGrad:
				to := op.To.Normalize(s.P)
				from := op.From.Normalize(s.P)
				if err = use(op.A, &to); err == nil {
					err = use(op.B, &from)
				}
			case KAdd:
				l := op.Layout.Normalize(s.P)
				if err = use(op.A, &l); err == nil {
					err = use(op.B, &l)
				}
			case KMemoize, KReuse:
				if err = use(op.A, nil); err == nil {
					err = def(op.Dst, layouts[op.A], op.Rows, op.Cols)
				}
			case KLoss:
				h := dist.H
				if err = use(op.A, &h); err == nil {
					err = def(op.Dst, dist.H, op.Rows, op.Cols)
				}
			case KMemWrite:
				err = use(op.A, nil)
			case KUpdate:
				// No operands.
			default:
				err = fmt.Errorf("plan: unknown op kind %d", op.Kind)
			}
			if err != nil {
				return err
			}
		}
	}
	for _, r := range s.Outputs {
		if err := use(r, nil); err != nil {
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

// gridLayouts returns the sorted layout keys a value map holds, in the
// executor cache's deterministic source preference: H, then V, then
// grids by ascending string key.
func preferLayout(have map[dist.Layout]Reg) dist.Layout {
	if _, ok := have[dist.H]; ok {
		return dist.H
	}
	if _, ok := have[dist.V]; ok {
		return dist.V
	}
	keys := make([]string, 0, len(have))
	byKey := make(map[string]dist.Layout, len(have))
	for l := range have {
		keys = append(keys, l.String())
		byKey[l.String()] = l
	}
	if len(keys) == 0 {
		panic("plan: empty layout set")
	}
	sort.Strings(keys)
	return byKey[keys[0]]
}
