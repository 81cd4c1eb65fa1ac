package plan

import (
	"fmt"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
)

// Spec is the problem shape and options a schedule is compiled for —
// the planner-side mirror of core.Options plus the fabric geometry.
type Spec struct {
	// N is the vertex count; Dims is f_0..f_L.
	N    int
	Dims []int
	// Config is the per-layer SpMM/GEMM ordering (Table IV); the zero
	// value means all SpMM-first. It may be non-uniform across layers.
	Config costmodel.Config
	// P is the device count; RA the adjacency replication factor
	// (0 = P, full replication).
	P, RA                    int
	SAGE, Memoize, InputGrad bool
	// Live > 0 declares the input features row-sparse with exactly Live
	// nonzero rows, the set dist.GenRows(SparseSeed, N, Live).
	// Redistributions of values whose support is contained in that set
	// compile to sparse exchanges (redist.sp). Live <= 0 or >= N is the
	// dense problem.
	Live       int
	SparseSeed int64
}

func (sp Spec) withDefaults() Spec {
	if sp.RA == 0 {
		sp.RA = sp.P
	}
	if len(sp.Config.Fwd) == 0 {
		sp.Config = costmodel.ConfigFromID(0, len(sp.Dims)-1)
	}
	if sp.Live < 0 || sp.Live >= sp.N {
		sp.Live = 0
	}
	return sp
}

func (sp Spec) validate() {
	if len(sp.Dims) < 2 {
		panic("plan: need at least one layer")
	}
	if sp.Config.Layers() != len(sp.Dims)-1 {
		panic("plan: config layer count mismatch")
	}
	if sp.P < 1 {
		panic("plan: need at least one device")
	}
	if sp.RA < 1 || sp.RA > sp.P || sp.P%sp.RA != 0 {
		panic(fmt.Sprintf("plan: RA=%d invalid for P=%d", sp.RA, sp.P))
	}
	if sp.N < 1 {
		panic("plan: need at least one vertex")
	}
}

// val tracks one logical matrix during compilation: its global shape
// and every register holding it, by layout — the compile-time mirror
// of the executor's layout cache, so schedule-time decisions (which
// redistribution a cache miss pays, which weight-gradient operands are
// free) reproduce the engine's run-time decisions exactly.
type val struct {
	rows, cols int
	regs       map[dist.Layout]Reg
}

// compiler threads the emission state through Compile.
type compiler struct {
	sp    Spec
	gridL dist.Layout
	s     *Schedule
	next  Reg
	step  int
	// sparse marks registers whose value's row support is contained in
	// the schedule's live set: H^0 itself, and anything reached from it
	// by row-local ops (GEMM preserves row sparsity; aggregation does
	// not). Redistributions of marked registers compile to redist.sp.
	sparse map[Reg]bool
}

// markSparse records a freshly defined register as row-sparse.
func (c *compiler) markSparse(r Reg, sparse bool) {
	if sparse && c.sp.Live > 0 {
		c.sparse[r] = true
	}
}

// Compile lowers one training epoch under the given spec into a naive
// schedule that reproduces the engine's historical op sequence
// verbatim — including identity redistributions the engine's hardcoded
// Redistribute calls no-op at run time, and the G^0 input-gradient
// chain regardless of InputGrad. Run Optimize to elide the former and
// dead-code-eliminate the latter; the optimized schedule is what the
// executor interprets and the pricer audits.
func Compile(sp Spec) *Schedule {
	sp = sp.withDefaults()
	sp.validate()
	c := &compiler{sp: sp, gridL: dist.G(sp.RA).Normalize(sp.P), sparse: map[Reg]bool{}}
	L := len(sp.Dims) - 1
	nw := L
	if sp.SAGE {
		nw = 2 * L
	}
	c.s = &Schedule{
		P: sp.P, RA: sp.RA, N: sp.N,
		Dims:   append([]int(nil), sp.Dims...),
		Config: costmodel.ConfigFromID(sp.Config.ID(), L),
		SAGE:   sp.SAGE, Memoize: sp.Memoize, InputGrad: sp.InputGrad,
		GridL:      c.gridL,
		NumWeights: nw,
		Live:       sp.Live, SparseSeed: sp.SparseSeed,
	}

	h, memo := c.forwardPass()

	// Loss: vertex-complete logits required, so a vertical final layer
	// pays one last redistribution (§IV-A1).
	c.section("loss", 0)
	logits := c.get(h[L], dist.H)
	gl := c.fresh()
	c.emit(Op{Kind: KLoss, Dst: gl, A: logits, Rows: sp.N, Cols: sp.Dims[L]})
	g := c.newVal(sp.N, sp.Dims[L])
	c.cache(g, dist.H, gl)

	for l := L; l >= 1; l-- {
		c.section("bwd", l)
		in, out := sp.Dims[l-1], sp.Dims[l]
		if sp.Config.Bwd[l-1] == costmodel.SparseFirst {
			gv := c.get(g, c.gridL)
			tb := c.redist(c.spmm(gv, false, sp.N, out), c.gridL, dist.H, sp.N, out)
			c.weightGrad(l, h[l-1], g, tb, memo[l])
			c.selfGrad(l, h[l-1], g)
			// G^{l-1} chain: compiled unconditionally; when the engine
			// would skip it (l==1 without InputGrad) it is simply not an
			// output and EliminateDead prunes it.
			u := c.gemm(tb, c.wn(l), true, sp.N, in)
			if sp.SAGE {
				self := c.gemm(c.get(g, dist.H), c.ws(l), true, sp.N, in)
				c.emit(Op{Kind: KAdd, A: u, B: self, Layout: dist.H, Rows: sp.N, Cols: in})
			}
			if l > 1 {
				c.reluGrad(u, dist.H, sp.N, in, h[l-1])
			}
			g = c.newVal(sp.N, in)
			c.cache(g, dist.H, u)
		} else {
			// GEMM-first: G^l must be horizontal (mismatch redistribution
			// charged by the cache).
			gh := c.get(g, dist.H)
			c.weightGrad(l, h[l-1], g, None, memo[l])
			c.selfGrad(l, h[l-1], g)
			gn := c.spmm(c.redist(c.gemm(gh, c.wn(l), true, sp.N, in), dist.H, c.gridL, sp.N, in), false, sp.N, in)
			if sp.SAGE {
				self := c.redist(c.gemm(gh, c.ws(l), true, sp.N, in), dist.H, c.gridL, sp.N, in)
				c.emit(Op{Kind: KAdd, A: gn, B: self, Layout: c.gridL, Rows: sp.N, Cols: in})
			}
			if l > 1 {
				c.reluGrad(gn, c.gridL, sp.N, in, h[l-1])
			}
			g = c.newVal(sp.N, in)
			c.cache(g, c.gridL, gn)
		}
	}
	if sp.InputGrad {
		c.s.Outputs = append(c.s.Outputs, c.regOf(g))
	}

	c.section("update", 0)
	c.emit(Op{Kind: KUpdate})

	c.s.NumRegs = int(c.next)
	if err := c.s.Validate(); err != nil {
		panic("plan: compiled schedule invalid: " + err.Error())
	}
	return c.s
}

// wn returns layer l's neighbor-aggregation weight slot; ws the SAGE
// self-weight slot — the engine's weight array order.
func (c *compiler) wn(l int) int {
	if c.sp.SAGE {
		return 2 * (l - 1)
	}
	return l - 1
}

func (c *compiler) ws(l int) int { return 2*(l-1) + 1 }

func (c *compiler) section(phase string, layer int) {
	c.s.Sections = append(c.s.Sections, Section{Phase: phase, Layer: layer})
}

func (c *compiler) emit(op Op) {
	c.step++
	op.Step = c.step
	// Canonicalize unused operand fields so passes can treat Dst/A/B
	// uniformly (a zero Reg is a real register).
	f := &opTable[op.Kind]
	if f.dst == dstNone {
		op.Dst = None
	}
	if f.regs < 1 {
		op.A = None
	}
	if f.regs < 2 {
		op.B = None
	}
	sec := &c.s.Sections[len(c.s.Sections)-1]
	sec.Ops = append(sec.Ops, op)
}

func (c *compiler) fresh() Reg {
	r := c.next
	c.next++
	return r
}

func (c *compiler) newVal(rows, cols int) *val {
	return &val{rows: rows, cols: cols, regs: make(map[dist.Layout]Reg)}
}

func (c *compiler) cache(v *val, l dist.Layout, r Reg) { v.regs[l.Normalize(c.sp.P)] = r }

// regOf returns a val's sole register (its freshly-produced layout).
func (c *compiler) regOf(v *val) Reg {
	if len(v.regs) != 1 {
		panic("plan: regOf on multi-layout value")
	}
	for _, r := range v.regs {
		return r
	}
	return None
}

// get returns the register holding v in the requested layout,
// compiling a cache-filling redistribution on a miss — the mirror of
// lcache.get, including its deterministic source preference (H, then
// V, then grids by key).
func (c *compiler) get(v *val, l dist.Layout) Reg {
	l = l.Normalize(c.sp.P)
	if r, ok := v.regs[l]; ok {
		return r
	}
	from := preferLayout(v.regs)
	r := c.redist(v.regs[from], from, l, v.rows, v.cols)
	v.regs[l] = r
	return r
}

// redist emits an unconditional redistribution, mirroring the engine's
// hardcoded Redistribute calls: when from == to the run-time op is an
// identity the elision pass removes.
func (c *compiler) redist(a Reg, from, to dist.Layout, rows, cols int) Reg {
	dst := c.fresh()
	c.emit(Op{Kind: KRedist, Dst: dst, A: a, Sparse: c.sparse[a],
		From: from.Normalize(c.sp.P), To: to.Normalize(c.sp.P), Rows: rows, Cols: cols})
	c.markSparse(dst, c.sparse[a])
	return dst
}

func (c *compiler) input(l dist.Layout, rows, cols int) Reg {
	dst := c.fresh()
	c.emit(Op{Kind: KInput, Dst: dst, Layout: l, Rows: rows, Cols: cols})
	return dst
}

func (c *compiler) spmm(a Reg, forward bool, rows, cols int) Reg {
	dst := c.fresh()
	c.emit(Op{Kind: KSpMM, Dst: dst, A: a, Forward: forward, Layout: c.gridL, Rows: rows, Cols: cols})
	return dst
}

func (c *compiler) gemm(a Reg, weight int, transW bool, rows, cols int) Reg {
	dst := c.fresh()
	c.emit(Op{Kind: KGEMM, Dst: dst, A: a, Weight: weight, TransW: transW, Rows: rows, Cols: cols})
	// A GEMM is row-local: zero rows of A yield zero rows of A·W, so the
	// product inherits the operand's row sparsity.
	c.markSparse(dst, c.sparse[a])
	return dst
}

// gradGEMM emits the local partial product plus its all-reduce into a
// weight-gradient slot.
func (c *compiler) gradGEMM(a, b Reg, weight, in, out int) {
	dst := c.fresh()
	c.emit(Op{Kind: KGradGEMM, Dst: dst, A: a, B: b, Weight: weight, Rows: in, Cols: out})
	c.emit(Op{Kind: KAllReduceGrad, A: dst, Weight: weight, Rows: in, Cols: out})
}

// weightGrad compiles Y^l = (H^{l-1})ᵀ(A·G^l) following the engine's
// reuse analysis (Fig. 3): prefer a free vertex-sliced operand pair,
// fall back to gathering the narrower missing operand, and only when
// the layer is GEMM-first in both passes recompute the cheaper SpMM.
// The case analysis resolves at compile time from the vals' layout
// sets, which track the run-time caches exactly.
func (c *compiler) weightGrad(l int, hPrev, g *val, tb, tf Reg) {
	in, out := c.sp.Dims[l-1], c.sp.Dims[l]
	// reuse reads the memoized forward product back — the explicit
	// rewrite that replaces engine-internal memo state.
	reuse := func() Reg {
		dst := c.fresh()
		c.emit(Op{Kind: KReuse, Dst: dst, A: tf, Rows: c.sp.N, Cols: in})
		return dst
	}
	_, gHasH := g.regs[dist.H]
	_, hHasH := hPrev.regs[dist.H]
	switch {
	case tf != None && gHasH:
		c.gradGEMM(reuse(), c.get(g, dist.H), c.wn(l), in, out)
	case tb != None && hHasH:
		c.gradGEMM(c.get(hPrev, dist.H), tb, c.wn(l), in, out)
	case tf != None && tb != None:
		if in <= out {
			c.gradGEMM(c.get(hPrev, dist.H), tb, c.wn(l), in, out) // gather H^{l-1}: f_{l-1}
		} else {
			c.gradGEMM(reuse(), c.get(g, dist.H), c.wn(l), in, out) // gather G^l: f_l
		}
	case tf != None:
		c.gradGEMM(reuse(), c.get(g, dist.H), c.wn(l), in, out)
	case tb != None:
		c.gradGEMM(c.get(hPrev, dist.H), tb, c.wn(l), in, out)
	default:
		// Both passes GEMM-first: recompute the cheaper SpMM product.
		if in <= out {
			t := c.redist(c.spmm(c.get(hPrev, c.gridL), true, c.sp.N, in), c.gridL, dist.H, c.sp.N, in)
			c.gradGEMM(t, c.get(g, dist.H), c.wn(l), in, out)
		} else {
			t := c.redist(c.spmm(c.get(g, c.gridL), false, c.sp.N, out), c.gridL, dist.H, c.sp.N, out)
			c.gradGEMM(c.get(hPrev, dist.H), t, c.wn(l), in, out)
		}
	}
}

// selfGrad compiles the SAGE self-weight gradient (H^{l-1})ᵀ·G^l.
func (c *compiler) selfGrad(l int, hPrev, g *val) {
	if !c.sp.SAGE {
		return
	}
	in, out := c.sp.Dims[l-1], c.sp.Dims[l]
	h := c.get(hPrev, dist.H)
	gh := c.get(g, dist.H)
	c.gradGEMM(h, gh, c.ws(l), in, out)
}

// reluGrad compiles the σ'(Z^{l-1}) mask application onto u: local when
// H^{l-1} is cached in u's layout, otherwise the byte-packed mask ships
// From -> To on the fabric's side channel.
func (c *compiler) reluGrad(u Reg, uLayout dist.Layout, rows, cols int, hPrev *val) {
	uLayout = uLayout.Normalize(c.sp.P)
	if r, ok := hPrev.regs[uLayout]; ok {
		c.emit(Op{Kind: KReLUGrad, A: u, B: r, From: uLayout, To: uLayout, Rows: rows, Cols: cols})
		return
	}
	from := preferLayout(hPrev.regs)
	c.emit(Op{Kind: KReLUGrad, A: u, B: hPrev.regs[from], From: from, To: uLayout, Rows: rows, Cols: cols})
}
