package plan

import (
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
)

// forwardPass emits the init section and the per-layer forward
// sections shared by the training and inference compiles, returning
// the layer-activation vals (h[0..L]) and the memoized forward
// intermediates (None when sp.Memoize is off).
func (c *compiler) forwardPass() (h []*val, memo []Reg) {
	sp := c.sp
	L := len(sp.Dims) - 1

	// Forward pass state: h[l] caches H^l, memo[l] the retained
	// forward AᵀH^{l-1} (§III-C).
	h = make([]*val, L+1)
	memo = make([]Reg, L+1)
	for i := range memo {
		memo[i] = None
	}

	// init: H^0 is free in both layouts — the initial distribution is a
	// data-loading choice (§IV-A1). When the grid layout folds to H the
	// two coincide in one register, exactly like the executor's cache.
	c.section("init", 0)
	h[0] = c.newVal(sp.N, sp.Dims[0])
	x := c.input(dist.H, sp.N, sp.Dims[0])
	c.cache(h[0], dist.H, x)
	c.markSparse(x, true)
	if c.gridL != dist.H {
		xg := c.input(c.gridL, sp.N, sp.Dims[0])
		c.cache(h[0], c.gridL, xg)
		c.markSparse(xg, true)
	}

	for l := 1; l <= L; l++ {
		c.section("fwd", l)
		in, out := sp.Dims[l-1], sp.Dims[l]
		var z Reg
		var zLayout dist.Layout
		if sp.Config.Fwd[l-1] == costmodel.SparseFirst {
			x := c.get(h[l-1], c.gridL)
			t := c.redist(c.spmm(x, true, sp.N, in), c.gridL, dist.H, sp.N, in)
			c.emit(Op{Kind: KMemWrite, A: t, Rows: sp.N, Cols: in})
			if sp.Memoize {
				memo[l] = c.fresh()
				c.emit(Op{Kind: KMemoize, Dst: memo[l], A: t, Rows: sp.N, Cols: in})
			}
			z = c.gemm(t, c.wn(l), false, sp.N, out)
			zLayout = dist.H
			if sp.SAGE {
				self := c.gemm(c.get(h[l-1], dist.H), c.ws(l), false, sp.N, out)
				c.emit(Op{Kind: KAdd, A: z, B: self, Layout: dist.H, Rows: sp.N, Cols: out})
			}
		} else {
			x := c.get(h[l-1], dist.H)
			t := c.gemm(x, c.wn(l), false, sp.N, out)
			z = c.spmm(c.redist(t, dist.H, c.gridL, sp.N, out), true, sp.N, out)
			zLayout = c.gridL
			if sp.SAGE {
				self := c.redist(c.gemm(x, c.ws(l), false, sp.N, out), dist.H, c.gridL, sp.N, out)
				c.emit(Op{Kind: KAdd, A: z, B: self, Layout: c.gridL, Rows: sp.N, Cols: out})
			}
		}
		if l < L {
			c.emit(Op{Kind: KReLU, A: z, Layout: zLayout, Rows: sp.N, Cols: out})
		}
		h[l] = c.newVal(sp.N, out)
		c.cache(h[l], zLayout, z)
	}
	return h, memo
}

// CompileInference lowers the forward pass alone into a schedule with
// init and per-layer fwd sections — no loss, backward, or update: the
// serving tier needs vertex-complete logits and nothing else. The
// final redistribution that makes the logits vertex-complete (§IV-A1,
// paid in the loss section during training) is emitted into the last
// forward section instead, so a serving engine re-running sections
// from a stale layer repays exactly the communication the pricer
// attributes to those sections. The logits register is the schedule's
// sole Output, which keeps the whole forward chain live through
// Optimize's dead-code elimination; redistribution elision applies
// unchanged. Memoization and input gradients are forced off — there is
// no backward pass to consume them.
func CompileInference(sp Spec) *Schedule {
	sp.Memoize = false
	sp.InputGrad = false
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
		Dims:       append([]int(nil), sp.Dims...),
		Config:     costmodel.ConfigFromID(sp.Config.ID(), L),
		SAGE:       sp.SAGE,
		GridL:      c.gridL,
		NumWeights: nw,
		Live:       sp.Live, SparseSeed: sp.SparseSeed,
	}
	h, _ := c.forwardPass()
	logits := c.get(h[L], dist.H)
	c.s.Outputs = append(c.s.Outputs, logits)
	c.s.NumRegs = int(c.next)
	if err := c.s.Validate(); err != nil {
		panic("plan: compiled inference schedule invalid: " + err.Error())
	}
	return c.s
}
