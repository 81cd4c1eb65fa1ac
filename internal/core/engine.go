// Package core implements GNN-RDM, the paper's primary contribution:
// distributed GCN training built on communication-free SpMM and GEMM with
// redistribution of dense matrices between stages (§III), supporting
// every SpMM-first/GEMM-first ordering configuration of Table IV,
// forward-intermediate memoization (§III-C), row-panel adjacency
// replication R_A (§III-E), and model-driven configuration selection
// (§IV-B).
//
// The engine is SPMD: one Engine per simulated device, all executing the
// same sequence of collective operations on the comm fabric. Dense
// activations live in dist.Mat layouts; the adjacency matrix is held as a
// per-device row panel replicated R_A times across the grid of §III-E
// (R_A = P is full replication, the main RDM scheme; R_A = 1 degenerates
// to CAGNET's 1D scheme).
package core

import (
	"fmt"
	"math"
	"math/rand"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/nn"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
	"gnnrdm/internal/topo"
	"gnnrdm/internal/trace"
)

// Problem is the training task: a normalized propagation matrix, input
// features, labels, and an optional training mask. With the default GCN
// normalization D^{-1/2}(A+I)D^{-1/2} of an undirected graph the
// operator is symmetric and A serves both passes; for asymmetric
// operators set ATranspose.
type Problem struct {
	A         *sparse.CSR
	X         *tensor.Dense
	Labels    []int32
	TrainMask []bool
	// LossWeights optionally weights each vertex's loss term
	// (GraphSAINT's λ_v normalization); nil means uniform.
	LossWeights []float32
	// ATranspose holds Aᵀ for asymmetric propagation operators (directed
	// graphs, random-walk normalization D⁻¹(A+I)). The forward pass
	// aggregates with Aᵀ (eq. 1) and the backward pass with A (eq. 3).
	// Leave nil for symmetric operators (GCN normalization), where
	// Aᵀ = A.
	ATranspose *sparse.CSR
}

// fwdOperator returns the forward-aggregation matrix (Aᵀ).
func (p *Problem) fwdOperator() *sparse.CSR {
	if p.ATranspose != nil {
		return p.ATranspose
	}
	return p.A
}

// N returns the vertex count.
func (p *Problem) N() int { return p.A.Rows }

// Permute relabels the problem's vertices, vertex i becoming perm[i]:
// the operators become PAPᵀ, and features, labels, masks and loss
// weights are row-permuted. Entry values are moved bitwise (no
// arithmetic), so the permuted problem is the same computation up to
// reduction order.
func (p *Problem) Permute(perm []int) *Problem {
	out := &Problem{
		A:           permuteCSR(p.A, perm),
		X:           PermuteRows(p.X, perm),
		Labels:      permuteSlice(p.Labels, perm),
		TrainMask:   permuteSlice(p.TrainMask, perm),
		LossWeights: permuteSlice(p.LossWeights, perm),
	}
	if p.ATranspose != nil {
		out.ATranspose = permuteCSR(p.ATranspose, perm)
	}
	return out
}

// PermuteRows returns a copy of m with row i moved to row perm[i].
func PermuteRows(m *tensor.Dense, perm []int) *tensor.Dense {
	out := tensor.NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(perm[i]), m.Row(i))
	}
	return out
}

// permuteSlice returns a copy of s with element i moved to perm[i]; nil
// stays nil.
func permuteSlice[T any](s []T, perm []int) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(s))
	for i, v := range s {
		out[perm[i]] = v
	}
	return out
}

// permuteCSR returns PAPᵀ for the permutation matrix P defined by perm.
// Values travel untouched; only coordinates change.
func permuteCSR(a *sparse.CSR, perm []int) *sparse.CSR {
	coords := make([]sparse.Coord, 0, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		for e := a.RowPtr[i]; e < a.RowPtr[i+1]; e++ {
			coords = append(coords, sparse.Coord{
				Row: int32(perm[i]),
				Col: int32(perm[a.ColIdx[e]]),
				Val: a.Val[e],
			})
		}
	}
	return sparse.FromCoords(a.Rows, a.Cols, coords)
}

// Options configures an RDM training run.
type Options struct {
	// Dims is f_0..f_L; Dims[0] must equal the feature width.
	Dims []int
	// Config is the SpMM/GEMM ordering (Table IV). Zero value = all
	// SpMM-first.
	Config costmodel.Config
	// RA is the adjacency replication factor (§III-E); 0 means P (full
	// replication, the main RDM scheme). Must divide P.
	RA int
	// Memoize keeps the forward AᵀH^{l-1} products for backward reuse
	// (§III-C). Disabling it is the paper's "N.M." ablation.
	Memoize bool
	// ComputeInputGrad computes G^0, the gradient of the input features
	// (a final output in Fig. 4, included in Table IV's accounting).
	ComputeInputGrad bool
	// LR is the Adam learning rate.
	LR float64
	// Seed controls weight initialization (identical on all devices).
	Seed int64
	// EvalMask, when set, selects the vertices whose prediction accuracy
	// is computed after every epoch (EpochStats.EvalAcc) — the paper's
	// test-accuracy-versus-time instrumentation (Fig. 13).
	EvalMask []bool
	// MaskProvider, when set, turns every aggregation into a masked SpMM
	// over sampled neighbors (§III-F's non-subgraph sampling): given the
	// epoch and a global row range it returns, per row, the permitted
	// column indices (sorted; nil keeps all). Deterministic per-row
	// generation from a shared seed means replicas of a row panel agree
	// without communicating the mask — the paper's shared-seed trick.
	MaskProvider func(epoch, rowLo, rowHi int) [][]int32
	// SAGE switches every layer to the two-weight GraphSAGE form
	// Z^l = AᵀH^{l-1}W_n + H^{l-1}W_s (the paper lists GraphSAGE among
	// the GNN variants RDM applies to). The self term is computed in the
	// vertex-sliced layout and redistributed when the layer's SpMM-side
	// output is feature-sliced.
	SAGE bool
	// Topology, when non-nil, runs the fabric on a hierarchical
	// interconnect (see internal/topo): collectives are routed and
	// priced by topology-aware algorithms and metered per link tier.
	// Nil keeps the flat pre-topology fabric, bit-for-bit. Must cover at
	// least P devices.
	Topology *topo.Topology
	// Tracer, when non-nil, records every kernel, collective, and phase
	// of the run into one trace session (see internal/trace). Train
	// attaches it to the fabric before the devices start.
	Tracer *trace.Tracer
	// TraceLabel names the trace session (default "rdm").
	TraceLabel string
	// Overlap switches Epoch's walk to the dependency-DAG executor's
	// lane map: ops run on per-resource device lanes, each starting
	// when its lane is free and its DAG dependencies have finished, so
	// a GEMM's clock runs while the NIC drains an all-reduce. Numerics,
	// byte meters, and trace-event inventories are identical to the
	// sequential executor's — only clocks and tracks change
	// (verify.CheckOverlapEquivalence pins all three). The forward-only
	// path (RunInference) always runs on the device alone.
	Overlap bool
	// Live declares the feature matrix row-sparse with this many live
	// (nonzero) rows: the compiler marks the redistributions whose
	// operands inherit X's row support, and the executor runs them
	// through the two-round sparse exchange (dist.RedistributeSparse)
	// over the live set scanned from the actual features. 0 (or >= N)
	// means dense. The planner's live set is dist.GenRows(SparseSeed, N,
	// Live); feed features generated from the same identity when
	// meter-equals-model matters (verify.CheckSparseMatchesModel).
	Live int
	// SparseSeed selects the planner's assumed live row set (see Live).
	SparseSeed int64
}

// Layers returns L.
func (o Options) Layers() int { return len(o.Dims) - 1 }

func (o Options) withDefaults(p int) Options {
	if o.RA == 0 {
		o.RA = p
	}
	if len(o.Config.Fwd) == 0 {
		o.Config = costmodel.ConfigFromID(0, o.Layers())
	}
	if o.LR == 0 {
		o.LR = 0.01
	}
	return o
}

func (o Options) validate(p int, prob *Problem) {
	if len(o.Dims) < 2 {
		panic("core: need at least one layer")
	}
	if o.Dims[0] != prob.X.Cols {
		panic(fmt.Sprintf("core: Dims[0]=%d != feature width %d", o.Dims[0], prob.X.Cols))
	}
	if o.Config.Layers() != o.Layers() {
		panic("core: config layer count mismatch")
	}
	if o.RA < 1 || o.RA > p || p%o.RA != 0 {
		panic(fmt.Sprintf("core: RA=%d invalid for P=%d", o.RA, p))
	}
	if prob.A.Rows != prob.A.Cols || prob.A.Rows != prob.X.Rows {
		panic("core: adjacency/features shape mismatch")
	}
	if len(prob.Labels) != prob.X.Rows {
		panic("core: labels length mismatch")
	}
}

// Engine is one device's view of an RDM training run.
type Engine struct {
	dev  *comm.Device
	prob *Problem
	opts Options

	gridL    dist.Layout
	colGroup []int
	// panelFwd/panelBwd are this device's row panels of the forward (Aᵀ)
	// and backward (A) operators; the same object when the operator is
	// symmetric.
	panelFwd, panelBwd       *sparse.CSR
	panelFwdNNZ, panelBwdNNZ int64

	weights []*tensor.Dense
	adam    *nn.Adam

	// gatherBuf is the persistent destination of the column-group
	// feature gather (AllGatherFlat) and gradBufs the per-weight
	// destinations of the gradient all-reduces (AllReduceSumInto):
	// steady-state epochs reuse them, so the hot comm path allocates
	// nothing per round. The walk runs every op on the device
	// goroutine, so uses are serialized without locks.
	gatherBuf []float32
	gradBufs  [][]float32

	// regs and grads are Epoch's SSA register file and gradient slots,
	// kept across epochs: each producer in execOp writes into the tile
	// its own register held last epoch, so a steady-state epoch allocates
	// no tile. masks holds KReLUGrad's two temporaries per schedule step
	// (the local mask at 2*Step, its redistributed form at 2*Step+1) the
	// same way. One tile per register, no liveness sharing: a tile is
	// only ever written by its register's producer and the in-place ops
	// on that register, which the overlap DAG already orders. SetProblem
	// drops all three — the next problem has its own X and shapes.
	regs  []*dist.Mat
	grads []*tensor.Dense
	masks []*dist.Mat

	// sched is the epoch's compiled, optimized op schedule (internal/plan):
	// compiled once in NewEngine and interpreted every epoch. Shapes in the
	// schedule are advisory — the executor reads live matrix shapes, so a
	// SetProblem swap (GraphSAINT subgraphs) reuses the same schedule.
	sched *plan.Schedule
	// dag is sched's dependency DAG, built on the first epoch (walk)
	// together with lanes, the device's resource lanes indexed by
	// hw.Resource (the device itself for compute, nil for a link no op
	// of this rank occupies), laneOf, each node's lane, and finish, each
	// node's finish time on its lane in the current epoch. Link lanes
	// are forked in place every epoch, so a steady-state epoch allocates
	// none.
	dag    *plan.DAG
	lanes  [hw.NumResources]*comm.Device
	laneOf []*comm.Device
	finish []float64
	// cfgTag is the ordering's trace tag, set on the device and on each
	// link lane.
	cfgTag string

	// live is the sorted live row set of X (value scan), consumed by the
	// schedule's sparse redistributions; nil for a dense schedule.
	live []int32

	// epochMask is the current epoch's sampled-neighbor mask for this
	// device's panel rows (nil when sampling is off).
	epochMask [][]int32
	epoch     int

	// lastLogits is this device's horizontal tile of the most recent
	// forward pass's output (pre-loss), for evaluation.
	lastLogits *dist.Mat
	lastLoss   float64

	// infRegs is the serving path's retained register file (inference.go):
	// activations persist across RunInference calls so a staleness policy
	// can re-run only the sections from the first stale layer.
	infRegs []*dist.Mat
	infInit bool
}

// NewEngine builds the device-local state: the adjacency row panel and
// replicated, identically-initialized weights.
func NewEngine(dev *comm.Device, prob *Problem, opts Options) *Engine {
	e := newEngine(dev, prob, opts)
	opts = e.opts
	e.adam = nn.NewAdam(opts.LR, e.weights)
	e.gradBufs = make([][]float32, len(e.weights))
	e.sched = plan.Compile(plan.Spec{
		N: prob.N(), Dims: opts.Dims, Config: opts.Config,
		P: dev.P(), RA: opts.RA, SAGE: opts.SAGE, Memoize: opts.Memoize,
		InputGrad: opts.ComputeInputGrad,
		Live:      opts.Live, SparseSeed: opts.SparseSeed,
	}).Optimize()
	e.scanLive()
	return e
}

// newEngine is the prologue NewEngine and NewInferenceEngine share:
// defaulted and validated options, the grid layout, this device's column
// group and row panels, the seeded Glorot weights (identical on all
// devices; a SAGE layer's self weight follows its neighbour weight), and
// the configuration tag on the device's trace events.
func newEngine(dev *comm.Device, prob *Problem, opts Options) *Engine {
	p := dev.P()
	opts = opts.withDefaults(p)
	opts.validate(p, prob)
	e := &Engine{dev: dev, prob: prob, opts: opts}
	e.gridL = dist.G(opts.RA).Normalize(p)
	// Column group: ranks sharing my grid column (same feature slice).
	e.colGroup = dist.ColGroup(p, opts.RA, dev.Rank)
	e.extractPanels()

	rng := rand.New(rand.NewSource(opts.Seed))
	for l := 1; l <= opts.Layers(); l++ {
		w := tensor.NewDense(opts.Dims[l-1], opts.Dims[l])
		w.GlorotInit(rng)
		e.weights = append(e.weights, w)
		if opts.SAGE {
			ws := tensor.NewDense(opts.Dims[l-1], opts.Dims[l])
			ws.GlorotInit(rng)
			e.weights = append(e.weights, ws)
		}
	}
	e.cfgTag = opts.Config.String()
	dev.TraceSetConfig(e.cfgTag)
	return e
}

// scanLive refreshes the executor's live row set for sparse
// redistributions: the value-based scan of the actual features, so the
// exchange ships exactly the rows that are nonzero — the planner's
// GenRows assumption is a pricing identity, not a correctness
// requirement.
func (e *Engine) scanLive() {
	e.live = nil
	if e.sched.Live > 0 {
		e.live = dist.LiveRows(e.prob.X)
	}
}

// Schedule returns the compiled, optimized op schedule this engine
// interprets each epoch.
func (e *Engine) Schedule() *plan.Schedule { return e.sched }

// Weights exposes the (replicated) weight matrices.
func (e *Engine) Weights() []*tensor.Dense { return e.weights }

// LastLogits returns this device's horizontal logits tile from the most
// recent epoch.
func (e *Engine) LastLogits() *dist.Mat { return e.lastLogits }

// extractPanels slices this device's row panels out of the problem's
// operators.
func (e *Engine) extractPanels() {
	rlo, rhi := dist.RowRange(e.gridL, e.dev.P(), e.dev.Rank, e.prob.N())
	e.panelBwd = e.prob.A.RowPanel(rlo, rhi)
	e.panelBwdNNZ = e.panelBwd.NNZ()
	if e.prob.ATranspose != nil {
		if e.opts.MaskProvider != nil {
			panic("core: MaskProvider requires a symmetric operator")
		}
		e.panelFwd = e.prob.fwdOperator().RowPanel(rlo, rhi)
		e.panelFwdNNZ = e.panelFwd.NNZ()
	} else {
		e.panelFwd, e.panelFwdNNZ = e.panelBwd, e.panelBwdNNZ
	}
}

// spmm computes Aᵀ·m (forward) or A·m (backward) for a grid-distributed
// dense matrix m, returning a grid-distributed result. With R_A = P
// (vertical layout) this is communication-free (Fig. 2a); with R_A < P
// each column group gathers its feature slice, moving (P/R_A - 1)·N·w
// elements (§III-E).
//
// The product lands in old's tile when that has the right shape (see
// dist.TileOf).
func (e *Engine) spmm(dev *comm.Device, m *dist.Mat, forward bool, old *dist.Mat) *dist.Mat {
	if m.Layout != e.gridL {
		panic(fmt.Sprintf("core: spmm input layout %v, want %v", m.Layout, e.gridL))
	}
	panel, nnz := e.panelBwd, e.panelBwdNNZ
	if forward {
		panel, nnz = e.panelFwd, e.panelFwdNNZ
	}
	w := m.Local.Cols
	var full *tensor.Dense
	if len(e.colGroup) == 1 {
		full = m.Local
	} else {
		// Flat gather straight into the persistent buffer: each member's
		// bytes are written once at their final offset, skipping the
		// per-member private copies AllGather would hand out. full wraps
		// the buffer (no copy); it is only read within this call.
		e.gatherBuf = dev.AllGatherFlat(e.colGroup, m.Local.Data, e.gatherBuf)
		full = tensor.FromRowMajor(m.GlobalRows, w, e.gatherBuf)
		dev.ChargeMem(full.Bytes())
	}
	out := dist.TileOf(old, panel.Rows, w)
	if e.epochMask != nil {
		panel.MaskedSpMMInto(full, e.epochMask, out)
	} else {
		panel.SpMMInto(full, out)
	}
	dev.ChargeSpMM(nnz, w)
	return dist.FromLocal(dev, e.gridL, m.GlobalRows, m.GlobalCols, out)
}

// gemm computes m · W (or m · Wᵀ) for a horizontal m with replicated W:
// communication-free (Fig. 2b). The product lands in old's tile when
// that has the right shape (see dist.TileOf).
func (e *Engine) gemm(dev *comm.Device, m *dist.Mat, w *tensor.Dense, transW bool, old *dist.Mat) *dist.Mat {
	if m.Layout != dist.H {
		panic("core: gemm input must be horizontal")
	}
	var out *tensor.Dense
	if transW {
		out = dist.TileOf(old, m.Local.Rows, w.Rows)
		tensor.MatMulTBInto(m.Local, w, out)
	} else {
		out = dist.TileOf(old, m.Local.Rows, w.Cols)
		tensor.MatMulInto(m.Local, w, out)
	}
	dev.ChargeGemm(m.Local.Rows, m.Local.Cols, out.Cols)
	return dist.FromLocal(dev, dist.H, m.GlobalRows, out.Cols, out)
}

// execOp interprets one schedule op on dev, the lane the op runs on
// (the engine's own device, or one of its link lanes under the overlap
// executor: charges and collectives then land on that lane's clock and
// trace track), tagging its trace events with the op's plan step ID.
// Global shapes come from the live matrices (not the schedule's
// compile-time fields), so the same schedule drives problems of any
// vertex count; only weight shapes — fixed by Dims — are read from the
// op.
//
// regs may still hold last epoch's values (Epoch's retained file,
// RunInference's): a producer reads its own destination register only to
// recycle the tile (dist.TileOf, RedistributeInto), never the value.
func (e *Engine) execOp(dev *comm.Device, op *plan.Op, regs []*dist.Mat, grads []*tensor.Dense) {
	dev.TraceSetStep(op.Step)
	switch op.Kind {
	case plan.KInput:
		// Sliced once per register file: no op writes an input register
		// or an alias of one in place (plan's TestInputRegistersReadOnly).
		if regs[op.Dst] == nil {
			regs[op.Dst] = dist.Distribute(dev, op.Layout, e.prob.X)
		}
	case plan.KRedist:
		m := regs[op.A]
		if m.Dev != dev {
			m = m.WithDevice(dev)
		}
		if op.Sparse {
			regs[op.Dst] = m.RedistributeSparse(op.To, e.live)
		} else {
			regs[op.Dst] = m.RedistributeInto(op.To, regs[op.Dst])
		}
	case plan.KSpMM:
		regs[op.Dst] = e.spmm(dev, regs[op.A], op.Forward, regs[op.Dst])
	case plan.KGEMM:
		regs[op.Dst] = e.gemm(dev, regs[op.A], e.weights[op.Weight], op.TransW, regs[op.Dst])
	case plan.KGradGEMM:
		// Local vertex-sliced partial of an (·)ᵀ(·) weight-gradient
		// product; the partials differ per device until KAllReduceGrad
		// sums them, so the R layout here is a forward declaration.
		a, b := regs[op.A], regs[op.B]
		partial := dist.TileOf(regs[op.Dst], a.Local.Cols, b.Local.Cols)
		tensor.MatMulTAInto(a.Local, b.Local, partial)
		dev.ChargeGemm(a.Local.Cols, a.Local.Rows, b.Local.Cols)
		regs[op.Dst] = dist.FromLocal(dev, dist.R, partial.Rows, partial.Cols, partial)
	case plan.KAllReduceGrad:
		// Reduce into this weight's persistent gradient buffer; the
		// result is consumed by the update before the next epoch's
		// reduce rewrites it.
		buf := e.gradBufs[op.Weight]
		if len(buf) != op.Rows*op.Cols {
			buf = make([]float32, op.Rows*op.Cols)
			e.gradBufs[op.Weight] = buf
		}
		dev.AllReduceSumInto(dev.World(), regs[op.A].Local.Data, buf)
		grads[op.Weight] = tensor.FromRowMajor(op.Rows, op.Cols, buf)
	case plan.KReLU:
		regs[op.A].Local.ReLU()
		dev.ChargeMem(regs[op.A].Local.Bytes())
	case plan.KReLUGrad:
		e.applyReLUMask(dev, op, regs[op.A], regs[op.B])
	case plan.KAdd:
		regs[op.A].Local.Add(regs[op.B].Local)
		dev.ChargeMem(regs[op.A].Local.Bytes())
	case plan.KMemoize, plan.KReuse:
		regs[op.Dst] = regs[op.A]
	case plan.KLoss:
		logits := regs[op.A]
		e.lastLogits = logits
		p := dev.P()
		rlo, rhi := dist.RowRange(dist.H, p, dev.Rank, e.prob.N())
		var mask []bool
		if e.prob.TrainMask != nil {
			mask = e.prob.TrainMask[rlo:rhi]
		}
		var lw []float32
		if e.prob.LossWeights != nil {
			lw = e.prob.LossWeights[rlo:rhi]
		}
		grad := dist.TileOf(regs[op.Dst], logits.Local.Rows, logits.Local.Cols)
		lossSum, wtot := nn.WeightedSoftmaxCrossEntropySumInto(logits.Local, e.prob.Labels[rlo:rhi], mask, lw, grad)
		dev.ChargeMem(2 * logits.Local.Bytes())
		tot := dev.AllReduceSum(dev.World(), []float32{float32(lossSum), float32(wtot)})
		totalCount := float64(tot[1])
		if totalCount > 0 {
			grad.Scale(float32(1.0 / totalCount))
			e.lastLoss = float64(tot[0]) / totalCount
		} else {
			e.lastLoss = 0
		}
		regs[op.Dst] = dist.FromLocal(dev, dist.H, e.prob.N(), e.opts.Dims[e.opts.Layers()], grad)
	case plan.KMemWrite:
		dev.ChargeMem(regs[op.A].Local.Bytes())
	case plan.KUpdate:
		e.adam.Step(e.weights, grads)
		var wBytes int64
		for _, w := range e.weights {
			wBytes += w.Bytes()
		}
		dev.ChargeMem(4 * wBytes)
	default:
		panic(fmt.Sprintf("core: unknown schedule op kind %v", op.Kind))
	}
	dev.TraceSetStep(0)
}

// applyReLUMask multiplies u element-wise by σ'(Z^{l-1}) = [H^{l-1} > 0],
// with src a copy of H^{l-1}. When src already lives in u's layout the
// mask is applied locally; otherwise a byte-packed mask is redistributed
// (¼ of the elements — a mechanical cost the paper's model omits; see
// EXPERIMENTS.md). The planner encodes the choice in the op's From/To
// layouts; the decision re-derives here from the live matrices. The
// mask and its redistributed form live in the op's two e.masks slots.
func (e *Engine) applyReLUMask(dev *comm.Device, op *plan.Op, u, src *dist.Mat) {
	if src.Layout != u.Layout {
		from := src
		slot := e.masks[2*op.Step : 2*op.Step+2]
		mask := dist.TileOf(slot[0], from.Local.Rows, from.Local.Cols)
		one := math.Float32bits(1)
		for i, v := range from.Local.Data {
			b := uint32(0)
			if v > 0 {
				b = one
			}
			mask.Data[i] = math.Float32frombits(b)
		}
		dev.ChargeMem(mask.Bytes())
		slot[0] = dist.FromLocal(dev, from.Layout, from.GlobalRows, from.GlobalCols, mask)
		slot[1] = slot[0].RedistributeMaskInto(u.Layout, slot[1])
		src = slot[1]
	}
	u.Local.ReLUGrad(src.Local)
	dev.ChargeMem(u.Local.Bytes())
}

// Epoch runs one full training epoch (forward, loss, backward, Adam
// update) and returns the training loss.
func (e *Engine) Epoch() float64 {
	if e.opts.MaskProvider != nil {
		rlo, rhi := dist.RowRange(e.gridL, e.dev.P(), e.dev.Rank, e.prob.N())
		e.epochMask = e.opts.MaskProvider(e.epoch, rlo, rhi)
	}
	e.dev.TraceSetEpoch(e.epoch)
	e.dev.TraceBeginPhase("epoch")
	defer e.dev.TraceEndPhase()
	e.epoch++
	if e.regs == nil {
		e.regs = make([]*dist.Mat, e.sched.NumRegs)
		e.grads = make([]*tensor.Dense, len(e.weights))
		e.masks = make([]*dist.Mat, 2*(e.sched.Ops()+1))
	}
	e.walk()
	return e.lastLoss
}

// walk runs one epoch: the schedule's DAG nodes in schedule order, each
// op on its lane, first advanced to its dependencies' finish times. The
// overlap executor (Options.Overlap) puts an op on the device resource
// DAG.OpResource names (compute, intra link, inter link — hw.Resource),
// so a GEMM's clock runs while the NIC drains an all-reduce bucket; the
// sequential executor puts every op on the device itself, where a
// dependency's finish never moves the clock (AdvanceClock is a max).
// That is the replay engine's occupancy model (plan/replay.go), which
// is why live clocks equal priced ones. Numerics are the same on either
// lane map: every op runs execOp in schedule order, and collectives
// keep their group-position reduction order. Every rank enters its
// collectives in schedule order, so the walk cannot deadlock, and a
// crash (fault.Killed) or a survivor's *comm.FaultError panics on the
// device goroutine itself. Trace brackets open and close on the device
// at section boundaries — forward (init, each layer, loss), backward
// (each layer), update — and every lane's direction and layer tags
// follow the section.
func (e *Engine) walk() {
	if e.dag == nil {
		// First epoch: build the DAG and each node's lane; a link lane
		// exists only for a resource one of this rank's ops occupies.
		d := plan.MustBuildDAG(e.sched)
		e.dag, e.finish, e.laneOf = d, make([]float64, len(d.Nodes)), make([]*comm.Device, len(d.Nodes))
		e.lanes[hw.ResCompute] = e.dev
		for i := range d.Nodes {
			res := hw.ResCompute
			if e.opts.Overlap {
				res = d.OpResource(i, e.dev.Rank, e.opts.Topology)
			}
			if e.lanes[res] == nil {
				e.lanes[res] = new(comm.Device)
			}
			e.laneOf[i] = e.lanes[res]
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
	open, openDir, node := "", "", 0
	for i := range e.sched.Sections {
		sec := &e.sched.Sections[i]
		dir, outer, inner := "fwd", "forward", sec.Phase
		switch sec.Phase {
		case "init":
			inner = ""
		case "fwd":
			inner = "layer"
		case "bwd":
			dir, outer, inner = "bwd", "backward", "layer"
		case "update":
			dir, outer, inner = "", "update", ""
		}
		if outer != open {
			e.closeBracket(open, openDir)
			e.dev.TraceBeginPhase(outer)
			open, openDir = outer, dir
		}
		e.tag(dir, sec.Layer)
		if inner != "" {
			e.dev.TraceBeginPhase(inner)
		}
		for j := range sec.Ops {
			lane := e.laneOf[node]
			for _, dep := range e.dag.Nodes[node].Deps {
				lane.AdvanceClock(e.finish[dep])
			}
			e.execOp(lane, &sec.Ops[j], e.regs, e.grads)
			e.finish[node] = lane.Clock()
			node++
		}
		if inner != "" {
			e.dev.TraceEndPhase()
		}
	}
	e.closeBracket(open, openDir)
	e.tag("", 0)
	// Rejoin the link lanes into the base timeline (clock = max, meters
	// summed): the occupancy join of the pricer's epoch boundary.
	for res := hw.ResCompute + 1; res < hw.NumResources; res++ {
		if l := e.lanes[res]; l != nil {
			e.dev.MergeLane(l)
		}
	}
}

// closeBracket closes the walk's open outer bracket, if any, outside
// any layer.
func (e *Engine) closeBracket(open, dir string) {
	if open != "" {
		e.tag(dir, 0)
		e.dev.TraceEndPhase()
	}
}

// tag sets the pass direction and layer on every lane's trace scope.
func (e *Engine) tag(dir string, layer int) {
	for _, l := range e.lanes {
		if l != nil {
			l.TraceSetDir(dir)
			l.TraceSetLayer(layer)
		}
	}
}

// EvalAccuracy computes accuracy over the masked vertices using the most
// recent epoch's logits, reduced across devices.
func (e *Engine) EvalAccuracy(mask []bool) float64 {
	if e.lastLogits == nil {
		return 0
	}
	rlo, rhi := dist.RowRange(dist.H, e.dev.P(), e.dev.Rank, e.prob.N())
	var m []bool
	if mask != nil {
		m = mask[rlo:rhi]
	}
	correct, total := localAccuracyCounts(e.lastLogits.Local, e.prob.Labels[rlo:rhi], m)
	tot := e.dev.AllReduceSum(e.dev.World(), []float32{float32(correct), float32(total)})
	if tot[1] == 0 {
		return 0
	}
	return float64(tot[0]) / float64(tot[1])
}

func localAccuracyCounts(logits *tensor.Dense, labels []int32, mask []bool) (correct, total int) {
	for i := 0; i < logits.Rows; i++ {
		if (mask != nil && !mask[i]) || labels[i] < 0 {
			continue
		}
		total++
		row := logits.Row(i)
		best := 0
		for j := 1; j < len(row); j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		if int32(best) == labels[i] {
			correct++
		}
	}
	return correct, total
}

// SetProblem swaps the training problem (e.g. a new GraphSAINT
// subgraph), re-extracting this device's adjacency panel while keeping
// the optimizer state and weights. Dims[0] must match the new feature
// width.
func (e *Engine) SetProblem(prob *Problem) {
	if prob.X.Cols != e.opts.Dims[0] {
		panic("core: SetProblem feature width mismatch")
	}
	e.prob = prob
	e.extractPanels()
	e.scanLive()
	e.lastLogits = nil
	e.regs, e.grads, e.masks = nil, nil, nil
}
