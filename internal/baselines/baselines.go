// Package baselines implements the two state-of-the-art distributed GNN
// systems the paper compares against, re-implemented on the same
// simulated fabric as GNN-RDM so comparisons are same-substrate:
//
//   - CAGNET (Tripathy et al., SC'20): vertex-partitioned full-batch GCN
//     whose SpMM gathers the dense operand across devices. Replication
//     factor c=1 is the 1D algorithm (each SpMM moves (P-1)·N·f
//     elements); c>1 is the 1.5D-style variant that stores the adjacency
//     c-way replicated, gathers only 1/c of the dense operand per device,
//     and reduce-scatters partial products.
//
//   - DGCL (Cai et al., EuroSys'21): partition-based training. The graph
//     is partitioned to minimize edge cut (greedy LDG streaming
//     partitioner); each SpMM exchanges only boundary ("halo") features,
//     so communication is proportional to the edge cut — small at P=2,
//     growing with P.
//
// Both keep every dense matrix vertex-sliced (horizontal) at all times —
// no RDM redistributions — and share the training harness in this file.
package baselines

import (
	"math/rand"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/nn"
	"gnnrdm/internal/tensor"
	"gnnrdm/internal/trace"
)

// Options configures a baseline trainer.
type Options struct {
	// Dims is f_0..f_L.
	Dims []int
	// LR is the Adam learning rate; Seed the weight-init seed.
	LR   float64
	Seed int64
	// Replication is CAGNET's adjacency replication factor c (1 = 1D,
	// 2 = 1.5D-style). Ignored by DGCL.
	Replication int
	// Tracer, when non-nil, records this run into one trace session, so
	// baseline timelines are directly comparable with RDM traces.
	Tracer *trace.Tracer
	// TraceLabel names the trace session (default "cagnet"/"dgcl").
	TraceLabel string
}

func (o Options) withDefaults() Options {
	if o.LR == 0 {
		o.LR = 0.01
	}
	if o.Replication == 0 {
		o.Replication = 1
	}
	return o
}

// Aggregator abstracts the one operation the two baselines implement
// differently: the distributed SpMM T = A·X over vertex-sliced X. The
// bench harness drives CAGNET's (NewAggregator) for kernel-level
// comparisons.
type Aggregator interface {
	// Aggregate computes this device's rows of A·x, where x holds this
	// device's owned rows of the global dense operand.
	Aggregate(x *tensor.Dense) *tensor.Dense
	// OwnRange is this device's global vertex range [lo, hi).
	OwnRange() (lo, hi int)
}

// vertexTrainer is the shared full-batch GCN harness over an aggregator:
// forward T=A·H then Z=T·W; loss; backward T_b=A·G, Y=(H)ᵀT_b (+
// all-reduce), G' = (T_b·Wᵀ)⊙σ'; Adam. All matrices stay vertex-sliced.
type vertexTrainer struct {
	dev     *comm.Device
	prob    *core.Problem
	opts    Options
	agg     Aggregator
	weights []*tensor.Dense
	adam    *nn.Adam
	ep      int

	lastLogits *tensor.Dense
	lastLoss   float64
}

func newVertexTrainer(dev *comm.Device, prob *core.Problem, opts Options, agg Aggregator) *vertexTrainer {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	vt := &vertexTrainer{dev: dev, prob: prob, opts: opts, agg: agg}
	for l := 1; l < len(opts.Dims); l++ {
		w := tensor.NewDense(opts.Dims[l-1], opts.Dims[l])
		w.GlorotInit(rng)
		vt.weights = append(vt.weights, w)
	}
	vt.adam = nn.NewAdam(opts.LR, vt.weights)
	return vt
}

func (vt *vertexTrainer) epoch() float64 {
	L := len(vt.opts.Dims) - 1
	lo, hi := vt.agg.OwnRange()
	dev := vt.dev
	dev.TraceSetEpoch(vt.ep)
	vt.ep++
	dev.TraceBeginPhase("epoch")
	defer dev.TraceEndPhase()

	// Forward, memoizing the aggregated inputs T^l = (A·H^{l-1})|own.
	dev.TraceSetDir("fwd")
	dev.TraceBeginPhase("forward")
	hs := make([]*tensor.Dense, L+1)
	ts := make([]*tensor.Dense, L+1)
	hs[0] = vt.prob.X.RowSlice(lo, hi)
	for l := 1; l <= L; l++ {
		dev.TraceSetLayer(l)
		dev.TraceBeginPhase("layer")
		t := vt.agg.Aggregate(hs[l-1])
		ts[l] = t
		z := tensor.MatMul(t, vt.weights[l-1])
		dev.ChargeGemm(t.Rows, t.Cols, z.Cols)
		if l < L {
			z.ReLU()
			dev.ChargeMem(z.Bytes())
		}
		hs[l] = z
		dev.TraceEndPhase()
	}
	dev.TraceSetLayer(0)
	dev.TraceEndPhase()
	dev.TraceSetDir("")

	// Loss over owned rows, globally normalized.
	var mask []bool
	if vt.prob.TrainMask != nil {
		mask = vt.prob.TrainMask[lo:hi]
	}
	lossSum, grad, count := nn.SoftmaxCrossEntropySum(hs[L], vt.prob.Labels[lo:hi], mask)
	dev.ChargeMem(2 * hs[L].Bytes())
	tot := dev.AllReduceSum(dev.World(), []float32{float32(lossSum), float32(count)})
	if tot[1] > 0 {
		grad.Scale(float32(1.0 / float64(tot[1])))
		vt.lastLoss = float64(tot[0]) / float64(tot[1])
	}
	vt.lastLogits = hs[L]

	// Backward.
	dev.TraceSetDir("bwd")
	dev.TraceBeginPhase("backward")
	grads := make([]*tensor.Dense, L)
	g := grad
	for l := L; l >= 1; l-- {
		dev.TraceSetLayer(l)
		dev.TraceBeginPhase("layer")
		tb := vt.agg.Aggregate(g)
		partial := tensor.MatMulTA(hs[l-1], tb)
		dev.ChargeGemm(hs[l-1].Cols, hs[l-1].Rows, tb.Cols)
		sum := dev.AllReduceSum(dev.World(), partial.Data)
		grads[l-1] = tensor.FromRowMajor(partial.Rows, partial.Cols, sum)
		if l > 1 {
			g = tensor.MatMulTB(tb, vt.weights[l-1])
			dev.ChargeGemm(tb.Rows, tb.Cols, vt.weights[l-1].Rows)
			g.ReLUGrad(hs[l-1])
			dev.ChargeMem(g.Bytes())
		}
		dev.TraceEndPhase()
	}
	dev.TraceSetLayer(0)
	dev.TraceEndPhase()
	dev.TraceSetDir("")
	vt.adam.Step(vt.weights, grads)
	var wBytes int64
	for _, w := range vt.weights {
		wBytes += w.Bytes()
	}
	dev.ChargeMem(4 * wBytes)
	return vt.lastLoss
}

// runHarness trains one per-device trainer on every device through
// core.RunEpochs, so each epoch is measured as core.Train measures it.
// Logits assemble from each device's owned global vertex range.
func runHarness(p int, model *hw.Model, epochs int, n, fL int,
	tracer *trace.Tracer, traceLabel string,
	mk func(dev *comm.Device) *vertexTrainer) *core.Result {

	fabric := comm.NewFabric(p, model)
	fabric.SetTracer(tracer, traceLabel)
	trainers := make([]*vertexTrainer, p)
	res := &core.Result{Epochs: core.RunEpochs(fabric, epochs, func(d *comm.Device) func(int) (float64, float64) {
		vt := mk(d)
		trainers[d.Rank] = vt
		return func(int) (float64, float64) { return vt.epoch(), 0 }
	})}
	res.Weights = trainers[0].weights
	res.Logits = tensor.NewDense(n, fL)
	for r := 0; r < p; r++ {
		lo, _ := trainers[r].agg.OwnRange()
		res.Logits.SetRowSlice(lo, trainers[r].lastLogits)
	}
	return res
}
