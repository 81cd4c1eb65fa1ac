package saint

import (
	"fmt"
	"math/rand"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/nn"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
	"gnnrdm/internal/trace"
)

// Options configures a GraphSAINT training run.
type Options struct {
	// Dims is f_0..f_L.
	Dims []int
	// LR is the Adam learning rate (the paper uses 0.001 for the
	// metagenomics datasets, 0.01 otherwise).
	LR   float64
	Seed int64
	// Kind selects the sampler; Budget the subgraph vertex target;
	// WalkLength applies to random walks.
	Kind       SamplerKind
	Budget     int
	WalkLength int
	// StepsPerEpoch is the number of subgraphs per epoch S; 0 means
	// ceil(N / Budget) (one graph cover).
	StepsPerEpoch int
	// NormTrials is the number of preliminary samples for the
	// unbiasedness normalization (0 disables normalization).
	NormTrials int
	// ConfigID selects the RDM ordering for SAINT-RDM (Table IV).
	ConfigID int
	// Tracer, when non-nil, records each trainer's run into one trace
	// session ("saint-rdm", "saint-ddp", or the full-batch "gcn-rdm").
	Tracer *trace.Tracer
	// TraceLabel overrides the default session label.
	TraceLabel string
}

// traceLabel returns the session label, defaulting to def.
func (o Options) traceLabel(def string) string {
	if o.TraceLabel != "" {
		return o.TraceLabel
	}
	return def
}

func (o Options) withDefaults(n int) Options {
	if o.LR == 0 {
		o.LR = 0.01
	}
	if o.Budget == 0 {
		o.Budget = n / 8
		if o.Budget < 1 {
			o.Budget = 1
		}
	}
	if o.StepsPerEpoch == 0 {
		o.StepsPerEpoch = (n + o.Budget - 1) / o.Budget
	}
	return o
}

// CurvePoint is one accuracy-versus-time sample (Fig. 13).
type CurvePoint struct {
	// Time is cumulative simulated seconds at the end of the epoch.
	Time float64
	// TestAcc is accuracy on the problem's test mask (all labeled
	// vertices when nil).
	TestAcc float64
	// TrainLoss is the mean training loss over the epoch's updates.
	TrainLoss float64
	// Updates is the cumulative number of weight updates.
	Updates int
}

// Curve is a named accuracy-versus-time series.
type Curve struct {
	Name   string
	Points []CurvePoint
}

// Final returns the last point.
func (c *Curve) Final() CurvePoint { return c.Points[len(c.Points)-1] }

// BestAcc returns the maximum test accuracy reached.
func (c *Curve) BestAcc() float64 {
	best := 0.0
	for _, p := range c.Points {
		if p.TestAcc > best {
			best = p.TestAcc
		}
	}
	return best
}

// evalFull computes test accuracy on the full graph with the given
// weights (instrumentation only: not charged to the simulated clock,
// matching how the paper evaluates offline).
func evalFull(prob *core.Problem, normA *sparse.CSR, weights []*tensor.Dense, testMask []bool) float64 {
	h := prob.X
	for l, w := range weights {
		z := tensor.MatMul(normA.SpMM(h), w)
		if l < len(weights)-1 {
			z.ReLU()
		}
		h = z
	}
	return nn.Accuracy(h, prob.Labels, testMask)
}

// TrainSAINTRDM trains with GraphSAINT sampling where every subgraph's
// forward/backward runs across all P devices using the RDM engine, so
// weights update after every subgraph regardless of P (§V-C).
//
// prob is the full-graph problem; testMask selects evaluation vertices.
func TrainSAINTRDM(p int, model *hw.Model, prob *core.Problem, testMask []bool, opts Options, epochs int) *Curve {
	opts = opts.withDefaults(prob.N())
	normA := sparse.GCNNormalize(prob.A)
	fullProb := &core.Problem{A: normA, X: prob.X, Labels: prob.Labels, TrainMask: prob.TrainMask}
	sampler := NewSampler(opts.Kind, prob.A, opts.Budget, opts.WalkLength)
	var norms *Norms
	if opts.NormTrials > 0 {
		norms = EstimateNorms(sampler, opts.NormTrials, opts.Seed+1)
	}

	// Pre-draw every subgraph (host-side, identical on all devices:
	// GraphSAINT's sampling seed is shared, §III-F).
	rng := rand.New(rand.NewSource(opts.Seed + 2))
	steps := opts.StepsPerEpoch * epochs
	subs := make([]*core.Problem, steps)
	for i := range subs {
		subs[i] = SubProblem(fullProb, normA, sampler.Sample(rng), norms)
	}

	curve := &Curve{Name: fmt.Sprintf("SAINT-RDM(%s)", opts.Kind)}
	fabric := comm.NewFabric(p, model)
	fabric.SetTracer(opts.Tracer, opts.traceLabel("saint-rdm"))
	engines := make([]*core.Engine, p)
	fabric.Run(func(d *comm.Device) {
		eng := core.NewEngine(d, subs[0], core.Options{
			Dims:    opts.Dims,
			Config:  configFor(opts.ConfigID, len(opts.Dims)-1),
			Memoize: true,
			LR:      opts.LR,
			Seed:    opts.Seed,
		})
		engines[d.Rank] = eng
		for ep := 0; ep < epochs; ep++ {
			lossSum := 0.0
			for s := 0; s < opts.StepsPerEpoch; s++ {
				// SetProblem swaps only the data: the op schedule the
				// engine compiled at construction is N-independent
				// (runtime shapes come from the live distributed
				// matrices), so it is reused verbatim for every
				// subgraph size the sampler produces.
				eng.SetProblem(subs[ep*opts.StepsPerEpoch+s])
				lossSum += eng.Epoch()
			}
			d.Barrier(d.World())
			if d.Rank == 0 {
				curve.Points = append(curve.Points, CurvePoint{
					Time:      d.Clock(),
					TestAcc:   evalFull(fullProb, normA, eng.Weights(), testMask),
					TrainLoss: lossSum / float64(opts.StepsPerEpoch),
					Updates:   (ep + 1) * opts.StepsPerEpoch,
				})
			}
			d.Barrier(d.World())
		}
	})
	return curve
}

// TrainSAINTDDP trains the DGL-style distributed-data-parallel baseline:
// each device trains a different subgraph locally and gradients are
// all-reduced, so one update consumes G subgraphs — the effective batch
// size grows with G and the update count per epoch shrinks to S/G
// (§V-C).
func TrainSAINTDDP(p int, model *hw.Model, prob *core.Problem, testMask []bool, opts Options, epochs int) *Curve {
	opts = opts.withDefaults(prob.N())
	normA := sparse.GCNNormalize(prob.A)
	fullProb := &core.Problem{A: normA, X: prob.X, Labels: prob.Labels, TrainMask: prob.TrainMask}
	sampler := NewSampler(opts.Kind, prob.A, opts.Budget, opts.WalkLength)
	var norms *Norms
	if opts.NormTrials > 0 {
		norms = EstimateNorms(sampler, opts.NormTrials, opts.Seed+1)
	}

	// S subgraphs per epoch are consumed G at a time.
	updatesPerEpoch := (opts.StepsPerEpoch + p - 1) / p
	rng := rand.New(rand.NewSource(opts.Seed + 2))
	subs := make([][]*core.Problem, epochs*updatesPerEpoch)
	for i := range subs {
		subs[i] = make([]*core.Problem, p)
		for r := 0; r < p; r++ {
			subs[i][r] = SubProblem(fullProb, normA, sampler.Sample(rng), norms)
		}
	}

	L := len(opts.Dims) - 1
	curve := &Curve{Name: fmt.Sprintf("SAINT-DDP(%s)", opts.Kind)}
	fabric := comm.NewFabric(p, model)
	fabric.SetTracer(opts.Tracer, opts.traceLabel("saint-ddp"))
	fabric.Run(func(d *comm.Device) {
		rngW := rand.New(rand.NewSource(opts.Seed))
		var weights []*tensor.Dense
		for l := 1; l <= L; l++ {
			w := tensor.NewDense(opts.Dims[l-1], opts.Dims[l])
			w.GlorotInit(rngW)
			weights = append(weights, w)
		}
		adam := nn.NewAdam(opts.LR, weights)
		for ep := 0; ep < epochs; ep++ {
			lossSum := 0.0
			for s := 0; s < updatesPerEpoch; s++ {
				sub := subs[ep*updatesPerEpoch+s][d.Rank]
				loss, grads := localStep(d, sub, weights)
				lossSum += loss
				// DDP gradient synchronization: average across devices.
				for _, g := range grads {
					sum := d.AllReduceSum(d.World(), g.Data)
					copy(g.Data, sum)
					g.Scale(1 / float32(p))
				}
				adam.Step(weights, grads)
			}
			d.Barrier(d.World())
			if d.Rank == 0 {
				curve.Points = append(curve.Points, CurvePoint{
					Time:      d.Clock(),
					TestAcc:   evalFull(fullProb, normA, weights, testMask),
					TrainLoss: lossSum / float64(updatesPerEpoch),
					Updates:   (ep + 1) * updatesPerEpoch,
				})
			}
			d.Barrier(d.World())
		}
	})
	return curve
}

// localStep runs one single-device forward/backward over a subgraph and
// returns the loss and weight gradients, charging compute to the device.
func localStep(d *comm.Device, sub *core.Problem, weights []*tensor.Dense) (float64, []*tensor.Dense) {
	L := len(weights)
	hs := make([]*tensor.Dense, L+1)
	hs[0] = sub.X
	for l := 1; l <= L; l++ {
		t := sub.A.SpMM(hs[l-1])
		d.ChargeSpMM(sub.A.NNZ(), hs[l-1].Cols)
		z := tensor.MatMul(t, weights[l-1])
		d.ChargeGemm(t.Rows, t.Cols, z.Cols)
		if l < L {
			z.ReLU()
			d.ChargeMem(z.Bytes())
		}
		hs[l] = z
	}
	lossSum, grad, wtot := nn.WeightedSoftmaxCrossEntropySum(hs[L], sub.Labels, sub.TrainMask, sub.LossWeights)
	d.ChargeMem(2 * hs[L].Bytes())
	loss := 0.0
	if wtot > 0 {
		grad.Scale(float32(1.0 / wtot))
		loss = lossSum / wtot
	}
	grads := make([]*tensor.Dense, L)
	g := grad
	for l := L; l >= 1; l-- {
		t := sub.A.SpMM(g)
		d.ChargeSpMM(sub.A.NNZ(), g.Cols)
		grads[l-1] = tensor.MatMulTA(hs[l-1], t)
		d.ChargeGemm(hs[l-1].Cols, hs[l-1].Rows, t.Cols)
		if l > 1 {
			g = tensor.MatMulTB(t, weights[l-1])
			d.ChargeGemm(t.Rows, t.Cols, weights[l-1].Rows)
			g.ReLUGrad(hs[l-1])
			d.ChargeMem(g.Bytes())
		}
	}
	return loss, grads
}

// TrainFullBatchCurve runs full-batch GCN-RDM and reports the same
// accuracy-versus-time curve shape for the Fig. 13 comparison.
func TrainFullBatchCurve(p int, model *hw.Model, prob *core.Problem, testMask []bool, opts Options, epochs int) *Curve {
	opts = opts.withDefaults(prob.N())
	if testMask == nil {
		testMask = make([]bool, prob.N())
		for i := range testMask {
			testMask[i] = true
		}
	}
	normA := sparse.GCNNormalize(prob.A)
	fullProb := &core.Problem{A: normA, X: prob.X, Labels: prob.Labels, TrainMask: prob.TrainMask}
	res := core.Train(p, model, fullProb, core.Options{
		Dims:       opts.Dims,
		Config:     configFor(opts.ConfigID, len(opts.Dims)-1),
		Memoize:    true,
		LR:         opts.LR,
		Seed:       opts.Seed,
		EvalMask:   testMask,
		Tracer:     opts.Tracer,
		TraceLabel: opts.traceLabel("gcn-rdm"),
	}, epochs)
	curve := &Curve{Name: "GCN-RDM"}
	cum := 0.0
	for i, ep := range res.Epochs {
		cum += ep.Time
		curve.Points = append(curve.Points, CurvePoint{
			Time: cum, TestAcc: ep.EvalAcc, TrainLoss: ep.Loss, Updates: i + 1,
		})
	}
	return curve
}

func configFor(id, layers int) costmodel.Config { return costmodel.ConfigFromID(id, layers) }
