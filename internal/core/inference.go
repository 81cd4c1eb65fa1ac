package core

import (
	"fmt"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/plan"
)

// This file is the serving tier's entry into the engine: a read-only
// inference engine interpreting the forward-only schedule of
// plan.CompileInference, with registers retained across calls so a
// per-layer staleness policy re-runs only the sections from the first
// stale layer (see internal/serve).

// NewInferenceEngine builds a read-only engine for request-driven
// serving. Weights come from cp — any training run's Snapshot; only
// the weight matrices are read, never the optimizer state — or, when
// cp is nil, from the seeded Glorot initialization (identical on all
// devices). The schedule is the forward-only CompileInference compile;
// the engine has no Adam state and must not be driven with Epoch.
func NewInferenceEngine(dev *comm.Device, prob *Problem, opts Options, cp *Checkpoint) *Engine {
	e := newEngine(dev, prob, opts)
	if cp != nil {
		if len(cp.Weights) != len(e.weights) {
			panic(fmt.Sprintf("core: checkpoint has %d weights, inference engine needs %d",
				len(cp.Weights), len(e.weights)))
		}
		for i := range e.weights {
			if cp.Weights[i].Rows != e.weights[i].Rows || cp.Weights[i].Cols != e.weights[i].Cols {
				panic(fmt.Sprintf("core: checkpoint weight %d is %dx%d, engine needs %dx%d",
					i, cp.Weights[i].Rows, cp.Weights[i].Cols, e.weights[i].Rows, e.weights[i].Cols))
			}
			e.weights[i].CopyFrom(cp.Weights[i])
		}
	}
	opts = e.opts
	e.sched = plan.CompileInference(plan.Spec{
		N: prob.N(), Dims: opts.Dims, Config: opts.Config,
		P: dev.P(), RA: opts.RA, SAGE: opts.SAGE,
	}).Optimize()
	return e
}

// RunInference (re)runs the forward schedule and returns this device's
// horizontal logits tile. fromLayer selects the first layer whose
// embedding is recomputed: 0 (or any value on the first call) runs
// init and every layer; l > 0 re-runs only the fwd sections of layers
// >= l over the registers retained from previous calls — the per-layer
// staleness refresh of the serving tier, repaying exactly the
// communication the pricer attributes to those sections. With a frozen
// model and graph the recomputed values are bit-identical, so any
// staleness bound serves exact answers; the knob exists to meter what
// a drifting embedding table would pay.
func (e *Engine) RunInference(fromLayer int) *dist.Mat {
	if len(e.sched.Outputs) != 1 {
		panic("core: RunInference needs an inference schedule (use NewInferenceEngine)")
	}
	if e.infRegs == nil {
		e.infRegs = make([]*dist.Mat, e.sched.NumRegs)
		fromLayer = 0
	}
	e.dev.TraceSetDir("fwd")
	e.dev.TraceBeginPhase("inference")
	for i := range e.sched.Sections {
		sec := &e.sched.Sections[i]
		switch sec.Phase {
		case "init":
			if !e.infInit {
				e.runOps(sec, e.infRegs, nil)
			}
		case "fwd":
			if sec.Layer < fromLayer {
				continue
			}
			e.dev.TraceSetLayer(sec.Layer)
			e.dev.TraceBeginPhase("layer")
			e.runOps(sec, e.infRegs, nil)
			e.dev.TraceEndPhase()
		}
	}
	e.infInit = true
	e.dev.TraceSetLayer(0)
	e.dev.TraceEndPhase()
	e.dev.TraceSetDir("")
	e.lastLogits = e.infRegs[e.sched.Outputs[0]]
	return e.lastLogits
}
