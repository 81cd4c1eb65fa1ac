package core

import (
	"fmt"

	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sim"
	"gnnrdm/internal/tensor"
)

// Executor abstracts how a training run executes. The live fabric is
// the oracle: payload-moving devices whose numerics (losses, logits,
// weights) are what every differential suite checks against. The
// discrete-event backend (internal/sim) prices the identical run —
// same clocks, same comm/compute time, same metered bytes, pinned
// bit-exact by verify.CheckSimMatchesFabric — without moving a byte of
// payload, which is what makes P=4096 sweeps interactive. The rdmtrain
// CLI chooses by name (-engine) via ExecutorFor; numerics consumers
// stay on the fabric.
type Executor interface {
	// Name is the stable CLI name ("fabric", "sim").
	Name() string
	// Train runs epochs of distributed RDM training. Fabric results
	// carry full numerics; sim results carry timing and traffic only
	// (Loss/EvalAcc zero, empty Logits, nil Weights).
	Train(p int, model *hw.Model, prob *Problem, opts Options, epochs int) *Result
}

// FabricExecutor executes on the live fabric (core.Train).
type FabricExecutor struct{}

// Name implements Executor.
func (FabricExecutor) Name() string { return "fabric" }

// Train implements Executor.
func (FabricExecutor) Train(p int, model *hw.Model, prob *Problem, opts Options, epochs int) *Result {
	return Train(p, model, prob, opts, epochs)
}

// SimExecutor executes on the discrete-event engine. It compiles the
// exact schedule NewEngine would run, prices it with the engine's real
// panel census, and replays the training driver's barrier/snapshot
// protocol (epochLog.run), so every timing and traffic field of the
// Result is bit-identical to the fabric executor's.
type SimExecutor struct {
	// Cache, when non-nil, shares redistribution censuses across runs
	// of one (P, model, topology) context — a sweep passes one cache
	// per context.
	Cache *plan.PriceCache
}

// Name implements Executor.
func (SimExecutor) Name() string { return "sim" }

// Train implements Executor. Options requesting live numerics
// (EvalMask, MaskProvider) panic: accuracy needs payloads, which the
// sim deliberately never materializes.
func (x SimExecutor) Train(p int, model *hw.Model, prob *Problem, opts Options, epochs int) *Result {
	opts = opts.withDefaults(p)
	opts.validate(p, prob)
	if opts.EvalMask != nil {
		panic("core: SimExecutor cannot evaluate accuracy (EvalMask needs payloads)")
	}
	if opts.MaskProvider != nil {
		panic("core: SimExecutor cannot train with sampled masks (MaskProvider needs payloads)")
	}
	sched := plan.Compile(plan.Spec{
		N: prob.N(), Dims: opts.Dims, Config: opts.Config,
		P: p, RA: opts.RA, SAGE: opts.SAGE, Memoize: opts.Memoize,
		InputGrad: opts.ComputeInputGrad,
	}).Optimize()
	sr := sim.MustRun(sim.Config{
		Sched:  sched,
		Census: PanelCensus(prob, p, opts.RA),
		HW:     model, Topology: opts.Topology,
		Epochs: epochs, Overlap: opts.Overlap,
		EpochBarriers: 2, // epochLog.run's protocol
		Tracer:        opts.Tracer, TraceLabel: opts.TraceLabel,
		Cache: x.Cache,
	})
	// The replay's per-epoch clocks are the ones the fabric's devices
	// book at each epoch's end; fold them the one way.
	l := newEpochLog(p, 0)
	for r := range l.marks {
		l.marks[r] = append(l.marks[r], devClocks{})
		for ep := 0; ep < epochs; ep++ {
			l.marks[r] = append(l.marks[r], devClocks{sr.EpochClock[ep][r], sr.EpochComm[ep][r], sr.EpochCompute[ep][r]})
		}
	}
	for _, b := range sr.EpochBytes {
		l.rank0 = append(l.rank0, EpochStats{CommBytes: b})
	}
	res := &Result{Epochs: make([]EpochStats, epochs)}
	l.fold(res.Epochs, 0)
	res.Logits = tensor.NewDense(0, 0)
	return res
}

// ExecutorFor resolves a CLI -engine name. Empty selects the fabric.
func ExecutorFor(name string) (Executor, error) {
	switch name {
	case "", "fabric":
		return FabricExecutor{}, nil
	case "sim":
		return SimExecutor{}, nil
	}
	return nil, fmt.Errorf("core: unknown engine %q (want fabric or sim)", name)
}
