package core

import (
	"math"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/nn"
	"gnnrdm/internal/tensor"
)

// EpochStats records one epoch of a distributed run. Times are simulated
// seconds from the hardware model; volume is exact metered bytes.
type EpochStats struct {
	Loss float64
	// EvalAcc is the accuracy on Options.EvalMask vertices (0 when no
	// mask was supplied).
	EvalAcc float64
	// Time is the epoch makespan: the maximum per-device clock advance.
	Time float64
	// CommTime / ComputeTime are maxima over devices of the respective
	// accumulators (communication includes synchronization skew).
	CommTime, ComputeTime float64
	// CommBytes is the total data moved across device boundaries.
	CommBytes int64
}

// Result is the outcome of a training run.
type Result struct {
	Epochs []EpochStats
	// Logits is the assembled final-epoch output (N x f_L).
	Logits *tensor.Dense
	// Weights are the final (replicated) parameters.
	Weights []*tensor.Dense
}

// MeanEpochTime returns the arithmetic-mean simulated epoch time,
// skipping the first epoch if more than one was run (warm-up, matching
// the paper's throughput methodology).
func (r *Result) MeanEpochTime() float64 {
	es := r.Epochs
	if len(es) == 0 {
		return 0
	}
	if len(es) > 1 {
		es = es[1:]
	}
	var s float64
	for _, e := range es {
		s += e.Time
	}
	return s / float64(len(es))
}

// EpochsPerSecond is the training throughput the paper's Figs. 8-11
// report (0 when no epochs were run).
func (r *Result) EpochsPerSecond() float64 {
	if t := r.MeanEpochTime(); t > 0 {
		return 1 / t
	}
	return 0
}

// MeanCommTime returns the mean per-epoch communication time (skipping
// the warm-up epoch like MeanEpochTime).
func (r *Result) MeanCommTime() float64 {
	es := r.Epochs
	if len(es) == 0 {
		return 0
	}
	if len(es) > 1 {
		es = es[1:]
	}
	var s float64
	for _, e := range es {
		s += e.CommTime
	}
	return s / float64(len(es))
}

// Train runs `epochs` epochs of distributed RDM GCN training on p
// simulated devices.
func Train(p int, model *hw.Model, prob *Problem, opts Options, epochs int) *Result {
	res, _ := TrainResumable(p, model, prob, opts, epochs, nil)
	return res
}

// TrainResumable is Train with checkpointing: when resume is non-nil,
// every device restores it before the first epoch; the final model state
// is returned as a new checkpoint alongside the result.
func TrainResumable(p int, model *hw.Model, prob *Problem, opts Options, epochs int, resume *Checkpoint) (*Result, *Checkpoint) {
	opts = opts.withDefaults(p)
	opts.validate(p, prob) // fail on the caller's goroutine, not a device's
	fabric := comm.NewFabric(p, model)
	if opts.Topology != nil {
		fabric.SetTopology(opts.Topology)
	}
	if opts.Tracer != nil {
		label := opts.TraceLabel
		if label == "" {
			label = "rdm"
		}
		fabric.SetTracer(opts.Tracer, label)
	}
	engines := make([]*Engine, p)
	stats := make([][]EpochStats, p)
	volumes := make([]int64, epochs)
	restoreErrs := make([]error, p)

	fabric.Run(func(d *comm.Device) {
		eng := NewEngine(d, prob, opts)
		engines[d.Rank] = eng
		if resume != nil {
			if err := eng.Restore(resume); err != nil {
				restoreErrs[d.Rank] = err
				return
			}
		}
		var prevClock, prevComm, prevComp float64
		for ep := 0; ep < epochs; ep++ {
			loss := eng.Epoch()
			acc := 0.0
			if opts.EvalMask != nil {
				acc = eng.EvalAccuracy(opts.EvalMask)
			}
			d.Barrier(d.World())
			if d.Rank == 0 {
				// All devices are parked at the barrier above and cannot
				// issue collectives until rank 0 reaches the next one, so
				// the volume snapshot is race-free.
				volumes[ep] = fabric.TotalVolume()
			}
			stats[d.Rank] = append(stats[d.Rank], EpochStats{
				Loss:        loss,
				EvalAcc:     acc,
				Time:        d.Clock() - prevClock,
				CommTime:    d.CommTime() - prevComm,
				ComputeTime: d.ComputeTime() - prevComp,
			})
			prevClock, prevComm, prevComp = d.Clock(), d.CommTime(), d.ComputeTime()
			d.Barrier(d.World())
		}
	})

	if restoreErrs[0] != nil {
		// Restore is deterministic across devices: either all failed
		// (before any collective) or none did.
		panic(restoreErrs[0])
	}
	res := &Result{Weights: engines[0].Weights()}
	var prevVol int64
	for ep := 0; ep < epochs; ep++ {
		es := EpochStats{Loss: stats[0][ep].Loss, EvalAcc: stats[0][ep].EvalAcc, CommBytes: volumes[ep] - prevVol}
		prevVol = volumes[ep]
		for r := 0; r < p; r++ {
			s := stats[r][ep]
			es.Time = math.Max(es.Time, s.Time)
			es.CommTime = math.Max(es.CommTime, s.CommTime)
			es.ComputeTime = math.Max(es.ComputeTime, s.ComputeTime)
		}
		res.Epochs = append(res.Epochs, es)
	}
	if engines[0].LastLogits() != nil {
		tiles := make([]*dist.Mat, p)
		for r := 0; r < p; r++ {
			tiles[r] = engines[r].LastLogits()
		}
		res.Logits = dist.Assemble(tiles)
	} else {
		// Zero-epoch run: no forward pass produced logits.
		res.Logits = tensor.NewDense(0, 0)
	}
	return res, engines[0].Snapshot()
}

// Evaluate runs a forward pass with the given weights already embedded in
// a Result and returns accuracy on the masked rows.
func (r *Result) Accuracy(labels []int32, mask []bool) float64 {
	return nn.Accuracy(r.Logits, labels, mask)
}

// AutoTune implements the paper's dynamic configuration selection
// (§IV-B): it evaluates the model's Pareto-optimal candidates for
// probeEpochs each and returns the ID with the lowest mean epoch time,
// along with the per-candidate times.
func AutoTune(p int, model *hw.Model, prob *Problem, opts Options, probeEpochs int) (best int, times map[int]float64) {
	opts = opts.withDefaults(p)
	net := costmodel.Network{
		Dims: opts.Dims,
		N:    int64(prob.N()),
		NNZ:  prob.A.NNZ(),
		P:    p,
		RA:   opts.RA,
	}
	candidates := costmodel.ParetoConfigs(net)
	times = make(map[int]float64, len(candidates))
	best = candidates[0]
	bestTime := math.Inf(1)
	for _, id := range candidates {
		o := opts
		o.Config = costmodel.ConfigFromID(id, opts.Layers())
		res := Train(p, model, prob, o, probeEpochs)
		t := res.MeanEpochTime()
		times[id] = t
		if t < bestTime {
			best, bestTime = id, t
		}
	}
	return best, times
}
