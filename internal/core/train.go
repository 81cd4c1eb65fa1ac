package core

import (
	"math"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/costmodel"
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
// is returned as a new checkpoint alongside the result. It is the
// elastic driver (TrainElastic) with no fault schedule.
func TrainResumable(p int, model *hw.Model, prob *Problem, opts Options, epochs int, resume *Checkpoint) (*Result, *Checkpoint) {
	res, eng := train(p, model, prob, opts, epochs, ElasticOptions{}, resume)
	return &res.Result, eng.Snapshot()
}

// devClocks is one device's cumulative clock, communication and compute
// time.
type devClocks struct{ clock, comm, comp float64 }

func readClocks(d *comm.Device) devClocks { return devClocks{d.Clock(), d.CommTime(), d.ComputeTime()} }

// epochLog books the epochs one world runs from epoch first on: rank
// 0's loss, accuracy and cumulative fabric volume (in CommBytes) at each
// epoch's end, and every device's clocks before its first epoch and at
// each epoch's end. Each rank appends only to its own entries.
type epochLog struct {
	first int
	rank0 []EpochStats
	marks [][]devClocks // [rank][k]: k = 0 before the first epoch, k+1 after epoch first+k
}

func newEpochLog(p, first int) *epochLog {
	return &epochLog{first: first, marks: make([][]devClocks, p)}
}

// run is the epoch loop every trainer's devices execute, with from as
// device d's clocks before its first epoch: step runs epoch ep and
// returns its loss and accuracy; the world then meets at a barrier,
// rank 0 books the fabric volume while its peers are parked there (so
// the read is race-free), every device books its clocks, and a second
// barrier releases the next epoch.
func (l *epochLog) run(d *comm.Device, from devClocks, end int, step func(ep int) (loss, acc float64)) {
	l.marks[d.Rank] = append(l.marks[d.Rank], from)
	for ep := l.first; ep < end; ep++ {
		loss, acc := step(ep)
		d.Barrier(d.World())
		if d.Rank == 0 {
			l.rank0 = append(l.rank0, EpochStats{Loss: loss, EvalAcc: acc, CommBytes: d.F.TotalVolume()})
		}
		l.marks[d.Rank] = append(l.marks[d.Rank], readClocks(d))
		d.Barrier(d.World())
	}
}

// fold writes each epoch every device completed into out[first+k]: the
// makespan, comm and compute times are maxima over devices of that
// epoch's deltas; loss, accuracy and bytes are rank 0's. base is the
// fabric volume before the first epoch. It returns the number of
// completed epochs.
func (l *epochLog) fold(out []EpochStats, base int64) int {
	done := len(l.rank0)
	for _, m := range l.marks {
		done = min(done, max(len(m)-1, 0))
	}
	prev := base
	for k := 0; k < done; k++ {
		es := l.rank0[k]
		es.CommBytes, prev = es.CommBytes-prev, es.CommBytes
		for _, m := range l.marks {
			es.Time = math.Max(es.Time, m[k+1].clock-m[k].clock)
			es.CommTime = math.Max(es.CommTime, m[k+1].comm-m[k].comm)
			es.ComputeTime = math.Max(es.ComputeTime, m[k+1].comp-m[k].comp)
		}
		out[l.first+k] = es
	}
	return done
}

// RunEpochs runs epochs 0..epochs-1 of a trainer on every device of a
// fresh fabric and measures each the way Train does. start builds device
// d's trainer and returns its step, which runs epoch ep and returns the
// loss and evaluation accuracy. Whatever clock time start takes counts
// toward epoch 0.
func RunEpochs(fabric *comm.Fabric, epochs int, start func(d *comm.Device) func(ep int) (loss, acc float64)) []EpochStats {
	l := newEpochLog(fabric.P, 0)
	fabric.Run(func(d *comm.Device) { l.run(d, devClocks{}, epochs, start(d)) })
	out := make([]EpochStats, epochs)
	l.fold(out, 0)
	return out
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
