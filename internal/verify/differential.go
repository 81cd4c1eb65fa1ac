package verify

import (
	"fmt"
	"math"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/nn"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/tensor"
	"gnnrdm/internal/topo"
)

// DiffSpec is a table-driven differential-equivalence sweep: train every
// (config, P, R_A) combination and assert the result agrees with the
// single-device reference within the package tolerances.
type DiffSpec struct {
	Problem *core.Problem
	Dims    []int // f_0..f_L
	Epochs  int
	Ps      []int // fabric sizes; defaults to {1, 2, 4, 8}
	// Configs are Table IV ordering IDs; nil means all 2^{2L}.
	Configs []int
	// RAs returns the replication factors to sweep for a fabric size;
	// nil means full replication only ({p}).
	RAs func(p int) []int
	// Seed and LR default to 7 and 0.01 (the repo's standard test
	// hyperparameters).
	Seed int64
	LR   float64
	// TopoSpec, when non-empty, runs every distributed training on this
	// interconnect spec (internal/topo), instantiated per fabric size.
	// Results must still match the flat reference exactly: topology
	// routing changes clocks and meters, never numerics. The spec must
	// cover the largest P in the sweep.
	TopoSpec string
}

func (s DiffSpec) opts(cfg int) core.Options {
	seed := s.Seed
	if seed == 0 {
		seed = 7
	}
	lr := s.LR
	if lr == 0 {
		lr = 0.01
	}
	return core.Options{
		Dims:             s.Dims,
		Config:           costmodel.ConfigFromID(cfg, len(s.Dims)-1),
		Memoize:          true,
		ComputeInputGrad: true,
		LR:               lr,
		Seed:             seed,
	}
}

// RunDifferential executes the sweep, one subtest per combination. The
// reference is trained once; each distributed run must match it on every
// epoch's loss, the final logits, every final weight matrix, and the
// all-vertex accuracy.
func RunDifferential(t *testing.T, spec DiffSpec) {
	t.Helper()
	ps := spec.Ps
	if ps == nil {
		ps = []int{1, 2, 4, 8}
	}
	configs := spec.Configs
	if configs == nil {
		nc := costmodel.NumConfigs(len(spec.Dims) - 1)
		configs = make([]int, nc)
		for i := range configs {
			configs[i] = i
		}
	}
	ras := spec.RAs
	if ras == nil {
		ras = func(p int) []int { return []int{p} }
	}
	var ts topo.Spec
	if spec.TopoSpec != "" {
		var err error
		if ts, err = topo.ParseSpec(spec.TopoSpec); err != nil {
			t.Fatalf("bad TopoSpec: %v", err)
		}
	}
	ref := core.ReferenceTrain(spec.Problem, spec.opts(0), spec.Epochs)
	refAcc := nn.Accuracy(ref.Logits, spec.Problem.Labels, nil)

	for _, cfg := range configs {
		for _, p := range ps {
			for _, ra := range ras(p) {
				cfg, p, ra := cfg, p, ra
				t.Run(fmt.Sprintf("cfg%02d/P%d/RA%d", cfg, p, ra), func(t *testing.T) {
					o := spec.opts(cfg)
					o.RA = ra
					if spec.TopoSpec != "" {
						o.Topology = ts.MustTopology(p)
					}
					res := core.Train(p, hw.A6000(), spec.Problem, o, spec.Epochs)
					for ep, want := range ref.Losses {
						if d := math.Abs(res.Epochs[ep].Loss - want); d > LossTol {
							t.Fatalf("epoch %d loss %v, reference %v (|Δ|=%.3g > %g)",
								ep, res.Epochs[ep].Loss, want, d, LossTol)
						}
					}
					if d := tensor.MaxAbsDiff(res.Logits, ref.Logits); d > LogitsTol {
						t.Fatalf("final logits diverge from reference: max|Δ|=%.3g > %g", d, LogitsTol)
					}
					if len(res.Weights) != len(ref.Weights) {
						t.Fatalf("weight group count %d, reference %d", len(res.Weights), len(ref.Weights))
					}
					for i := range res.Weights {
						if d := tensor.MaxAbsDiff(res.Weights[i], ref.Weights[i]); d > WeightTol {
							t.Fatalf("weight %d diverges from reference: max|Δ|=%.3g > %g", i, d, WeightTol)
						}
					}
					acc := res.Accuracy(spec.Problem.Labels, nil)
					if d := math.Abs(acc - refAcc); d > AccTol {
						t.Fatalf("accuracy %v, reference %v (|Δ|=%.3g > %g)", acc, refAcc, d, AccTol)
					}
				})
			}
		}
	}
}

// TrainFabric runs epochs of engine training on a fresh fabric and
// returns the fabric for meter/trace inspection (core.Train does not
// expose its fabric). When tracing is requested via opts.Tracer the
// session is labelled opts.TraceLabel.
func TrainFabric(p int, prob *core.Problem, opts core.Options, epochs int) *comm.Fabric {
	if opts.RA == 0 {
		opts.RA = p
	}
	fab := comm.NewFabric(p, hw.A6000())
	if opts.Topology != nil {
		fab.SetTopology(opts.Topology)
	}
	if opts.Tracer != nil {
		label := opts.TraceLabel
		if label == "" {
			label = "verify"
		}
		fab.SetTracer(opts.Tracer, label)
	}
	fab.Run(func(d *comm.Device) {
		eng := core.NewEngine(d, prob, opts)
		for ep := 0; ep < epochs; ep++ {
			eng.Epoch()
		}
	})
	return fab
}

// CheckVolumeMatchesModel trains one epoch and asserts the metered RDM
// volume — all-to-all redistributions plus column-group allgathers —
// equals the §IV cost-model prediction byte-for-byte. Mask
// redistribution traffic (which the model deliberately omits) rides the
// fabric's side channel and is therefore excluded from the primary
// meters automatically; it is returned for callers that want to
// reconcile total traffic.
func CheckVolumeMatchesModel(t testing.TB, prob *core.Problem, dims []int, p, ra, cfg int) (side int64) {
	t.Helper()
	o := DiffSpec{Dims: dims}.opts(cfg)
	o.RA = ra
	fab := TrainFabric(p, prob, o, 1)
	m := fab.Meters()
	got := m.Volume[hw.OpAllToAll] + m.Volume[hw.OpAllGather]
	net := costmodel.Network{Dims: dims, N: int64(prob.N()), NNZ: prob.A.NNZ(), P: p, RA: ra}
	want := costmodel.EvaluateEngine(net, costmodel.ConfigFromID(cfg, len(dims)-1)).CommVolumeBytes()
	if got != want {
		t.Fatalf("P=%d RA=%d cfg=%d: metered RDM volume %d bytes, model predicts %d (Δ=%d)",
			p, ra, cfg, got, want, got-want)
	}
	// The compiled schedule is a third independent accounting of the same
	// epoch; its per-op prices must sum to the identical figure.
	planned := scheduleFor(prob, p, o).Price(prob.A.NNZ(), hw.A6000()).RDMBytes()
	if planned != want {
		t.Fatalf("P=%d RA=%d cfg=%d: schedule prices %d RDM bytes, model predicts %d (Δ=%d)",
			p, ra, cfg, planned, want, planned-want)
	}
	return m.TotalSideVolume()
}

// scheduleFor compiles the optimized op schedule NewEngine would build
// for these options (the compile is deterministic, so this reproduces
// the engines' schedule without reaching into a fabric).
func scheduleFor(prob *core.Problem, p int, o core.Options) *plan.Schedule {
	ra := o.RA
	if ra == 0 {
		ra = p
	}
	cfg := o.Config
	if len(cfg.Fwd) == 0 {
		cfg = costmodel.ConfigFromID(0, len(o.Dims)-1)
	}
	return plan.Compile(plan.Spec{
		N: prob.N(), Dims: o.Dims, Config: cfg, P: p, RA: ra,
		SAGE: o.SAGE, Memoize: o.Memoize, InputGrad: o.ComputeInputGrad,
		Live: o.Live, SparseSeed: o.SparseSeed,
	}).Optimize()
}

// CheckScheduleMatchesMeters trains one epoch under arbitrary options —
// including mixed per-layer orderings and GraphSAGE, which the closed-form
// §IV model does not cover — and reconciles the fabric's meters against
// the compiled schedule's per-op prices exactly (MetersMatchPrice): RDM
// volume (all-to-all + allgather), gradient/loss all-reduce volume,
// side-channel mask bytes and the per-link-tier split of the primary
// and side volumes, on the flat fabric (tier 0) as on o.Topology.
// Options must not request per-epoch accuracy evaluation (EvalMask),
// whose all-reduce is outside the epoch schedule.
func CheckScheduleMatchesMeters(t testing.TB, prob *core.Problem, p int, o core.Options) {
	t.Helper()
	if o.EvalMask != nil {
		panic("verify: CheckScheduleMatchesMeters with EvalMask")
	}
	fab := TrainFabric(p, prob, o, 1)
	c := scheduleFor(prob, p, o).PriceOn(prob.A.NNZ(), hw.A6000(), o.Topology)
	where := fmt.Sprintf("P=%d", p)
	if o.Topology != nil {
		where += " on " + o.Topology.Name
	}
	if err := MetersMatchPrice(fab.Meters(), c); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
}

// MetersMatchPrice reconciles one epoch's fabric meters against the
// schedule's prices exactly: the whole ledger — volume by collective
// class, side-channel bytes and the per-link-tier split of both (the
// flat fabric books everything on tier 0).
func MetersMatchPrice(m comm.Meters, c plan.Cost) error {
	return ledgersMatch(plan.TrafficOf(m), c.Traffic)
}

// ledgersMatch compares a metered byte ledger with a predicted one,
// every field at once.
func ledgersMatch(metered, predicted plan.Traffic) error {
	if metered != predicted {
		return fmt.Errorf("metered %+v, predicted %+v", metered, predicted)
	}
	return nil
}
