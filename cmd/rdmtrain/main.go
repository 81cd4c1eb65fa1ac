// Command rdmtrain trains a GCN (or GraphSAGE) with GNN-RDM on the
// simulated multi-GPU fabric, on either a user-supplied graph or a
// synthetic one, and can save/resume binary checkpoints.
//
// Train on an edge list with labels:
//
//	rdmtrain -edges graph.txt -labels labels.txt -n 10000 -classes 40 \
//	         -hidden 128 -gpus 8 -epochs 50 -save model.ckpt
//
// Train on a synthetic planted-partition graph:
//
//	rdmtrain -synthetic -n 4096 -classes 8 -features 64 -epochs 30
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"

	"gnnrdm/internal/core"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/fault"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/member"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/saint"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI against explicit streams and returns the exit
// code, so tests can drive it end to end.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdmtrain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		edges     = fs.String("edges", "", "edge-list file (u v per line)")
		labelsF   = fs.String("labels", "", "label file (one integer per line, -1 = unlabeled)")
		synthetic = fs.Bool("synthetic", false, "generate a planted-partition graph instead of loading")
		n         = fs.Int("n", 4096, "vertex count")
		classes   = fs.Int("classes", 8, "number of classes")
		features  = fs.Int("features", 64, "input feature width (synthetic features are community-correlated)")
		hidden    = fs.Int("hidden", 128, "hidden width")
		layers    = fs.Int("layers", 2, "GCN layers, at least 1 (-config -1 prices all 4^layers orderings)")
		gpus      = fs.Int("gpus", 8, "simulated device count")
		epochs    = fs.Int("epochs", 30, "training epochs")
		lr        = fs.Float64("lr", 0.01, "Adam learning rate")
		seed      = fs.Int64("seed", 7, "random seed")
		sage      = fs.Bool("sage", false, "GraphSAGE two-weight layers")
		rowNorm   = fs.Bool("rownorm", false, "random-walk normalization D^-1(A+I) instead of symmetric GCN")
		configID  = fs.Int("config", -1, "Table IV ordering config ID (-1 = model-selected best)")
		ra        = fs.Int("ra", 0, "adjacency replication factor (0 = full replication)")
		fanout    = fs.Int("fanout", 0, "masked neighbor-sampling fanout (0 = full aggregation)")
		density   = fs.Float64("density", 1, "live feature-row fraction; <1 zeroes the rest and trains with the sparsity-aware exchange")
		save      = fs.String("save", "", "write a checkpoint here after training")
		resume    = fs.String("resume", "", "resume from a checkpoint")
		traceOut  = fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in Perfetto or chrome://tracing)")
		faults    = fs.String("faults", "", "fault schedule to inject, e.g. 'crash@rank2:epoch3,slow@rank0:1.5x' (enables elastic recovery; see RESILIENCE.md)")
		faultSeed = fs.Int64("fault-seed", 1, "fault injector seed (same seed + schedule reproduces the identical run)")
		ckEvery   = fs.Int("checkpoint-every", 1, "epochs between durable recovery checkpoints in an elastic run")
		engine    = fs.String("engine", "fabric", "execution backend: fabric (live devices, full numerics) or sim (discrete-event pricing; timing and traffic only)")
		memberOn  = fs.Bool("member", false, "detect failures by SWIM gossip among survivors instead of the coordinator oracle (see RESILIENCE.md)")
		memberT   = fs.Float64("member-period", 0, "gossip protocol period in seconds (0 = protocol default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if msg := checkFlags(shapeFlags{layers: *layers, configID: *configID, gpus: *gpus, ra: *ra, n: *n,
		classes: *classes, features: *features, hidden: *hidden, fanout: *fanout, epochs: *epochs,
		density: *density, synthetic: *synthetic}); msg != "" {
		fmt.Fprintln(stderr, "rdmtrain:", msg)
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "rdmtrain:", err)
		return 1
	}

	// 1. Load or generate the graph.
	var adj *sparse.CSR
	var labels []int32
	rng := rand.New(rand.NewSource(*seed))
	switch {
	case *synthetic:
		adj, labels = graph.PlantedPartition(rng, *n, int64(8**n), *classes, 0.8)
	case *edges != "":
		f, err := os.Open(*edges)
		if err != nil {
			return fail(err)
		}
		adj, err = graph.ReadEdgeList(f, *n)
		f.Close()
		if err != nil {
			return fail(err)
		}
		if *labelsF != "" {
			lf, err := os.Open(*labelsF)
			if err != nil {
				return fail(err)
			}
			labels, err = graph.ReadLabels(lf, *n, *classes)
			lf.Close()
			if err != nil {
				return fail(err)
			}
			if !slices.ContainsFunc(labels, func(l int32) bool { return l >= 0 }) {
				return fail(fmt.Errorf("-labels %s labels no vertex: every line is -1", *labelsF))
			}
		} else {
			labels = make([]int32, *n)
			for i := range labels {
				labels[i] = int32(rng.Intn(*classes))
			}
			fmt.Fprintln(stdout, "note: no -labels given; using random labels (runtime evaluation only)")
		}
	default:
		return fail(fmt.Errorf("need -edges FILE or -synthetic"))
	}

	// 2. Normalize and synthesize features if needed.
	prob := &core.Problem{Labels: labels}
	if *rowNorm {
		prob.A = sparse.RowNormalize(adj)
		prob.ATranspose = prob.A.Transpose()
	} else {
		prob.A = sparse.GCNNormalize(adj)
	}
	prob.X = graph.SynthesizeFeatures(rng, labels, *classes, *features, 0.8)

	// Optional row-sparse features: keep only the canonical live set and
	// let the planner and executor agree on it by construction (the
	// executor's value scan recovers exactly these rows).
	live := 0
	if *density < 1 {
		live = costmodel.LiveCount(*n, *density)
		prob.X = dist.KeepRows(prob.X, dist.GenRows(trainSparseSeed, *n, live))
		fmt.Fprintf(stdout, "sparse features: density %g -> %d/%d live rows (two-round exchange enabled)\n",
			*density, live, *n)
	}

	// 3. Pick the ordering configuration.
	dims := []int{*features}
	for i := 1; i < *layers; i++ {
		dims = append(dims, *hidden)
	}
	dims = append(dims, *classes)
	raEff := *ra
	if raEff == 0 {
		raEff = *gpus
	}
	id := *configID
	if id < 0 {
		// Model-driven selection (§IV-B): the planner prices the fully
		// compiled schedule of every ordering and keeps the cheapest.
		sp := plan.Spec{N: *n, Dims: dims, P: *gpus, RA: raEff, SAGE: *sage, Memoize: true,
			Live: live, SparseSeed: trainSparseSeed}
		cfg := plan.Choose(sp, prob.A.NNZ(), hw.A6000(), nil, false)
		id = cfg.ID()
		sp.Config = cfg
		predicted := plan.Compile(sp).Optimize().Price(prob.A.NNZ(), hw.A6000()).Time
		fmt.Fprintf(stdout, "planner-selected ordering: %d (%v), predicted epoch %.3gs\n",
			id, cfg, predicted)
	}

	opts := core.Options{
		Dims:       dims,
		Config:     costmodel.ConfigFromID(id, *layers),
		RA:         *ra,
		Memoize:    true,
		LR:         *lr,
		Seed:       *seed,
		SAGE:       *sage,
		Live:       live,
		SparseSeed: trainSparseSeed,
	}
	if *fanout > 0 {
		opts.MaskProvider = saint.NeighborMaskProvider(prob.A, *fanout, *seed)
	}
	if *traceOut != "" {
		opts.Tracer = trace.NewTracer(0)
	}

	// 4. Train (with optional resume/save through the engine API). The
	// sim backend replays the identical compiled schedule on the
	// discrete-event engine — same clocks and metered bytes, zero
	// payloads — so it reports timing only and carries no weights.
	ex, err := core.ExecutorFor(*engine)
	if err != nil {
		return fail(err)
	}
	var finalCP *core.Checkpoint
	switch {
	case ex.Name() == "sim":
		switch {
		case *faults != "":
			return fail(fmt.Errorf("-engine sim prices the fault-free schedule; drop -faults"))
		case *save != "" || *resume != "":
			return fail(fmt.Errorf("-engine sim carries no weights; drop -save/-resume"))
		case *fanout > 0:
			return fail(fmt.Errorf("-engine sim cannot apply sampled masks; drop -fanout"))
		}
		res := ex.Train(*gpus, hw.A6000(), prob, opts, *epochs)
		printEpochs(stdout, res.Epochs, false)
		fmt.Fprintf(stdout, "discrete-event engine: mean epoch %.3fms  throughput %.1f epochs/s (simulated %d GPUs, timing only)\n",
			res.MeanEpochTime()*1e3, res.EpochsPerSecond(), *gpus)
	case *faults != "":
		ff := faultFlags{
			faults: *faults, seed: *faultSeed, every: *ckEvery,
			gpus: *gpus, epochs: *epochs, ra: *ra,
			resume: *resume, save: *save,
		}
		if *memberOn {
			ff.member = &member.Config{Seed: *faultSeed, Period: *memberT}
		}
		if err := runElastic(stdout, prob, opts, ff); err != nil {
			return fail(err)
		}
	default:
		var cp *core.Checkpoint
		if *resume != "" {
			f, err := os.Open(*resume)
			if err != nil {
				return fail(err)
			}
			cp, err = core.ReadCheckpoint(f)
			f.Close()
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "resumed from %s (step %d)\n", *resume, cp.Step)
		}
		var res *core.Result
		res, finalCP = core.TrainResumable(*gpus, hw.A6000(), prob, opts, *epochs, cp)
		printEpochs(stdout, res.Epochs, true)
		fmt.Fprintf(stdout, "train accuracy: %.4f   throughput: %.1f epochs/s (simulated %d GPUs)\n",
			res.Accuracy(prob.Labels, nil), res.EpochsPerSecond(), *gpus)
	}

	if *traceOut != "" {
		if err := writeFile(*traceOut, func(w io.Writer) error { return trace.WriteChrome(w, opts.Tracer) }); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace written to %s (open in Perfetto / chrome://tracing)\n", *traceOut)
	}
	if *save != "" {
		if err := writeFile(*save, finalCP.Write); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "checkpoint written to %s\n", *save)
	}
	return 0
}

// printEpochs prints every fifth epoch and the last; the sim engine
// carries no loss.
func printEpochs(w io.Writer, epochs []core.EpochStats, withLoss bool) {
	for i, ep := range epochs {
		if i%5 == 0 || i == len(epochs)-1 {
			loss := ""
			if withLoss {
				loss = fmt.Sprintf("  loss %.4f", ep.Loss)
			}
			fmt.Fprintf(w, "epoch %3d%s  sim %.3fms  comm %.3fms  %.2fMB\n",
				i, loss, ep.Time*1e3, ep.CommTime*1e3, float64(ep.CommBytes)/(1<<20))
		}
	}
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shapeFlags are the flag values checkFlags validates.
type shapeFlags struct {
	layers, configID, gpus, ra, n, classes, features, hidden, fanout, epochs int
	density                                                                  float64
	synthetic                                                                bool
}

// checkFlags validates the flags that fix the network, fabric and
// problem shape, the sampling and the run length, before anything is
// built; it returns a one-line complaint, or "".
func checkFlags(f shapeFlags) string {
	switch {
	case f.layers < 1:
		return fmt.Sprintf("-layers %d: need at least 1", f.layers)
	case f.configID < -1 || f.configID >= costmodel.NumConfigs(f.layers):
		return fmt.Sprintf("-config %d out of range for %d layers (-1..%d)",
			f.configID, f.layers, costmodel.NumConfigs(f.layers)-1)
	case f.gpus < 1:
		return fmt.Sprintf("-gpus %d: need at least 1", f.gpus)
	case f.ra < 0 || f.ra > 0 && f.gpus%f.ra != 0:
		return fmt.Sprintf("-ra %d does not divide -gpus %d", f.ra, f.gpus)
	case f.n < 1:
		return fmt.Sprintf("-n %d: need at least one vertex", f.n)
	case f.classes < 1:
		return fmt.Sprintf("-classes %d: need at least one class", f.classes)
	case f.synthetic && f.classes > f.n:
		return fmt.Sprintf("-classes %d exceeds -n %d: a synthetic graph needs a vertex per class", f.classes, f.n)
	case f.features < 1:
		return fmt.Sprintf("-features %d: need at least one input feature", f.features)
	case f.layers > 1 && f.hidden < 1:
		return fmt.Sprintf("-hidden %d: need at least one hidden feature", f.hidden)
	case f.fanout < 0:
		return fmt.Sprintf("-fanout %d: need a count >= 0 (0 = full aggregation)", f.fanout)
	case !(f.density > 0 && f.density <= 1):
		return fmt.Sprintf("-density %g out of range (0, 1]", f.density)
	case f.epochs < 0:
		return fmt.Sprintf("-epochs %d: need a count >= 0", f.epochs)
	}
	return ""
}

// trainSparseSeed is the canonical live-set seed (dist.GenRows
// identity), matching the rdminfo CLI and the planner test suite.
const trainSparseSeed = 3

// faultFlags carries the flag values the elastic training path needs.
type faultFlags struct {
	faults           string
	seed             int64
	every            int
	gpus, epochs, ra int
	resume, save     string
	member           *member.Config
}

// runElastic trains under an injected fault schedule with elastic
// recovery, printing a per-recovery summary alongside the usual epoch
// report. See RESILIENCE.md for the schedule grammar and fault model.
func runElastic(stdout io.Writer, prob *core.Problem, opts core.Options, ff faultFlags) error {
	if ff.resume != "" || ff.save != "" {
		return fmt.Errorf("-faults runs checkpoint internally for recovery; drop -resume/-save")
	}
	if ff.ra > 1 {
		return fmt.Errorf("-faults needs -ra 0 or 1: a fixed replication factor cannot divide every shrunken world")
	}
	sched, err := fault.ParseSchedule(ff.faults)
	if err != nil {
		return err
	}
	if err := sched.Validate(ff.gpus); err != nil {
		return err
	}

	el := core.TrainElastic(ff.gpus, hw.A6000(), prob, opts, ff.epochs, core.ElasticOptions{
		Schedule:        sched,
		FaultSeed:       ff.seed,
		CheckpointEvery: ff.every,
		Membership:      ff.member,
	})

	printEpochs(stdout, el.Epochs, true)
	for i, rec := range el.Recoveries {
		fmt.Fprintf(stdout, "recovery %d: epoch %d fault (failed ranks %v) -> rollback to epoch %d, world %d->%d, reshard %.3fMB (model %.3fMB) at sim %.3fms\n",
			i, rec.AbortEpoch, rec.Failed, rec.ResumeEpoch, rec.OldP, rec.NewP,
			float64(rec.ReshardBytes)/(1<<20), float64(rec.PredictedReshardBytes)/(1<<20), rec.SimTime*1e3)
		if rec.Detection != nil {
			fmt.Fprintf(stdout, "  gossip detection: %d rounds, latency %.1fms, control plane %d bytes (model %d)\n",
				rec.Detection.Rounds, rec.Detection.Latency*1e3, rec.ControlBytes, rec.PredictedControlBytes)
		}
	}
	fmt.Fprintf(stdout, "finished on %d/%d devices (survivors %v)  train accuracy: %.4f\n",
		el.FinalP, ff.gpus, el.FinalSurvivors, el.Accuracy(prob.Labels, nil))
	return nil
}
