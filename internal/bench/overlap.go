package bench

// This file is the comm/compute overlap experiment: train the same RDM
// workload twice per cell — sequential executor and dependency-DAG
// overlap executor — and meter both epoch times, cross-checking every
// live device clock against plan.PriceDAGEpochs's closed form. Overlap
// efficiency is 1 − critical-path/sequential (DAGCost.Efficiency). The
// result marshals to BENCH_overlap.json via rdmbench -json.

import (
	"fmt"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/topo"
)

// OverlapRow is one (topology, P, config) cell: the same training run
// under both executors.
type OverlapRow struct {
	Topology string `json:"topology"` // "flat" or a spec string
	P        int    `json:"p"`
	Config   int    `json:"config"`
	// SeqEpochSec and OverlapEpochSec are simulated makespans / epochs.
	SeqEpochSec     float64 `json:"seq_epoch_sec"`
	OverlapEpochSec float64 `json:"overlap_epoch_sec"`
	// Efficiency is 1 − critical-path/sequential: the fraction of the
	// sequential epoch the DAG executor hides behind other resources.
	Efficiency float64 `json:"efficiency"`
	Speedup    float64 `json:"speedup"` // seq / overlap
}

// OverlapResult is the machine-readable output of the overlap
// experiment.
type OverlapResult struct {
	Dataset string       `json:"dataset"`
	Scale   int          `json:"scale"`
	Dims    []int        `json:"dims"`
	Epochs  int          `json:"epochs"`
	Rows    []OverlapRow `json:"rows"`
}

// overlapConfigs are the Table IV rows the experiment sweeps: the two
// uniform extremes plus the two mixed rows the orderings argmin
// analysis singles out (rdminfo -plan -overlap).
var overlapConfigs = []int{0, 5, 10, 15}

// RunOverlap trains one dataset across topologies, device counts and
// orderings, once per executor, and enforces the overlap invariants on
// every cell: the overlapped epoch never exceeds the sequential one,
// and both live clocks equal the DAG pricer's closed form exactly. The
// text rendering goes to cfg.Out; the returned struct is what
// rdmbench -json serializes.
func RunOverlap(cfg Config) (*OverlapResult, error) {
	cfg = cfg.withDefaults()
	name := cfg.Datasets[0]
	w, err := BuildWorkload(name, cfg.Scale)
	if err != nil {
		return nil, err
	}
	const layers, hidden = 2, 128
	dims := w.Dims(layers, hidden)
	res := &OverlapResult{Dataset: name, Scale: cfg.Scale, Dims: dims, Epochs: cfg.Epochs}

	cfg.printf("Comm/compute overlap: dataset=%s scale=1/%d dims=%v epochs=%d\n",
		name, cfg.Scale, dims, cfg.Epochs)
	cfg.printf("%-16s %4s %4s %14s %14s %10s %8s\n",
		"topology", "P", "cfg", "seq epoch(s)", "ovl epoch(s)", "eff", "speedup")

	for _, ts := range []string{"flat", "8x4:nvlink,ib"} {
		var sp topo.Spec
		if ts != "flat" {
			if sp, err = topo.ParseSpec(ts); err != nil {
				return nil, err
			}
		}
		for _, p := range []int{4, 8} {
			var tp *topo.Topology
			if ts != "flat" {
				tp = sp.MustTopology(p)
			}
			for _, id := range overlapConfigs {
				row, err := runOverlapCell(cfg, w, dims, p, id, ts, tp)
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, row)
				cfg.printf("%-16s %4d %4d %14.6f %14.6f %9.1f%% %8.3f\n",
					row.Topology, row.P, row.Config, row.SeqEpochSec,
					row.OverlapEpochSec, 100*row.Efficiency, row.Speedup)
			}
		}
	}
	return res, nil
}

// runOverlapCell trains one cell under both executors and cross-checks
// the live clocks against the DAG pricer.
func runOverlapCell(cfg Config, w *Workload, dims []int, p, id int, label string, tp *topo.Topology) (OverlapRow, error) {
	o := core.Options{
		Dims:     dims,
		Config:   costmodel.ConfigFromID(id, len(dims)-1),
		Topology: tp,
		Memoize:  true,
		LR:       0.01,
		Seed:     11,
	}
	train := func(overlap bool) (*comm.Fabric, error) {
		oo := o
		oo.Overlap = overlap
		fab := comm.NewFabric(p, cfg.HW)
		if tp != nil {
			fab.SetTopology(tp)
		}
		if cfg.Tracer != nil {
			mode := "seq"
			if overlap {
				mode = "ovl"
			}
			fab.SetTracer(cfg.Tracer, fmt.Sprintf("%s/p%d/overlap-%s-%s-cfg%d", w.Recipe.Name, p, label, mode, id))
		}
		fab.Run(func(d *comm.Device) {
			eng := core.NewEngine(d, w.Prob, oo)
			for ep := 0; ep < cfg.Epochs; ep++ {
				eng.Epoch()
			}
		})
		return fab, nil
	}
	seq, err := train(false)
	if err != nil {
		return OverlapRow{}, err
	}
	ovl, err := train(true)
	if err != nil {
		return OverlapRow{}, err
	}

	sched := plan.Compile(plan.Spec{
		N: w.Prob.N(), Dims: dims, Config: o.Config, P: p, RA: p, Memoize: true,
	}).Optimize()
	dag, err := plan.BuildDAG(sched)
	if err != nil {
		return OverlapRow{}, err
	}
	cost := dag.PriceDAGEpochs(core.PanelCensus(w.Prob, p, p), cfg.HW, tp, cfg.Epochs)
	for r := 0; r < p; r++ {
		if got, want := ovl.Device(r).Clock(), cost.PerDevice[r]; got != want {
			return OverlapRow{}, fmt.Errorf("%s P=%d cfg=%d rank %d: live overlap clock %.17g != priced %.17g",
				label, p, id, r, got, want)
		}
		if got, want := seq.Device(r).Clock(), cost.PerDeviceSeq[r]; got != want {
			return OverlapRow{}, fmt.Errorf("%s P=%d cfg=%d rank %d: live sequential clock %.17g != priced %.17g",
				label, p, id, r, got, want)
		}
	}
	row := OverlapRow{
		Topology: label, P: p, Config: id,
		SeqEpochSec:     seq.MaxClock() / float64(cfg.Epochs),
		OverlapEpochSec: ovl.MaxClock() / float64(cfg.Epochs),
		Efficiency:      cost.Efficiency(),
	}
	if row.OverlapEpochSec > row.SeqEpochSec {
		return OverlapRow{}, fmt.Errorf("%s P=%d cfg=%d: overlap epoch %v exceeds sequential %v",
			label, p, id, row.OverlapEpochSec, row.SeqEpochSec)
	}
	row.Speedup = row.SeqEpochSec / row.OverlapEpochSec
	return row, nil
}
