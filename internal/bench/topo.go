package bench

// This file is the topology comparison experiment: train the same RDM
// workload on the flat fabric and on hierarchical interconnects,
// metering epoch time and per-link-tier traffic, and record the
// collective-algorithm crossover the topology model predicts at scale.
// The result marshals to BENCH_topo.json via rdmbench -json.

import (
	"fmt"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/topo"
)

// TopoRow is one (topology, P, config) training measurement.
type TopoRow struct {
	Topology string  `json:"topology"` // "flat" or a spec string
	P        int     `json:"p"`
	Config   int     `json:"config"`
	EpochSec float64 `json:"epoch_sec"` // simulated makespan / epochs
	// IntraBytes/InterBytes split the primary metered volume by link
	// tier (flat runs meter everything intra).
	IntraBytes int64 `json:"intra_bytes"`
	InterBytes int64 `json:"inter_bytes"`
	RDMBytes   int64 `json:"rdm_bytes"` // alltoall + allgather share
}

// TopoCrossover records the topology model's predicted algorithm
// ranking for one collective at the reference scale — the issue's
// acceptance point that hierarchical routing beats the flat ring once
// the world spans nodes.
type TopoCrossover struct {
	Topology      string  `json:"topology"`
	P             int     `json:"p"`
	Collective    string  `json:"collective"`
	Bytes         int64   `json:"bytes"`
	RingSec       float64 `json:"ring_sec"`
	HierSec       float64 `json:"hier_sec"`
	AutoAlg       string  `json:"auto_alg"`
	AutoSec       float64 `json:"auto_sec"`
	HierBeatsRing bool    `json:"hier_beats_ring"`
}

// TopoResult is the machine-readable output of the topo experiment.
type TopoResult struct {
	Dataset    string          `json:"dataset"`
	Scale      int             `json:"scale"`
	Dims       []int           `json:"dims"`
	Epochs     int             `json:"epochs"`
	Rows       []TopoRow       `json:"rows"`
	Crossovers []TopoCrossover `json:"crossovers"`
}

// topoSpecs are the interconnects the experiment sweeps, alongside the
// flat fabric: the issue's 8x4 NVLink/IB reference machine and an
// Ethernet-backed variant where inter-node traffic is far more
// expensive.
var topoSpecs = []string{"8x4:nvlink,ib", "8x4:nvlink,eth"}

// RunTopoComparison trains one dataset across topologies, device counts
// and a pair of orderings, metering per-tier traffic, then records the
// predicted collective-algorithm crossover on the 8x4 reference machine
// at P=32. The text rendering goes to cfg.Out; the returned struct is
// what rdmbench -json serializes.
func RunTopoComparison(cfg Config) (*TopoResult, error) {
	cfg = cfg.withDefaults()
	name := cfg.Datasets[0]
	w, err := BuildWorkload(name, cfg.Scale)
	if err != nil {
		return nil, err
	}
	const layers, hidden = 2, 128
	dims := w.Dims(layers, hidden)
	res := &TopoResult{Dataset: name, Scale: cfg.Scale, Dims: dims, Epochs: cfg.Epochs}

	cfg.printf("Topology-aware collectives: dataset=%s scale=1/%d dims=%v epochs=%d\n",
		name, cfg.Scale, dims, cfg.Epochs)
	cfg.printf("%-16s %4s %4s %12s %14s %14s %14s\n",
		"topology", "P", "cfg", "epoch(s)", "intra(B)", "inter(B)", "rdm(B)")

	topos := append([]string{"flat"}, topoSpecs...)
	for _, ts := range topos {
		var sp topo.Spec
		if ts != "flat" {
			if sp, err = topo.ParseSpec(ts); err != nil {
				return nil, err
			}
		}
		for _, p := range []int{4, 8, 16, 32} {
			if ts != "flat" && p > sp.Devices() {
				continue
			}
			for _, id := range []int{0, costmodel.NumConfigs(layers) - 1} {
				var tp *topo.Topology
				if ts != "flat" {
					tp = sp.MustTopology(p)
				}
				row, err := runTopoTraining(cfg, w, dims, p, id, ts, tp)
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, row)
				cfg.printf("%-16s %4d %4d %12.6f %14d %14d %14d\n",
					row.Topology, row.P, row.Config, row.EpochSec,
					row.IntraBytes, row.InterBytes, row.RDMBytes)
			}
		}
	}

	// The acceptance crossover: on the 8x4 reference machine at P=32,
	// hierarchical all-reduce and all-gather beat the flat ring.
	sp := topo.MustParseSpec("8x4:nvlink,ib")
	tp := sp.MustTopology(32)
	h := cfg.HW
	world := make([]int, 32)
	for i := range world {
		world[i] = i
	}
	const payload = int64(1) << 22
	cfg.printf("\npredicted crossover on %s at P=32, payload %dB:\n", tp.Name, payload)
	for _, c := range []struct {
		name string
		cost func(alg topo.Algorithm) (topo.Algorithm, topo.Cost)
	}{
		{"allreduce", func(a topo.Algorithm) (topo.Algorithm, topo.Cost) {
			return tp.AllReduce(h, a, world, payload)
		}},
		{"allgather", func(a topo.Algorithm) (topo.Algorithm, topo.Cost) {
			return tp.AllGather(h, a, world, topo.EvenChunks(payload, len(world)))
		}},
	} {
		_, ring := c.cost(topo.Ring)
		_, hier := c.cost(topo.Hier)
		autoAlg, auto := c.cost(topo.Auto)
		x := TopoCrossover{
			Topology: tp.Name, P: 32, Collective: c.name, Bytes: payload,
			RingSec: ring.Time, HierSec: hier.Time,
			AutoAlg: autoAlg.String(), AutoSec: auto.Time,
			HierBeatsRing: hier.Time < ring.Time,
		}
		res.Crossovers = append(res.Crossovers, x)
		cfg.printf("  %-10s ring=%.9fs hier=%.9fs auto=%s@%.9fs hier_beats_ring=%v\n",
			x.Collective, x.RingSec, x.HierSec, x.AutoAlg, x.AutoSec, x.HierBeatsRing)
	}
	return res, nil
}

// runTopoTraining trains one (topology, P, config) cell on a fabric the
// caller can meter (core.Train hides its fabric, so the epoch loop is
// inlined here).
func runTopoTraining(cfg Config, w *Workload, dims []int, p, id int, label string, tp *topo.Topology) (TopoRow, error) {
	fab := comm.NewFabric(p, cfg.HW)
	if tp != nil {
		fab.SetTopology(tp)
	}
	if cfg.Tracer != nil {
		fab.SetTracer(cfg.Tracer, fmt.Sprintf("%s/p%d/topo-%s-cfg%d", w.Recipe.Name, p, label, id))
	}
	o := core.Options{
		Dims:    dims,
		Config:  costmodel.ConfigFromID(id, len(dims)-1),
		Memoize: true,
		LR:      0.01,
		Seed:    11,
	}
	fab.Run(func(d *comm.Device) {
		eng := core.NewEngine(d, w.Prob, o)
		for ep := 0; ep < cfg.Epochs; ep++ {
			eng.Epoch()
		}
	})
	m := plan.TrafficOf(fab.Meters())
	return TopoRow{
		Topology: label, P: p, Config: id,
		EpochSec:   fab.MaxClock() / float64(cfg.Epochs),
		RDMBytes:   m.AllToAll + m.AllGather,
		IntraBytes: m.Tier[topo.TierIntra] + m.SideTier[topo.TierIntra],
		InterBytes: m.Tier[topo.TierInter] + m.SideTier[topo.TierInter],
	}, nil
}
