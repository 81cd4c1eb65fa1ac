// Package sim is the discrete-event execution backend's validated
// entry point: it replays a compiled schedule's dependency DAG over
// per-device resource lanes (one serial timeline per hw.Resource:
// compute and each link tier) and produces everything the live fabric
// would measure — per-device clocks, per-rank communication and compute
// time, the full per-kind / per-tier byte census, and optional trace
// events — without ever materializing a payload buffer. The replay
// loop itself is plan's (plan/replay.go, the one engine plan.PriceDAG*
// reads its clocks from and Schedule.PriceOn its per-op bytes and
// time); Run checks and defaults a Config and hands it over.
//
// The engine is an extraction, not an approximation: the charge
// sequence is the interpreter's own (internal/core execOp, charge for
// charge, in order), the rendezvous rule is the fabric's (all member
// clocks synchronize to max(deposits) + the price comm.Meter computes
// for the same group and byte census, memoized by plan.PriceCache), the
// byte census is the fabric's own type (comm.Meters, booked round by
// round), and the overlap lane model is the DAG executor's (ops start
// at max(resource free, dependency finishes), advance only their
// resource, and rejoin at epoch boundaries in the same merge order).
// verify.CheckSimMatchesFabric pins clocks and time accumulators
// bit-identical to live fabric runs for both executors, and the two
// censuses with one ==.
//
// Because no payloads move, a run costs O(ops × P) float arithmetic —
// each op one pass over the ranks before each rendezvous round and one
// after it, with a kernel whose size depends on the rank only through
// its tile shape priced once per shape (DESIGN.md §4f) — plus memoized
// O(P + intersecting tile pairs) redistribution censuses
// (plan.PriceCache, shared across the 16 Table IV configs of a sweep) —
// which is what lets `rdmbench scale` sweep 16 configs × topologies at
// P = 65536 in seconds instead of simulating terabytes of tile traffic.
package sim

import (
	"errors"
	"fmt"

	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/topo"
	"gnnrdm/internal/trace"
)

// Config describes one simulated training run.
type Config struct {
	// Sched is the compiled, optimized op schedule (required unless DAG
	// is given, in which case DAG.Sched is used).
	Sched *plan.Schedule
	// DAG is Sched's dependency DAG; built on demand when nil.
	DAG *plan.DAG
	// Census carries the per-rank adjacency panel NNZ counts the SpMM
	// charges need. Use core.PanelCensus for exact fabric equality, or
	// Schedule.ApproxCensus for synthetic sweeps.
	Census plan.Census
	// HW is the device model (required).
	HW *hw.Model
	// Topology routes collectives hierarchically when non-nil; nil is
	// the flat interconnect. Collectives price under topo.Auto, the
	// fabric's default algorithm policy.
	Topology *topo.Topology
	// Epochs is the number of epochs to replay (default 1). Per-device
	// clocks carry across epoch boundaries exactly as live.
	Epochs int
	// Overlap selects the overlap executor's lane map (each op on its
	// DAG.OpResource lane); false puts every op on the compute lane,
	// the sequential executor. The walk is the same either way.
	Overlap bool
	// EpochBarriers is the number of world barriers after each epoch: 0
	// reproduces a bare Engine.Epoch loop (verify's differential
	// harnesses), 2 reproduces the barrier/snapshot protocol of core's
	// one training driver (under Train and TrainElastic). Per-epoch
	// snapshots are taken after the first barrier (or at the epoch join
	// when 0), matching where that driver reads its stats.
	EpochBarriers int
	// Tracer, when non-nil, records the synthesized timeline into a
	// virtual session labelled TraceLabel (default "sim"). Tracing off
	// keeps the run allocation-free on the hot path.
	Tracer     *trace.Tracer
	TraceLabel string
	// Cache shares redistribution censuses, topology-routed all-to-all
	// costs and the replay engine's scratch across runs of one (P, HW,
	// Topology) context — pass one cache to every run of a sweep, from
	// one goroutine. Nil uses a private cache.
	Cache *plan.PriceCache
}

// Result is the engine's output type; the engine lives in internal/plan
// (plan/replay.go), below this package, because plan.PriceDAG* is a
// second view of the same replay.
type Result = plan.ReplayResult

// Run executes the simulated training run. It returns an error, and
// replays nothing, when the config is incomplete or its parts disagree:
// a Sched that is not the DAG's schedule, census rows that do not cover
// the schedule's P ranks, or a Cache bound to another (P, HW,
// Topology) context.
func Run(cfg Config) (*Result, error) {
	s := cfg.Sched
	if cfg.DAG != nil {
		if s != nil && s != cfg.DAG.Sched {
			return nil, errors.New("sim: Config.Sched is not Config.DAG's schedule")
		}
		s = cfg.DAG.Sched
	}
	if s == nil {
		return nil, errors.New("sim: Config.Sched or Config.DAG required")
	}
	if cfg.HW == nil {
		return nil, errors.New("sim: Config.HW required")
	}
	if cfg.EpochBarriers < 0 {
		return nil, errors.New("sim: negative EpochBarriers")
	}
	if err := checkCensus(&cfg.Census, s.P); err != nil {
		return nil, err
	}
	if cfg.Cache != nil {
		if err := cfg.Cache.Check(s.P, cfg.HW, cfg.Topology); err != nil {
			return nil, err
		}
	}
	d := cfg.DAG
	if d == nil {
		var err error
		if d, err = plan.BuildDAG(s); err != nil {
			return nil, err
		}
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	return d.Replay(cfg.Census, cfg.HW, cfg.Topology, epochs, cfg.Overlap,
		cfg.EpochBarriers, cfg.Cache, cfg.Tracer, cfg.TraceLabel), nil
}

// checkCensus rejects a census whose rows do not fit a P-rank world.
// The replay reads every rank's entry, and a short row would leave the
// ranks past its end no honest charge. The panel rows may be empty (no
// SpMM work); the explicit ABC census comes whole or not at all.
func checkCensus(c *plan.Census, p int) error {
	if n := len(c.NNZFwd); n != 0 && n != p {
		return fmt.Errorf("sim: Census.NNZFwd has %d ranks, want 0 or P=%d", n, p)
	}
	if n := len(c.NNZBwd); n != 0 && n != p {
		return fmt.Errorf("sim: Census.NNZBwd has %d ranks, want 0 or P=%d", n, p)
	}
	if c.ABCPairs == nil && c.NNZABC == nil {
		return nil
	}
	if n := len(c.NNZABC); n != p {
		return fmt.Errorf("sim: Census.NNZABC has %d ranks, want P=%d", n, p)
	}
	if n := len(c.ABCPairs); n != p {
		return fmt.Errorf("sim: Census.ABCPairs has %d rows, want P=%d", n, p)
	}
	for r, row := range c.ABCPairs {
		if len(row) != p {
			return fmt.Errorf("sim: Census.ABCPairs row %d has %d entries, want P=%d", r, len(row), p)
		}
	}
	return nil
}

// MustRun is Run panicking on a config error.
func MustRun(cfg Config) *Result {
	r, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}
