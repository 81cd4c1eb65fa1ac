// Package sim is the discrete-event execution backend's validated
// entry point: it replays a compiled schedule's dependency DAG over
// per-device occupancy lanes (hw.Occupancy — one serial timeline per
// compute/link resource) and produces everything the live fabric would
// measure — per-device clocks, per-rank communication and compute
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
// Because no payloads move, a run costs O(ops × P) float arithmetic
// plus memoized O(P + intersecting tile pairs) redistribution censuses
// (plan.PriceCache, shared across the 16 Table IV configs of a sweep) —
// which is what lets `rdmbench scale` sweep 16 configs × topologies at
// P = 65536 in seconds instead of simulating terabytes of tile traffic.
package sim

import (
	"errors"

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
	// Census carries the per-rank adjacency panel NNZ counts (and
	// optional straggler multipliers) the SpMM charges need. Use
	// core.PanelCensus for exact fabric equality, or
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
	// Overlap selects the DAG executor's lane model; false replays the
	// sequential interpreter.
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

// Run executes the simulated training run.
func Run(cfg Config) (*Result, error) {
	s := cfg.Sched
	if s == nil && cfg.DAG != nil {
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

// MustRun is Run panicking on a config error.
func MustRun(cfg Config) *Result {
	r, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}
