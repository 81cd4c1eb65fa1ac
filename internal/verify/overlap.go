package verify

import (
	"errors"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/fault"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/tensor"
	"gnnrdm/internal/trace"
)

// This file pins the overlap executor (core.Options.Overlap) against
// the sequential executor — the same walk on one lane — on four axes
// at once:
//
//  1. Numerics — bit-identical: every epoch's loss, every rank's final
//     logits tile, and every weight matrix compare with float32 ==, no
//     tolerance. The lane walk runs every op in the sequential order,
//     and the fabric reduces in group-position order, so lanes are
//     arithmetically invisible.
//  2. Meters — exactly equal: per-kind collective volumes, call counts,
//     side-channel bytes, and per-tier splits. Overlap reorders time,
//     never traffic.
//  3. Clocks — the live overlapped device clocks equal the DAG pricer's
//     closed-form critical path (plan.PriceDAGEpochs) and the live
//     sequential clocks equal its sequential replay, exactly; overlap
//     never exceeds sequential.
//  4. Trace events — per rank, both executors emit the same kernels and
//     collectives with the same tags and bytes; only times and tracks
//     differ.

// overlapRun captures one training run's observables: per-rank epoch
// losses, final logits tiles and weights, device clocks, and the fabric
// with its meters.
type overlapRun struct {
	fab     *comm.Fabric
	losses  [][]float64
	logits  []*tensor.Dense
	weights [][]*tensor.Dense
	clocks  []float64
	commT   []float64
	compT   []float64
}

// trainOverlapMode trains epochs on a fresh fabric with the given
// executor mode and captures the observables.
func trainOverlapMode(p int, prob *core.Problem, o core.Options, epochs int, overlap bool) overlapRun {
	o.Overlap = overlap
	run := overlapRun{
		losses:  make([][]float64, p),
		logits:  make([]*tensor.Dense, p),
		weights: make([][]*tensor.Dense, p),
		clocks:  make([]float64, p),
		commT:   make([]float64, p),
		compT:   make([]float64, p),
	}
	fab := comm.NewFabric(p, hw.A6000())
	if o.Topology != nil {
		fab.SetTopology(o.Topology)
	}
	if o.Tracer != nil {
		label := o.TraceLabel
		if label == "" {
			label = "overlap"
		}
		fab.SetTracer(o.Tracer, label)
	}
	fab.Run(func(d *comm.Device) {
		eng := core.NewEngine(d, prob, o)
		for ep := 0; ep < epochs; ep++ {
			run.losses[d.Rank] = append(run.losses[d.Rank], eng.Epoch())
		}
		run.logits[d.Rank] = eng.LastLogits().Local
		run.weights[d.Rank] = eng.Weights()
		run.clocks[d.Rank] = d.Clock()
		run.commT[d.Rank] = d.CommTime()
		run.compT[d.Rank] = d.ComputeTime()
	})
	run.fab = fab
	return run
}

// equalDense reports bit-identity of two float32 matrices.
func equalDense(a, b *tensor.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// eventInventory counts rank r's non-phase trace events over all its
// tracks by every field but Start, End and Track: what the rank did,
// not when or on which lane.
func eventInventory(s *trace.Session, r int) map[trace.Event]int {
	inv := map[trace.Event]int{}
	for track := range s.Tracks(r) {
		for _, ev := range s.TrackEvents(r, track) {
			if ev.Class != trace.ClassPhase {
				ev.Start, ev.End, ev.Track = 0, 0, 0
				inv[ev]++
			}
		}
	}
	return inv
}

// CheckOverlapEquivalence trains the same problem twice — sequential
// and overlap DAG executor — and asserts bit-identical numerics,
// exactly equal meters, equal per-rank trace-event inventories
// (eventInventory), and live clocks equal to the DAG pricer's
// closed-form values on both paths, with overlap never slower than
// sequential. Returns the priced cost for callers that want the
// efficiency. Options must not set Overlap (both modes are run),
// Tracer (each mode gets its own) or EvalMask (its all-reduce is
// outside the epoch schedule).
func CheckOverlapEquivalence(t testing.TB, prob *core.Problem, p, epochs int, o core.Options) plan.DAGCost {
	t.Helper()
	if o.EvalMask != nil {
		panic("verify: CheckOverlapEquivalence with EvalMask")
	}
	o.Tracer = trace.NewTracer(0)
	seq := trainOverlapMode(p, prob, o, epochs, false)
	seqTrace := o.Tracer.Sessions()[0]
	o.Tracer = trace.NewTracer(0)
	ovl := trainOverlapMode(p, prob, o, epochs, true)
	ovlTrace := o.Tracer.Sessions()[0]

	for r := 0; r < p; r++ {
		for ep := range seq.losses[r] {
			if ovl.losses[r][ep] != seq.losses[r][ep] {
				t.Fatalf("rank %d epoch %d: overlap loss %v != sequential %v",
					r, ep, ovl.losses[r][ep], seq.losses[r][ep])
			}
		}
		if !equalDense(ovl.logits[r], seq.logits[r]) {
			t.Fatalf("rank %d: overlap logits tile not bit-identical to sequential", r)
		}
		if len(ovl.weights[r]) != len(seq.weights[r]) {
			t.Fatalf("rank %d: weight count %d != %d", r, len(ovl.weights[r]), len(seq.weights[r]))
		}
		for i := range ovl.weights[r] {
			if !equalDense(ovl.weights[r][i], seq.weights[r][i]) {
				t.Fatalf("rank %d: weight %d not bit-identical to sequential", r, i)
			}
		}
	}

	if d := meterDiff(ovl.fab.Meters(), seq.fab.Meters()); d != "" {
		t.Fatalf("overlap census differs from sequential at %s", d)
	}
	for r := 0; r < p; r++ {
		si, oi := eventInventory(seqTrace, r), eventInventory(ovlTrace, r)
		for ev, n := range si {
			if oi[ev] != n {
				t.Fatalf("rank %d: sequential emits %d of %+v, overlap %d", r, n, ev, oi[ev])
			}
		}
		if len(oi) != len(si) {
			t.Fatalf("rank %d: overlap emits %d distinct events, sequential %d", r, len(oi), len(si))
		}
	}

	dag := plan.MustBuildDAG(scheduleFor(prob, p, o))
	ra := o.RA
	if ra == 0 {
		ra = p
	}
	cen := core.PanelCensus(prob, p, ra)
	cost := dag.PriceDAGEpochs(cen, hw.A6000(), o.Topology, epochs)
	for r := 0; r < p; r++ {
		if ovl.clocks[r] != cost.PerDevice[r] {
			t.Fatalf("rank %d: live overlap clock %.17g != priced critical path %.17g (Δ=%g)",
				r, ovl.clocks[r], cost.PerDevice[r], ovl.clocks[r]-cost.PerDevice[r])
		}
		if seq.clocks[r] != cost.PerDeviceSeq[r] {
			t.Fatalf("rank %d: live sequential clock %.17g != priced sequential %.17g (Δ=%g)",
				r, seq.clocks[r], cost.PerDeviceSeq[r], seq.clocks[r]-cost.PerDeviceSeq[r])
		}
		if ovl.clocks[r] > seq.clocks[r] {
			t.Fatalf("rank %d: overlap clock %v exceeds sequential %v", r, ovl.clocks[r], seq.clocks[r])
		}
	}
	return cost
}

// OverlapChaosResult is one rank's outcome under an injected fault
// schedule: Err is nil for ranks that completed every epoch, the typed
// *comm.FaultError survivors receive when a peer dies mid-collective,
// and Killed is true for the rank(s) the schedule crashed.
type OverlapChaosResult struct {
	Err    error
	Killed bool
	// Losses holds the epochs the rank completed before the run ended.
	Losses []float64
}

// RunOverlapChaos trains with the overlap executor under a fault
// schedule and returns each rank's outcome. The executor walks its lanes
// on the device goroutine, so a fault surfaces there as it does under
// the sequential executor: crashed ranks' Killed panics are contained
// by the fabric, and survivor ranks surface a typed *comm.FaultError,
// which this harness records instead of re-panicking — anything that is
// not fault-class re-raises.
func RunOverlapChaos(p int, prob *core.Problem, o core.Options, epochs int, sched *fault.Schedule, seed int64) []OverlapChaosResult {
	o.Overlap = true
	res := make([]OverlapChaosResult, p)
	fab := comm.NewFabric(p, hw.A6000())
	if o.Topology != nil {
		fab.SetTopology(o.Topology)
	}
	inj := fault.NewInjector(sched, seed, p)
	inj.Arm(fab)
	fab.Run(func(d *comm.Device) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if k, ok := rec.(comm.Killed); ok {
				res[d.Rank].Killed = true
				panic(k) // the fabric contains scheduled crashes
			}
			err, ok := rec.(error)
			var fe *comm.FaultError
			if !ok || !errors.As(err, &fe) {
				panic(rec) // genuine bug, not an injected fault
			}
			res[d.Rank].Err = err
		}()
		eng := core.NewEngine(d, prob, o)
		for ep := 0; ep < epochs; ep++ {
			d.SetFaultEpoch(ep)
			inj.AtEpochStart(d, ep)
			loss := eng.Epoch()
			res[d.Rank].Losses = append(res[d.Rank].Losses, loss)
		}
	})
	return res
}
