package verify

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/fault"
	"gnnrdm/internal/topo"
	"gnnrdm/internal/trace"
)

// TestOverlapEquivalenceSweep is the overlap differential suite: all 16
// Table IV orderings × P ∈ {1,2,4,8} × {flat, 8x4:nvlink,ib}, each
// pinned for bit-identical numerics, exactly equal meters, and live
// clocks equal to the DAG pricer on both executor paths.
func TestOverlapEquivalenceSweep(t *testing.T) {
	prob := DefaultProblem(3, 64, 16, 4)
	dims := []int{16, 12, 8}
	for _, spec := range []string{"", "8x4:nvlink,ib"} {
		var ts topo.Spec
		if spec != "" {
			var err error
			if ts, err = topo.ParseSpec(spec); err != nil {
				t.Fatal(err)
			}
		}
		for cfg := 0; cfg < costmodel.NumConfigs(len(dims)-1); cfg++ {
			for _, p := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("flat/cfg%02d/P%d", cfg, p)
				if spec != "" {
					name = fmt.Sprintf("%s/cfg%02d/P%d", spec, cfg, p)
				}
				cfg, p := cfg, p
				t.Run(name, func(t *testing.T) {
					o := DiffSpec{Dims: dims}.opts(cfg)
					if spec != "" {
						o.Topology = ts.MustTopology(p)
					}
					cost := CheckOverlapEquivalence(t, prob, p, 2, o)
					if cost.Makespan > cost.SeqTime {
						t.Fatalf("critical path %v exceeds sequential %v", cost.Makespan, cost.SeqTime)
					}
				})
			}
		}
	}
}

// TestOverlapEquivalenceSAGE extends the pin to the two-weight
// GraphSAGE form and reduced adjacency replication, which exercise
// KAdd/KMemWrite and the column-group allgather resource.
func TestOverlapEquivalenceSAGE(t *testing.T) {
	prob := DefaultProblem(3, 64, 16, 4)
	o := DiffSpec{Dims: []int{16, 12, 8}}.opts(5)
	o.SAGE = true
	o.RA = 2
	CheckOverlapEquivalence(t, prob, 4, 2, o)
}

// TestOverlapRace drives the overlap executor's lane walk through a chaos
// matrix under the race detector: explicit crash and straggler schedules
// plus the CI seed set. Crashes during overlapped collectives must
// surface a typed *comm.FaultError on every survivor — never a deadlock,
// never a goroutine leak.
func TestOverlapRace(t *testing.T) {
	prob := DefaultProblem(3, 64, 16, 4)
	dims := []int{16, 12, 8}
	o := DiffSpec{Dims: dims}.opts(3)

	t.Run("crash", func(t *testing.T) {
		for _, p := range []int{4, 8} {
			p := p
			t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
				sched, err := fault.ParseSchedule("crash@rank1:epoch1")
				if err != nil {
					t.Fatal(err)
				}
				var res []OverlapChaosResult
				NoGoroutineLeak(t, func() {
					res = RunOverlapChaos(p, prob, o, 3, sched, 1)
				})
				for r, rr := range res {
					if r == 1 {
						if !rr.Killed {
							t.Fatalf("rank 1 not killed: %+v", rr)
						}
						continue
					}
					var fe *comm.FaultError
					if rr.Err == nil || !errors.As(rr.Err, &fe) {
						t.Fatalf("survivor rank %d: want *FaultError, got %v", r, rr.Err)
					}
					if !errors.Is(rr.Err, comm.ErrPeerDead) {
						t.Fatalf("survivor rank %d: want ErrPeerDead cause, got %v", r, rr.Err)
					}
					if len(rr.Losses) != 1 {
						t.Fatalf("survivor rank %d completed %d epochs before the crash, want 1", r, len(rr.Losses))
					}
				}
			})
		}
	})

	t.Run("straggler", func(t *testing.T) {
		// A straggler reorders nothing: losses stay bit-identical to an
		// undisturbed overlap run, only clocks stretch.
		sched, err := fault.ParseSchedule("slow@rank1:3x")
		if err != nil {
			t.Fatal(err)
		}
		clean := trainOverlapMode(4, prob, o, 3, true)
		var res []OverlapChaosResult
		NoGoroutineLeak(t, func() {
			res = RunOverlapChaos(4, prob, o, 3, sched, 1)
		})
		for r, rr := range res {
			if rr.Err != nil || rr.Killed {
				t.Fatalf("rank %d failed under a pure straggler schedule: %+v", r, rr)
			}
			for ep, want := range clean.losses[r] {
				if rr.Losses[ep] != want {
					t.Fatalf("rank %d epoch %d: straggled loss %v != clean %v", r, ep, rr.Losses[ep], want)
				}
			}
		}
	})

	t.Run("seeds", func(t *testing.T) {
		for _, seed := range []int64{1, 7, 1337} {
			seed := seed
			t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
				const p, epochs = 8, 3
				sched := fault.RandomSchedule(seed, p, epochs)
				t.Logf("chaos: %s", sched)
				var res []OverlapChaosResult
				NoGoroutineLeak(t, func() {
					res = RunOverlapChaos(p, prob, o, epochs, sched, seed)
				})
				finished := 0
				for r, rr := range res {
					if rr.Killed && rr.Err != nil {
						t.Fatalf("rank %d both killed and errored: %+v", r, rr)
					}
					if !rr.Killed && rr.Err == nil {
						finished++
					}
				}
				// Every random schedule contains a crash; whether it fires
				// or a transient drop aborts the world first, the run must
				// not complete cleanly everywhere.
				if finished == p {
					t.Fatalf("all %d ranks completed despite chaos schedule %s", p, sched)
				}
			})
		}
	})
}

// TestOverlapConservation runs traced overlap trainings — flat and
// hierarchical — through the conservation checker: per-resource tracks
// must each be monotone, every collective round complete and
// consistent, traced bytes equal the meters, and each device clock
// equal its latest event end across tracks.
func TestOverlapConservation(t *testing.T) {
	prob := DefaultProblem(3, 64, 16, 4)
	for _, spec := range []string{"", "8x4:nvlink,ib"} {
		spec := spec
		name := "flat"
		if spec != "" {
			name = spec
		}
		t.Run(name, func(t *testing.T) {
			o := DiffSpec{Dims: []int{16, 12, 8}}.opts(6)
			p := 4
			if spec != "" {
				ts, err := topo.ParseSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				p = 8
				o.Topology = ts.MustTopology(p)
			}
			o.Tracer = trace.NewTracer(1 << 16)
			run := trainOverlapMode(p, prob, o, 2, true)
			sessions := o.Tracer.Sessions()
			if len(sessions) == 0 {
				t.Fatal("no trace sessions recorded")
			}
			for _, s := range sessions {
				CheckFabricSession(t, run.fab, s)
			}
		})
	}
}

// TestOverlapTraceDeterministic runs the same overlap training twice
// with tracing on and asserts byte-identical Chrome exports: the device
// goroutines' interleaving must not leak into the recorded timeline
// (per-track event order is deterministic because each lane's ops
// execute in schedule order at simulated clocks).
func TestOverlapTraceDeterministic(t *testing.T) {
	prob := DefaultProblem(3, 64, 16, 4)
	o := DiffSpec{Dims: []int{16, 12, 8}}.opts(10)
	run := func() []byte {
		oo := o
		oo.Tracer = trace.NewTracer(1 << 16)
		trainOverlapMode(4, prob, oo, 2, true)
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, oo.Tracer); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		t.Fatalf("identical overlap runs produced different traces (%d vs %d bytes, divergence at %d: %s)",
			len(a), len(b), i, contextAround(a, b, i))
	}
}
