package sim_test

import (
	"testing"
	"time"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sim"
	"gnnrdm/internal/topo"
)

func schedFor(n int, dims []int, cfg, p, ra int, sage bool) *plan.Schedule {
	return plan.Compile(plan.Spec{
		N: n, Dims: dims, Config: costmodel.ConfigFromID(cfg, len(dims)-1),
		P: p, RA: ra, SAGE: sage, Memoize: true, InputGrad: true,
	}).Optimize()
}

// TestSimBarriersExtendClocks checks the TrainResumable protocol
// (EpochBarriers=2): barrier latency accrues to clocks and comm time,
// snapshots are monotone, and a P=1 run is barrier-free.
func TestSimBarriersExtendClocks(t *testing.T) {
	h := hw.A6000()
	s := schedFor(128, []int{8, 6, 4}, 0, 4, 4, false)
	cen := s.ApproxCensus(512)
	bare := sim.MustRun(sim.Config{Sched: s, Census: cen, HW: h, Epochs: 2})
	barr := sim.MustRun(sim.Config{Sched: s, Census: cen, HW: h, Epochs: 2, EpochBarriers: 2})
	if barr.MaxClock() <= bare.MaxClock() {
		t.Fatalf("barriers did not extend clocks: %v <= %v", barr.MaxClock(), bare.MaxClock())
	}
	for ep := 1; ep < 2; ep++ {
		for r := 0; r < 4; r++ {
			if barr.EpochClock[ep][r] < barr.EpochClock[ep-1][r] {
				t.Fatalf("epoch clock snapshot not monotone at rank %d", r)
			}
		}
	}
	s1 := schedFor(128, []int{8, 6, 4}, 0, 1, 1, false)
	cen1 := s1.ApproxCensus(512)
	one := sim.MustRun(sim.Config{Sched: s1, Census: cen1, HW: h, Epochs: 2, EpochBarriers: 2})
	oneBare := sim.MustRun(sim.Config{Sched: s1, Census: cen1, HW: h, Epochs: 2})
	if one.MaxClock() != oneBare.MaxClock() {
		t.Fatalf("P=1 barriers changed clocks: %v != %v", one.MaxClock(), oneBare.MaxClock())
	}
}

// TestSimScaleSmoke runs one config at P=4096 on a hierarchical
// interconnect and asserts it completes in interactive time — the
// scale regime rdmbench sweeps. The cache is shared across both
// executors, as in a real sweep.
func TestSimScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("P=4096 smoke skipped in -short")
	}
	if raceEnabled {
		t.Skip("P=4096 smoke asserts wall-clock interactivity; meaningless instrumented")
	}
	h := hw.A6000()
	const p = 4096
	ts, err := topo.ParseSpec("512x8:nvlink,ib")
	if err != nil {
		t.Fatal(err)
	}
	tp := ts.MustTopology(p)
	s := schedFor(1<<16, []int{32, 16, 8}, 0, p, p, false)
	cen := s.ApproxCensus(1 << 20)
	pc := plan.NewPriceCache()
	start := time.Now()
	for _, overlap := range []bool{false, true} {
		res := sim.MustRun(sim.Config{
			Sched: s, Census: cen, HW: h, Topology: tp,
			Epochs: 2, Overlap: overlap, Cache: pc,
		})
		if res.MaxClock() <= 0 {
			t.Fatal("degenerate clock")
		}
		if res.Meters.TotalVolume() <= 0 {
			t.Fatal("no metered traffic at P=4096")
		}
	}
	if el := time.Since(start); el > 60*time.Second {
		t.Fatalf("P=4096 sim took %v, want interactive time", el)
	} else {
		t.Logf("P=4096 both executors priced in %v", el)
	}
}
