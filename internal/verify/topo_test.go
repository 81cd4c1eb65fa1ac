package verify

import (
	"fmt"
	"os"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// topoSpecUnderTest returns the interconnect spec the topology suite
// runs on: the TOPO_SPEC environment variable when set (the CI matrix
// leg exports it), else the issue's reference machine — eight nodes of
// four NVLink-connected devices, InfiniBand between nodes.
func topoSpecUnderTest(tb testing.TB) topo.Spec {
	s := os.Getenv("TOPO_SPEC")
	if s == "" {
		s = "8x4:nvlink,ib"
	}
	sp, err := topo.ParseSpec(s)
	if err != nil {
		tb.Fatalf("TOPO_SPEC=%q: %v", s, err)
	}
	return sp
}

// TestTopoFlatBitIdentical is the backward-compatibility contract over
// the full configuration space: all 16 two-layer orderings × P ∈
// {1,2,4,8}, each trained on the legacy flat fabric and again with an
// explicit Flat topology attached. Makespans, per-kind volumes, side
// volumes, and call counts must match bit-for-bit, with every byte on
// tier 0.
func TestTopoFlatBitIdentical(t *testing.T) {
	prob := DefaultProblem(7, 64, 10, 4)
	dims := []int{10, 8, 4}
	for cfg := 0; cfg < costmodel.NumConfigs(2); cfg++ {
		for _, p := range []int{1, 2, 4, 8} {
			cfg, p := cfg, p
			t.Run(fmt.Sprintf("cfg%02d/P%d", cfg, p), func(t *testing.T) {
				o := DiffSpec{Dims: dims}.opts(cfg)
				CheckFlatTopologyBitIdentical(t, prob, p, o)
			})
		}
	}
}

// TestTopoScheduleMatchesMeters reconciles live fabric meters against
// the planner's closed-form topology pricing, per link tier, across
// orderings and replication factors on the spec under test.
func TestTopoScheduleMatchesMeters(t *testing.T) {
	sp := topoSpecUnderTest(t)
	prob := DefaultProblem(7, 64, 10, 4)
	dims := []int{10, 8, 4}
	for _, cfg := range []int{0, 5, 10, 15} {
		for _, pr := range []struct{ p, ra int }{{4, 4}, {8, 8}, {8, 4}, {8, 2}, {16, 16}, {16, 4}} {
			if pr.p > sp.Devices() {
				continue
			}
			cfg, pr := cfg, pr
			t.Run(fmt.Sprintf("cfg%02d/P%d/RA%d", cfg, pr.p, pr.ra), func(t *testing.T) {
				o := DiffSpec{Dims: dims}.opts(cfg)
				o.RA = pr.ra
				o.Topology = sp.MustTopology(pr.p)
				CheckScheduleMatchesMeters(t, prob, pr.p, o)
			})
		}
	}
}

// TestTopoDifferential runs the differential-equivalence sweep on the
// spec under test: topology routing must change clocks and meters,
// never numerics. A subset of orderings keeps the sweep fast; the CI
// matrix leg re-runs it under -race.
func TestTopoDifferential(t *testing.T) {
	RunDifferential(t, DiffSpec{
		Problem:  DefaultProblem(7, 64, 10, 4),
		Dims:     []int{10, 8, 4},
		Epochs:   2,
		Ps:       []int{2, 4, 8},
		Configs:  []int{0, 6, 9, 15},
		TopoSpec: topoSpecUnderTest(t).String(),
	})
}

// TestTopoDifferentialPartialReplication repeats a slice of the sweep
// with R_A < P, which routes column-group allgathers across node
// boundaries on the spec under test.
func TestTopoDifferentialPartialReplication(t *testing.T) {
	RunDifferential(t, DiffSpec{
		Problem:  DefaultProblem(7, 64, 10, 4),
		Dims:     []int{10, 8, 4},
		Epochs:   2,
		Ps:       []int{8},
		Configs:  []int{0, 15},
		RAs:      func(p int) []int { return []int{2, 4} },
		TopoSpec: topoSpecUnderTest(t).String(),
	})
}

// TestTopoCrossoverP32 is the issue's acceptance point: on the 8x4
// reference machine at P=32, the autotuned hierarchical all-reduce and
// all-gather beat the flat ring in simulated time — first in the
// closed-form model, then on the live fabric moving real bytes.
func TestTopoCrossoverP32(t *testing.T) {
	sp, err := topo.ParseSpec("8x4:nvlink,ib")
	if err != nil {
		t.Fatal(err)
	}
	const p = 32
	tp := sp.MustTopology(p)
	h := hw.A6000()
	world := make([]int, p)
	for i := range world {
		world[i] = i
	}
	const bytes = 1 << 22 // 4 MiB gradient buffer

	_, ringAR := tp.AllReduce(h, topo.Ring, world, bytes)
	algAR, hierAR := tp.AllReduce(h, topo.Hier, world, bytes)
	if algAR != topo.Hier {
		t.Fatalf("hierarchical all-reduce not applicable on %s P=%d", tp.Name, p)
	}
	if hierAR.Time >= ringAR.Time {
		t.Fatalf("hierarchical all-reduce %.6gs not faster than flat ring %.6gs on %s",
			hierAR.Time, ringAR.Time, tp.Name)
	}
	autoAlg, autoAR := tp.AllReduce(h, topo.Auto, world, bytes)
	if autoAR.Time > hierAR.Time {
		t.Fatalf("autotuned all-reduce (%s, %.6gs) worse than hierarchical (%.6gs)",
			autoAlg, autoAR.Time, hierAR.Time)
	}

	chunks := topo.EvenChunks(bytes, p)
	_, ringAG := tp.AllGather(h, topo.Ring, world, chunks)
	algAG, hierAG := tp.AllGather(h, topo.Hier, world, chunks)
	if algAG != topo.Hier {
		t.Fatalf("hierarchical all-gather not applicable on %s P=%d", tp.Name, p)
	}
	if hierAG.Time >= ringAG.Time {
		t.Fatalf("hierarchical all-gather %.6gs not faster than flat ring %.6gs on %s",
			hierAG.Time, ringAG.Time, tp.Name)
	}
	autoAlgAG, autoAG := tp.AllGather(h, topo.Auto, world, chunks)
	if autoAG.Time > hierAG.Time {
		t.Fatalf("autotuned all-gather (%s, %.6gs) worse than hierarchical (%.6gs)",
			autoAlgAG, autoAG.Time, hierAG.Time)
	}

	// Live confirmation: the fabric prices every collective under Auto
	// inside its one fused rendezvous, so a real all-reduce's makespan is
	// exactly the autotuned closed form, and beats the flat ring's.
	fab := comm.NewFabric(p, h)
	fab.SetTopology(tp)
	fab.Run(func(d *comm.Device) {
		buf := make([]float32, bytes/4)
		for i := range buf {
			buf[i] = float32(d.Rank + i)
		}
		d.AllReduceSum(world, buf)
	})
	if got := fab.MaxClock(); got != autoAR.Time {
		t.Fatalf("live all-reduce makespan %.6gs != autotuned model %.6gs", got, autoAR.Time)
	}
	if autoAR.Time >= ringAR.Time {
		t.Fatalf("live all-reduce makespan %.6gs not faster than flat ring %.6gs",
			autoAR.Time, ringAR.Time)
	}
}
