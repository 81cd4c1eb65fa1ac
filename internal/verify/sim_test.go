package verify

import (
	"bytes"
	"fmt"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/fault"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/member"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sim"
	"gnnrdm/internal/topo"
	"gnnrdm/internal/trace"
)

// TestSimMatchesFabricSweep is the discrete-event backend's acceptance
// sweep: all 16 Table IV orderings × P ∈ {1,2,4,8} × {flat,
// 8x4:nvlink,ib}, each replayed on the sim engine and pinned
// bit-identical to live fabric runs — clocks, comm/compute time
// accumulators, and the full meter matrix — for both executors. A
// second, smaller leg leaves that grid: P=3 (a non-power-of-two world,
// ragged row blocks) and P=16 on 4x4:nvlink,ib (four nodes, so
// collectives route across several inter-node links, and f < P leaves
// some ranks empty tiles). The replay engine is the only pricer of
// per-device clocks, so the fabric is its only witness at any P.
func TestSimMatchesFabricSweep(t *testing.T) {
	prob := DefaultProblem(3, 64, 16, 4)
	dims := []int{16, 12, 8}
	all := make([]int, costmodel.NumConfigs(len(dims)-1))
	for i := range all {
		all[i] = i
	}
	for _, leg := range []struct {
		specs    []string
		cfgs, ps []int
	}{
		{[]string{"", "8x4:nvlink,ib"}, all, []int{1, 2, 4, 8}},
		{[]string{"", "4x4:nvlink,ib"}, []int{0, 5, 10, 15}, []int{3, 16}},
	} {
		for _, spec := range leg.specs {
			var ts topo.Spec
			if spec != "" {
				var err error
				if ts, err = topo.ParseSpec(spec); err != nil {
					t.Fatal(err)
				}
			}
			for _, cfg := range leg.cfgs {
				for _, p := range leg.ps {
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
						CheckSimMatchesFabric(t, prob, p, 2, o)
					})
				}
			}
		}
	}
}

// TestSimMatchesFabricSAGE extends the pin to the two-weight GraphSAGE
// form with reduced adjacency replication, which exercises the
// column-group allgather rounds and the side-channel (packed mask)
// regrid accounting.
func TestSimMatchesFabricSAGE(t *testing.T) {
	prob := DefaultProblem(3, 64, 16, 4)
	o := DiffSpec{Dims: []int{16, 12, 8}}.opts(5)
	o.SAGE = true
	o.RA = 2
	CheckSimMatchesFabric(t, prob, 4, 2, o)
}

// TestSimMatchesFabricTwoLinkLanes pins the overlap executor's lane join
// where a rank runs ops on both link lanes: on a 2x3 machine holding
// P=4 ranks with R_A=2, rank 0's column group {0, 2} stays in node 0
// (intra link) while the world spans both nodes (inter link), so the
// epoch join folds two link lanes into the device, and their order
// shows in the last bits of the comm-time accumulator.
func TestSimMatchesFabricTwoLinkLanes(t *testing.T) {
	prob := DefaultProblem(3, 64, 16, 4)
	ts, err := topo.ParseSpec("2x3:nvlink,ib")
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	for _, cfg := range []int{0, 5, 10, 15} {
		o := DiffSpec{Dims: []int{16, 12, 8}}.opts(cfg)
		o.RA, o.Topology = 2, ts.MustTopology(p)
		dag := plan.MustBuildDAG(scheduleFor(prob, p, o))
		var used [hw.NumResources]bool
		for i := range dag.Nodes {
			used[dag.OpResource(i, 0, o.Topology)] = true
		}
		if !used[hw.ResLinkIntra] || !used[hw.ResLinkInter] {
			t.Fatalf("cfg %d: rank 0 occupies %v, want both link lanes", cfg, used)
		}
		CheckSimMatchesFabric(t, prob, p, 3, o)
	}
}

// TestSimMatchesFabricRecovered pins the sim backend on the worlds
// elastic recovery actually produces: a crash shrinks P=4 to the odd
// world P'=3 (a shape the power-of-two sweep never visits), once
// detected by the fault injector directly and once by the gossip
// membership layer on a hierarchical topology. The sim must reproduce
// the recovered world's live fabric bit-for-bit in both cases.
func TestSimMatchesFabricRecovered(t *testing.T) {
	prob := DefaultProblem(3, 64, 12, 4)
	dims := []int{12, 10, 4}
	sched, err := fault.ParseSchedule("crash@rank1:epoch1")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("elastic", func(t *testing.T) {
		o := DiffSpec{Dims: dims}.opts(0)
		var el *core.ElasticResult
		NoGoroutineLeak(t, func() {
			el = core.TrainElastic(4, hw.A6000(), prob, o, 3,
				core.ElasticOptions{Schedule: sched, FaultSeed: 1})
		})
		if el.FinalP != 3 {
			t.Fatalf("recovered world P'=%d, want 3 (%+v)", el.FinalP, el.Recoveries)
		}
		CheckSimMatchesFabric(t, prob, el.FinalP, 2, o)
	})

	t.Run("gossip", func(t *testing.T) {
		sp, err := topo.ParseSpec("2x2:nvlink,ib")
		if err != nil {
			t.Fatal(err)
		}
		o := DiffSpec{Dims: dims}.opts(3)
		o.Topology = sp.MustTopology(4)
		var el *core.ElasticResult
		NoGoroutineLeak(t, func() {
			el = core.TrainElastic(4, hw.A6000(), prob, o, 3, core.ElasticOptions{
				Schedule: sched, FaultSeed: 1, Membership: &member.Config{Seed: 1},
			})
		})
		if el.FinalP != 3 {
			t.Fatalf("recovered world P'=%d, want 3 (%+v)", el.FinalP, el.Recoveries)
		}
		if len(el.Recoveries) != 1 || el.Recoveries[0].Detection == nil {
			t.Fatalf("want one gossip-detected recovery, got %+v", el.Recoveries)
		}
		// The original 2x2 topology stays attached to the shrunken world
		// (survivors renumber contiguously), exactly as TrainElastic does.
		CheckSimMatchesFabric(t, prob, el.FinalP, 2, o)
	})
}

// TestSimTraceDeterminism replays the same traced simulation twice and
// asserts byte-identical Chrome exports, and that the recorded session
// is marked virtual. The whole sim lifecycle must also leak no
// goroutines (the engine is purely sequential — this pins it).
func TestSimTraceDeterminism(t *testing.T) {
	prob := DefaultProblem(3, 64, 16, 4)
	o := DiffSpec{Dims: []int{16, 12, 8}}.opts(10)
	sched := scheduleFor(prob, 4, o)
	dag := plan.MustBuildDAG(sched)
	cen := core.PanelCensus(prob, 4, 4)
	run := func(overlap bool) []byte {
		tr := trace.NewTracer(1 << 16)
		NoGoroutineLeak(t, func() {
			sim.MustRun(sim.Config{
				DAG: dag, Census: cen, HW: hw.A6000(),
				Epochs: 2, Overlap: overlap, EpochBarriers: 2, Tracer: tr,
			})
		})
		sessions := tr.Sessions()
		if len(sessions) != 1 {
			t.Fatalf("want one trace session, got %d", len(sessions))
		}
		if !sessions[0].Virtual {
			t.Fatal("sim session not marked virtual")
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, overlap := range []bool{false, true} {
		a, b := run(overlap), run(overlap)
		if len(a) == 0 {
			t.Fatal("empty trace export")
		}
		if !bytes.Equal(a, b) {
			i := 0
			for i < len(a) && i < len(b) && a[i] == b[i] {
				i++
			}
			t.Fatalf("overlap=%v: identical sim runs produced different traces (%d vs %d bytes, divergence at %d: %s)",
				overlap, len(a), len(b), i, contextAround(a, b, i))
		}
	}
}

// TestSimTraceMatchesFabric pins the sim backend's synthesized timeline
// against the live fabric's, event by event: for both executors, four
// orderings, flat and hierarchical, every non-phase event of core.Train
// on each (rank, track) equals SimExecutor's field for field, times and
// scope tags included. Phase brackets are the live engine's alone.
func TestSimTraceMatchesFabric(t *testing.T) {
	prob := DefaultProblem(3, 64, 16, 4)
	const p, epochs = 4, 2
	sp, err := topo.ParseSpec("2x2:nvlink,ib")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []int{0, 5, 10, 15} {
		for _, tp := range []*topo.Topology{nil, sp.MustTopology(p)} {
			for _, overlap := range []bool{false, true} {
				o := DiffSpec{Dims: []int{16, 12, 8}}.opts(cfg)
				o.Topology, o.Overlap = tp, overlap
				checkTraceMatchesFabric(t, fmt.Sprintf("cfg%02d topo=%v overlap=%v", cfg, tp != nil, overlap), prob, p, epochs, o)
			}
		}
	}
}

// checkTraceMatchesFabric trains prob on p ranks under o live and on
// the sim executor, each with its own tracer, and fails unless every
// (rank, track) holds the same non-phase events in the same order.
func checkTraceMatchesFabric(t *testing.T, name string, prob *core.Problem, p, epochs int, o core.Options) {
	t.Helper()
	session := func(x core.Executor) *trace.Session {
		o := o
		o.Tracer = trace.NewTracer(0)
		x.Train(p, hw.A6000(), prob, o, epochs)
		if n := len(o.Tracer.Sessions()); n != 1 {
			t.Fatalf("%s %s: want one trace session, got %d", name, x.Name(), n)
		}
		return o.Tracer.Sessions()[0]
	}
	nonPhase := func(s *trace.Session, r, track int) []trace.Event {
		var out []trace.Event
		for _, ev := range s.TrackEvents(r, track) {
			if ev.Class != trace.ClassPhase {
				out = append(out, ev)
			}
		}
		return out
	}
	live, virt := session(core.FabricExecutor{}), session(core.SimExecutor{})
	for r := 0; r < p; r++ {
		for track := range max(live.Tracks(r), virt.Tracks(r)) {
			lv, sv := nonPhase(live, r, track), nonPhase(virt, r, track)
			if len(lv) != len(sv) {
				t.Fatalf("%s rank %d track %d: live %d events, sim %d", name, r, track, len(lv), len(sv))
			}
			for i := range lv {
				if lv[i] != sv[i] {
					t.Fatalf("%s rank %d track %d event %d:\nlive %+v\nsim  %+v", name, r, track, i, lv[i], sv[i])
				}
			}
		}
	}
}

// TestSimMatchesFabricOffGrid pins the replay where every tile shape is
// uneven: P ∈ {5, 7} over 67 vertices and 16→12→8 features, none of
// them a multiple of P, so a layout's tiles take two shapes and a
// kernel time computed once per shape must still land on the right
// ranks. Each leg checks clocks, accumulators and meters under both
// lane maps (CheckSimMatchesFabric) and the traced timeline event by
// event, on the flat interconnect and on 2x4:nvlink,ib, and at R_A = 1
// (one P-rank column group, so the SpMMs' column allgathers replay).
// A last leg runs P = 72 with R_A = 6 flat, so the replay's rank blocks
// split column groups and the blocks past the first start mid-cycle.
// -short keeps two orderings and drops the P = 72 leg.
func TestSimMatchesFabricOffGrid(t *testing.T) {
	prob := DefaultProblem(5, 67, 16, 4)
	dims := []int{16, 12, 8}
	cfgs := []int{0, 5, 10, 15}
	if testing.Short() {
		cfgs = []int{5, 10}
	}
	sp, err := topo.ParseSpec("2x4:nvlink,ib")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{5, 7} {
		for _, hier := range []bool{false, true} {
			for _, ra := range []int{p, 1} {
				for _, cfg := range cfgs {
					o := DiffSpec{Dims: dims}.opts(cfg)
					o.RA = ra
					if hier {
						o.Topology = sp.MustTopology(p)
					}
					name := fmt.Sprintf("P%d/hier=%v/RA%d/cfg%02d", p, hier, ra, cfg)
					t.Run(name, func(t *testing.T) {
						CheckSimMatchesFabric(t, prob, p, 2, o)
						for _, overlap := range []bool{false, true} {
							o.Overlap = overlap
							checkTraceMatchesFabric(t, fmt.Sprintf("overlap=%v", overlap), prob, p, 2, o)
						}
					})
				}
			}
		}
	}
	if testing.Short() {
		return
	}
	wide := DefaultProblem(5, 150, 16, 4)
	for _, cfg := range []int{5, 10} {
		o := DiffSpec{Dims: dims}.opts(cfg)
		o.RA = 6
		t.Run(fmt.Sprintf("P72/RA6/cfg%02d", cfg), func(t *testing.T) {
			CheckSimMatchesFabric(t, wide, 72, 2, o)
		})
	}
}

// TestExecutorSeam drives both named executors through the core
// Executor interface and asserts the sim backend's Result carries
// bit-identical per-epoch timing and traffic to the fabric's, for both
// executor modes — the seam contract rdmbench relies on when swapping
// engines by name.
func TestExecutorSeam(t *testing.T) {
	prob := DefaultProblem(3, 64, 16, 4)
	if _, err := core.ExecutorFor("nope"); err == nil {
		t.Fatal("unknown engine name accepted")
	}
	fabric, err := core.ExecutorFor("")
	if err != nil || fabric.Name() != "fabric" {
		t.Fatalf("default executor: %v, %v", fabric, err)
	}
	simx, err := core.ExecutorFor("sim")
	if err != nil || simx.Name() != "sim" {
		t.Fatalf("sim executor: %v, %v", simx, err)
	}
	for _, overlap := range []bool{false, true} {
		o := DiffSpec{Dims: []int{16, 12, 8}}.opts(9)
		o.Overlap = overlap
		const p, epochs = 4, 3
		live := fabric.Train(p, hw.A6000(), prob, o, epochs)
		fast := simx.Train(p, hw.A6000(), prob, o, epochs)
		if len(fast.Epochs) != len(live.Epochs) {
			t.Fatalf("epoch count %d != %d", len(fast.Epochs), len(live.Epochs))
		}
		for ep := range live.Epochs {
			lv, sv := live.Epochs[ep], fast.Epochs[ep]
			if sv.Time != lv.Time || sv.CommTime != lv.CommTime || sv.ComputeTime != lv.ComputeTime {
				t.Fatalf("overlap=%v epoch %d: sim (%.17g, %.17g, %.17g) != fabric (%.17g, %.17g, %.17g)",
					overlap, ep, sv.Time, sv.CommTime, sv.ComputeTime, lv.Time, lv.CommTime, lv.ComputeTime)
			}
			if sv.CommBytes != lv.CommBytes {
				t.Fatalf("overlap=%v epoch %d: sim %d bytes != fabric %d", overlap, ep, sv.CommBytes, lv.CommBytes)
			}
		}
		if fast.MeanEpochTime() != live.MeanEpochTime() {
			t.Fatalf("overlap=%v: mean epoch time %v != %v", overlap, fast.MeanEpochTime(), live.MeanEpochTime())
		}
	}
}

// TestSimEpochStatsMatchTrain pins the sim's TrainResumable protocol
// (EpochBarriers=2 with post-first-barrier snapshots) against
// core.Train's per-epoch stats: epoch wall time, comm time, compute
// time (each the max over ranks of per-epoch deltas), and metered
// bytes must be bit-identical.
func TestSimEpochStatsMatchTrain(t *testing.T) {
	prob := DefaultProblem(3, 64, 16, 4)
	for _, overlap := range []bool{false, true} {
		o := DiffSpec{Dims: []int{16, 12, 8}}.opts(7)
		o.Overlap = overlap
		const p, epochs = 4, 3
		res := core.Train(p, hw.A6000(), prob, o, epochs)

		sched := scheduleFor(prob, p, o)
		dag := plan.MustBuildDAG(sched)
		cen := core.PanelCensus(prob, p, p)
		sr := sim.MustRun(sim.Config{
			DAG: dag, Census: cen, HW: hw.A6000(),
			Epochs: epochs, Overlap: overlap, EpochBarriers: 2,
		})
		prevT := make([]float64, p)
		prevC := make([]float64, p)
		prevK := make([]float64, p)
		var prevB int64
		for ep := 0; ep < epochs; ep++ {
			var wt, wc, wk float64
			for r := 0; r < p; r++ {
				wt = max(wt, sr.EpochClock[ep][r]-prevT[r])
				wc = max(wc, sr.EpochComm[ep][r]-prevC[r])
				wk = max(wk, sr.EpochCompute[ep][r]-prevK[r])
			}
			st := res.Epochs[ep]
			if wt != st.Time || wc != st.CommTime || wk != st.ComputeTime {
				t.Fatalf("overlap=%v epoch %d: sim stats (%.17g, %.17g, %.17g) != live (%.17g, %.17g, %.17g)",
					overlap, ep, wt, wc, wk, st.Time, st.CommTime, st.ComputeTime)
			}
			if db := sr.EpochBytes[ep] - prevB; db != st.CommBytes {
				t.Fatalf("overlap=%v epoch %d: sim %d bytes != live %d", overlap, ep, db, st.CommBytes)
			}
			copy(prevT, sr.EpochClock[ep])
			copy(prevC, sr.EpochComm[ep])
			copy(prevK, sr.EpochCompute[ep])
			prevB = sr.EpochBytes[ep]
		}
	}
}

// TestMeterDiffNamesField: the census diff behind every meters-equal
// check reports the one field that differs by its name, kind and tier,
// and nothing for equal censuses.
func TestMeterDiffNamesField(t *testing.T) {
	var base comm.Meters
	base.Add(hw.OpAllToAll, topo.Cost{Tier: [topo.NumTiers]int64{96, 32}}, false)
	base.Add(hw.OpAllToAll, topo.Cost{Tier: [topo.NumTiers]int64{8, 4}}, true)
	base.Add(hw.OpAllReduce, topo.Cost{Tier: [topo.NumTiers]int64{64, 0}}, false)
	if d := meterDiff(base, base); d != "" {
		t.Fatalf("equal censuses reported as %q", d)
	}
	for _, tc := range []struct {
		want string
		bump func(m *comm.Meters)
	}{
		{"SideTierVolume[inter][alltoall] (5 vs 4)", func(m *comm.Meters) { m.SideTierVolume[topo.TierInter][hw.OpAllToAll]++ }},
		{"SideTierVolume[intra][alltoall] (9 vs 8)", func(m *comm.Meters) { m.SideTierVolume[topo.TierIntra][hw.OpAllToAll]++ }},
		{"TierVolume[inter][allreduce] (1 vs 0)", func(m *comm.Meters) { m.TierVolume[topo.TierInter][hw.OpAllReduce]++ }},
		{"TierVolume[intra][alltoall] (97 vs 96)", func(m *comm.Meters) { m.TierVolume[topo.TierIntra][hw.OpAllToAll]++ }},
		{"SideVolume[alltoall] (13 vs 12)", func(m *comm.Meters) { m.SideVolume[hw.OpAllToAll]++ }},
		{"Volume[allgather] (1 vs 0)", func(m *comm.Meters) { m.Volume[hw.OpAllGather]++ }},
		{"Calls[allreduce] (2 vs 1)", func(m *comm.Meters) { m.Calls[hw.OpAllReduce]++ }},
	} {
		m := base
		tc.bump(&m)
		if d := meterDiff(m, base); d != tc.want {
			t.Errorf("meterDiff = %q, want %q", d, tc.want)
		}
	}
}
