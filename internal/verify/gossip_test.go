package verify

import (
	"os"
	"strconv"
	"testing"

	"gnnrdm/internal/core"
	"gnnrdm/internal/fault"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/member"
	"gnnrdm/internal/topo"
)

// TestGossipConvergenceSweep is the acceptance sweep from the roadmap:
// gossip membership convergence for P in {8, 64, 256, 1024}, rounds at
// or below the closed-form epidemic bound, per-round byte censuses
// exactly equal to the cost-model prediction, seed-deterministic. CI's
// membership chaos job re-runs it across its MEMBER_SEED matrix.
func TestGossipConvergenceSweep(t *testing.T) {
	seed := int64(1)
	if env := os.Getenv("MEMBER_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad MEMBER_SEED %q: %v", env, err)
		}
		seed = v
	}
	for _, p := range []int{8, 64, 256, 1024} {
		for _, dead := range [][]int{{0}, {p / 4, p / 2, p - 1}} {
			rep, err := CheckGossipConvergence(p, dead, member.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("P=%d dead=%v: %d rounds, %d msgs, %d bytes", p, dead, rep.Rounds, rep.Msgs, rep.Bytes)
		}
	}
}

// TestGossipElasticTopology: gossip-triggered recovery on a priced
// hierarchical interconnect. CI's membership chaos job drives this
// across a (MEMBER_SEED × TOPO_SPEC) matrix under -race: whatever the
// topology, the survivors converge on the identical view, control-plane
// bytes equal the closed form, and two runs are byte-identical.
func TestGossipElasticTopology(t *testing.T) {
	spec := "2x2:nvlink,ib"
	if env := os.Getenv("TOPO_SPEC"); env != "" {
		spec = env
	}
	sp, err := topo.ParseSpec(spec)
	if err != nil {
		t.Fatalf("bad TOPO_SPEC %q: %v", spec, err)
	}
	seed := int64(1)
	if env := os.Getenv("MEMBER_SEED"); env != "" {
		if seed, err = strconv.ParseInt(env, 10, 64); err != nil {
			t.Fatalf("bad MEMBER_SEED %q: %v", env, err)
		}
	}
	prob := DefaultProblem(3, 64, 12, 4)
	sched, err := fault.ParseSchedule("crash@rank1:epoch2")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *core.ElasticResult {
		opts := DiffSpec{Dims: []int{12, 10, 4}}.opts(0)
		opts.Topology = sp.MustTopology(4)
		var el *core.ElasticResult
		NoGoroutineLeak(t, func() {
			el = core.TrainElastic(4, hw.A6000(), prob, opts, 4, core.ElasticOptions{
				Schedule: sched, FaultSeed: seed, Membership: &member.Config{Seed: seed},
			})
		})
		return el
	}
	a, b := run(), run()
	if len(a.Recoveries) != 1 {
		t.Fatalf("want one recovery, got %+v", a.Recoveries)
	}
	rec := a.Recoveries[0]
	if rec.Detection == nil || !rec.Detection.Converged {
		t.Fatal("gossip detection missing or unconverged")
	}
	if rec.ControlBytes == 0 || rec.ControlBytes != rec.PredictedControlBytes {
		t.Fatalf("control-plane meter %d != prediction %d", rec.ControlBytes, rec.PredictedControlBytes)
	}
	if rec.ReshardBytes != rec.PredictedReshardBytes {
		t.Fatalf("reshard meter %d != prediction %d", rec.ReshardBytes, rec.PredictedReshardBytes)
	}
	if a.Recoveries[0].Detection.EventLog() != b.Recoveries[0].Detection.EventLog() {
		t.Fatal("membership event logs differ between identical runs")
	}
	if a.Epochs[len(a.Epochs)-1].Loss != b.Epochs[len(b.Epochs)-1].Loss {
		t.Fatalf("final losses differ: %v vs %v", a.Epochs[len(a.Epochs)-1].Loss, b.Epochs[len(b.Epochs)-1].Loss)
	}
}

// TestGossipConvergenceConfigVariants exercises non-default protocol
// parameters through the checker: wider suspicion windows, more
// proxies, a tighter piggyback cap. The bound adapts to the config and
// the meter-equal discipline must hold in every variant.
func TestGossipConvergenceConfigVariants(t *testing.T) {
	variants := []member.Config{
		{Seed: 5, SuspicionPeriods: 6},
		{Seed: 5, K: 1},
		{Seed: 5, MaxPiggyback: 2, Lambda: 4},
	}
	for _, cfg := range variants {
		if _, err := CheckGossipConvergence(64, []int{7, 31}, cfg); err != nil {
			t.Errorf("config %+v: %v", cfg, err)
		}
	}
}
