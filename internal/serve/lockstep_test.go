package serve

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/tensor"
	"gnnrdm/internal/topo"
	"gnnrdm/internal/trace"
)

// Serve steps every device from one host loop and gathers with lockstep
// rounds. Its oracle is the SPMD form it replaced, kept here: one Run in
// which every device walks the plans and gathers at the rendezvous.
// Bytes, clocks, trace and answers must not tell the two apart.

// runPlansSPMD executes the plans the SPMD way: every device builds its
// engine, refreshes and gathers (GatherRowsInto) in one Run; only root's
// goroutine charges the hits and writes the store.
func (s *Session) runPlansSPMD(fab *comm.Fabric, plans []batchPlan, opts core.Options) []float64 {
	svc := make([]float64, len(plans))
	fab.Run(func(d *comm.Device) {
		eng := core.NewInferenceEngine(d, s.prob, opts, s.cfg.Checkpoint)
		var logits *dist.Mat
		var tile *tensor.Dense
		for i := range plans {
			bp := &plans[i]
			c0 := d.Clock()
			if bp.fromLayer >= 0 {
				logits = eng.RunInference(bp.fromLayer)
			}
			if len(bp.missVerts) > 0 {
				tile = logits.GatherRowsInto(0, bp.missVerts, tile)
			}
			if d.Rank == 0 {
				if bp.hitRows > 0 {
					d.ChargeMem(4 * int64(s.width) * int64(bp.hitRows))
				}
				for j, v := range bp.missVerts {
					copy(s.storeRow(v), tile.Row(j))
				}
				svc[i] = d.Clock() - c0
			}
		}
	})
	return svc
}

// served is everything a session shows of the streams it served.
type served struct {
	metered, predicted plan.Traffic
	report             Report
	hitMiss            string
	answers            map[int32][]float32
	chrome             []byte
}

// serveBoth replays calls (one world size and stream each) through Serve
// and through the SPMD oracle on two traced sessions of cfg.
func serveBoth(t *testing.T, cfg Config, calls []serveCall) (got, want served) {
	t.Helper()
	run := func(spmd bool) served {
		tr := trace.NewTracer(0)
		c := cfg
		c.Tracer = tr
		s := NewSession(storeProblem(), c)
		for _, call := range calls {
			if spmd {
				s.serve(call.p, call.queries, (*Session).runPlansSPMD)
			} else {
				s.Serve(call.p, call.queries)
			}
		}
		out := served{metered: s.Metered(), predicted: s.Predicted(), report: s.Report(), hitMiss: s.HitMiss(),
			answers: make(map[int32][]float32)}
		for _, call := range calls {
			for _, q := range call.queries {
				out.answers[q.Vertex] = s.Answer(q.Vertex)
			}
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, tr); err != nil {
			t.Fatal(err)
		}
		out.chrome = buf.Bytes()
		return out
	}
	return run(false), run(true)
}

type serveCall struct {
	p       int
	queries []Query
}

func TestServeMatchesSPMDOracle(t *testing.T) {
	tp, err := topo.ParseSpec("2x2:nvlink,ib")
	if err != nil {
		t.Fatal(err)
	}
	topoCfg := Config{Dims: []int{16, 8, 4}, Seed: 5, MaxBatch: 4, Deadline: 2e-3, CacheCap: 8,
		Topology: tp.MustTopology(4)}
	zipf := TrafficSpec{Queries: 96, Users: 1000, Skew: 1.2, Rate: 3000, Seed: 9}.Generate(96)
	for _, c := range []struct {
		name  string
		cfg   Config
		calls []serveCall
	}{
		// storeConfig refreshes layer 2 every batch and layer 1 every
		// other one: a Run per refresh between the gathers.
		{"layer-staleness", storeConfig(), []serveCall{{3, stream(0, 3, 7, 3, 9, 50, 3, 81, 7, 12, 95)}}},
		{"topology", topoCfg, []serveCall{{4, zipf}}},
		{"re-formation", storeConfig(), []serveCall{
			{2, stream(0, 3, 7, 3, 9, 60, 61)},
			{4, stream(1, 7, 3, 9, 44, 3, 95, 0)},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, want := serveBoth(t, c.cfg, c.calls)
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"Metered", got.metered, want.metered},
				{"Predicted", got.predicted, want.predicted},
				{"Report", got.report, want.report},
				{"HitMiss", got.hitMiss, want.hitMiss},
				{"answers", got.answers, want.answers},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Fatalf("%s: %+v, SPMD oracle %+v", f.name, f.got, f.want)
				}
			}
			if !bytes.Equal(got.chrome, want.chrome) {
				t.Fatalf("Chrome traces differ (%d vs %d bytes)", len(got.chrome), len(want.chrome))
			}
			if len(got.answers) == 0 || got.report.Misses == 0 {
				t.Fatal("the case served nothing")
			}
		})
	}
}

// A query naming a vertex outside the graph is refused before Serve
// changes anything, like a stream whose arrivals decrease.
func TestServeRejectsOutOfRangeVertexUnchanged(t *testing.T) {
	for _, v := range []int32{96, -1} {
		t.Run(fmt.Sprint(v), func(t *testing.T) {
			s := NewSession(storeProblem(), storeConfig())
			s.Serve(2, stream(0, 3, 7))
			before, witness, cached, answer := s.Report(), s.HitMiss(), s.cache.order(), s.Answer(7)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("Serve accepted vertex %d of a 96-vertex graph", v)
					}
				}()
				s.Serve(2, stream(1, 5, v))
			}()
			if s.Report() != before || s.HitMiss() != witness || !reflect.DeepEqual(s.cache.order(), cached) || !sameRow(s.Answer(7), answer) {
				t.Fatal("a rejected stream changed the session")
			}
		})
	}
}
