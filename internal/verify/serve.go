package verify

import (
	"math"
	"testing"

	"gnnrdm/internal/core"
	"gnnrdm/internal/serve"
)

// CheckServeMatchesModel runs one serving session over a generated
// query stream and asserts the tier's two exactness contracts:
//
//  1. Every byte the serving path moved — staleness refreshes through
//     the compiled inference schedule plus per-microbatch row gathers —
//     equals the closed-form prediction, per collective kind and per
//     link tier (tier 0 on the flat fabric), to the byte. Nothing but
//     all-to-all and allgather traffic may appear: serving never
//     all-reduces, and the side channel stays silent.
//  2. Every served answer matches the single-device uncached reference
//     engine within LogitsTol (float32 reduction-order slack; the
//     distributed forward is the only source of divergence — the cache
//     stores exact gathered rows).
//
// With a non-zero cache it also demands a non-zero hit rate: a stream
// with repeats that never hits means the cache is not actually in the
// serving path. Returns the session report for further assertions.
func CheckServeMatchesModel(t testing.TB, prob *core.Problem, cfg serve.Config, p int, ts serve.TrafficSpec) serve.Report {
	t.Helper()
	queries := ts.Generate(prob.N())
	s := serve.NewSession(prob, cfg)
	s.Serve(p, queries)
	r := s.Report()

	m, pr := s.Metered(), s.Predicted()
	if err := ledgersMatch(m, pr); err != nil {
		t.Fatalf("serve: %v", err)
	}
	if m.AllReduce != 0 || m.Other != 0 || m.Side != 0 {
		t.Fatalf("serve: inference moves only all-to-all and allgather bytes (all-reduce %d, other %d, side %d)",
			m.AllReduce, m.Other, m.Side)
	}

	ref := serve.Reference(prob, cfg, distinctVertices(queries))
	for v, want := range ref {
		got := s.Answer(v)
		if got == nil {
			t.Fatalf("serve: vertex %d was queried but has no served answer", v)
		}
		if len(got) != len(want) {
			t.Fatalf("serve: vertex %d answer has %d columns, reference %d", v, len(got), len(want))
		}
		for j := range got {
			if d := math.Abs(float64(got[j]) - float64(want[j])); d > LogitsTol {
				t.Fatalf("serve: vertex %d col %d: served %v, reference %v (|diff| %v > %v)",
					v, j, got[j], want[j], d, LogitsTol)
			}
		}
	}

	if cfg.CacheCap > 0 && r.HitRate <= 0 {
		t.Fatalf("serve: cache enabled (cap %d) but hit rate is zero over %d queries", cfg.CacheCap, r.Queries)
	}
	return r
}

func distinctVertices(queries []serve.Query) []int32 {
	seen := make(map[int32]bool, len(queries))
	var out []int32
	for _, q := range queries {
		if !seen[q.Vertex] {
			seen[q.Vertex] = true
			out = append(out, q.Vertex)
		}
	}
	return out
}
