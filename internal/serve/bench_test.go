package serve

import (
	"testing"

	"gnnrdm/internal/core"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/sparse"
)

// BenchmarkSessionServe is the request path at a small OGB-Arxiv-like
// shape: each iteration serves one seeded Zipf(1.1) stream of 8192
// queries over OGB-Arxiv/64 (2646 vertices, dims 128-128-40) on a fresh
// session at P=4 with a 32-vertex answer cache, as the benchmark's
// serve-zipf op does with 2^19 queries over OGB-Arxiv/8. The time is
// also reported per query:
//
//	go test -run '^$' -bench SessionServe -cpu 1 ./internal/serve
func BenchmarkSessionServe(b *testing.B) {
	rec, err := graph.RecipeByName("OGB-Arxiv")
	if err != nil {
		b.Fatal(err)
	}
	rec = rec.Scaled(64)
	rec.Seed = 1
	g := rec.Build()
	prob := &core.Problem{A: sparse.GCNNormalize(g.Adj), X: g.Features, Labels: g.Labels}
	cfg := Config{Dims: []int{128, 128, 40}, Seed: 1, MaxBatch: 8, Deadline: 2e-3, CacheCap: 32}
	queries := TrafficSpec{Queries: 1 << 13, Users: 62_500, Skew: 1.1, Rate: 5000, Seed: 1}.Generate(prob.N())
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		NewSession(prob, cfg).Serve(4, queries)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/query")
}
