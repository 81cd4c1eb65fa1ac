package baselines

import (
	"testing"

	"gnnrdm/internal/core"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/sparse"
)

// BenchmarkPermuteProblem permutes the GCN-normalized Reddit/64 stand-in
// into DGCL's 8-part order, as TrainDGCL does before its first epoch; the
// permuted adjacency is built through sparse.FromCoords from coordinates
// whose rows arrive out of order and unsorted:
// go test -run '^$' -bench PermuteProblem ./internal/baselines
func BenchmarkPermuteProblem(b *testing.B) {
	r, err := graph.RecipeByName("Reddit")
	if err != nil {
		b.Fatal(err)
	}
	g := r.Scaled(64).Build()
	prob := &core.Problem{A: sparse.GCNNormalize(g.Adj), X: g.Features, Labels: g.Labels, TrainMask: g.TrainMask}
	assign := Partition(g.Adj, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PermuteProblem(prob, assign, 8)
	}
}
