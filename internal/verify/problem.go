package verify

import (
	"math/rand"

	"gnnrdm/internal/core"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/sparse"
)

// DefaultProblem builds the standard learnable verification problem: a
// planted-partition graph with GCN-normalized adjacency and
// class-correlated synthetic features. n divisible by every fabric size
// under test keeps Horizontal row blocks uniform, as §IV's N/P terms
// assume; costmodel.EvaluateEngine counts ragged splits' exact tile
// overlaps, so the byte-exact volume comparisons hold either way.
func DefaultProblem(seed int64, n, fin, classes int) *core.Problem {
	prob := RawProblem(seed, n, fin, classes)
	prob.A = sparse.GCNNormalize(prob.A)
	return prob
}

// RawProblem is DefaultProblem without the GCN normalization — for
// trainers (GraphSAINT) that normalize internally.
func RawProblem(seed int64, n, fin, classes int) *core.Problem {
	rng := rand.New(rand.NewSource(seed))
	adj, labels := graph.PlantedPartition(rng, n, int64(4*n), classes, 0.8)
	return &core.Problem{
		A:      adj,
		X:      graph.SynthesizeFeatures(rng, labels, classes, fin, 0.8),
		Labels: labels,
	}
}

// RandomPerm returns a deterministic random permutation of [0, n):
// perm[old] = new.
func RandomPerm(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// ScaleFeatures returns the problem with every input feature multiplied
// by s. For powers of two the scaling is exact in float32 (exponent
// shift), which CheckFeatureScaling exploits for bitwise assertions.
func ScaleFeatures(prob *core.Problem, s float32) *core.Problem {
	out := *prob
	out.X = prob.X.Clone()
	for i := range out.X.Data {
		out.X.Data[i] *= s
	}
	return &out
}
