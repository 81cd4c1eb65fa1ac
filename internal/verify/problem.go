package verify

import (
	"math/rand"

	"gnnrdm/internal/core"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
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

// PermuteProblem relabels the problem's vertices: adjacency becomes
// PAPᵀ, features/labels/masks are row-permuted. Entry values are moved
// bitwise (no arithmetic), so the permuted problem is exactly the same
// computation up to reduction order.
func PermuteProblem(prob *core.Problem, perm []int) *core.Problem {
	out := &core.Problem{
		A:      permuteCSR(prob.A, perm),
		X:      PermuteRows(prob.X, perm),
		Labels: make([]int32, len(prob.Labels)),
	}
	for i, l := range prob.Labels {
		out.Labels[perm[i]] = l
	}
	if prob.TrainMask != nil {
		out.TrainMask = make([]bool, len(prob.TrainMask))
		for i, m := range prob.TrainMask {
			out.TrainMask[perm[i]] = m
		}
	}
	if prob.LossWeights != nil {
		out.LossWeights = make([]float32, len(prob.LossWeights))
		for i, w := range prob.LossWeights {
			out.LossWeights[perm[i]] = w
		}
	}
	if prob.ATranspose != nil {
		out.ATranspose = permuteCSR(prob.ATranspose, perm)
	}
	return out
}

// PermuteRows returns a copy of m with row i moved to row perm[i].
func PermuteRows(m *tensor.Dense, perm []int) *tensor.Dense {
	out := tensor.NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(perm[i]), m.Row(i))
	}
	return out
}

// permuteCSR returns PAPᵀ for the permutation matrix P defined by perm.
// Values travel untouched; only coordinates change.
func permuteCSR(a *sparse.CSR, perm []int) *sparse.CSR {
	coords := make([]sparse.Coord, 0, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			coords = append(coords, sparse.Coord{
				Row: int32(perm[i]),
				Col: int32(perm[a.ColIdx[p]]),
				Val: a.Val[p],
			})
		}
	}
	return sparse.FromCoords(a.Rows, a.Cols, coords)
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
