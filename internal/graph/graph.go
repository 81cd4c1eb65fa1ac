// Package graph provides the graph substrate for the GNN-RDM
// reproduction: a graph type over CSR adjacency, synthetic generators
// (R-MAT, planted-partition, Erdős–Rényi), feature/label synthesis, and
// train/val/test splits.
//
// The paper evaluates on eight public datasets (Table V). Those datasets
// are not redistributable inside this offline build, so each is replaced
// by a synthetic recipe that matches its vertex count, edge count,
// feature width and label count (optionally scaled down); see
// internal/graph/datasets.go and DESIGN.md §1.
package graph

import (
	"fmt"
	"math/rand"

	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
)

// Graph is an undirected graph with node features and labels, ready for
// GCN training.
type Graph struct {
	Name string
	// Adj is the raw symmetric adjacency matrix (no self loops, unit
	// weights).
	Adj *sparse.CSR
	// Features is the N x FeatureDim input feature matrix (H_0).
	Features *tensor.Dense
	// Labels[i] in [0, NumClasses) is node i's class, or -1 if unlabeled.
	Labels []int32
	// NumClasses is the number of distinct labels.
	NumClasses int
	// TrainMask/ValMask/TestMask flag split membership per node. All false
	// for datasets without training splits (Web-Google, Com-Orkut).
	TrainMask, ValMask, TestMask []bool
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.Adj.Rows }

// NNZ returns the number of stored directed edges (2x undirected count).
func (g *Graph) NNZ() int64 { return g.Adj.NNZ() }

// FeatureDim returns the input feature width f_in.
func (g *Graph) FeatureDim() int { return g.Features.Cols }

func (g *Graph) String() string {
	return fmt.Sprintf("%s: N=%d nnz=%d f=%d labels=%d", g.Name, g.N(), g.NNZ(), g.FeatureDim(), g.NumClasses)
}

// RMAT generates an R-MAT graph with n vertices (rounded up to a power of
// two internally, then truncated) and approximately the requested number
// of undirected edges, using the classic (a,b,c,d) quadrant recursion.
// R-MAT yields the skewed power-law-like degree distributions of the web,
// social and co-purchase graphs in Table V.
func RMAT(rng *rand.Rand, n int, edges int64, a, b, c float64) *sparse.CSR {
	if n < 2 {
		panic("graph: RMAT needs n >= 2")
	}
	levels := 0
	for (1 << levels) < n {
		levels++
	}
	coords := make([]sparse.Coord, 0, edges)
	for int64(len(coords)) < edges {
		u, v := 0, 0
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			switch {
			case r < a: // top-left
			case r < a+b: // top-right
				v |= 1 << l
			case r < a+b+c: // bottom-left
				u |= 1 << l
			default: // bottom-right
				u |= 1 << l
				v |= 1 << l
			}
		}
		if u >= n || v >= n || u == v {
			continue
		}
		coords = append(coords, sparse.Coord{Row: int32(u), Col: int32(v)})
	}
	return sparse.Symmetric(n, coords)
}

// ErdosRenyi generates a G(n, m) uniform random graph with about m
// undirected edges.
func ErdosRenyi(rng *rand.Rand, n int, m int64) *sparse.CSR {
	coords := make([]sparse.Coord, 0, m)
	for int64(len(coords)) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		coords = append(coords, sparse.Coord{Row: int32(u), Col: int32(v)})
	}
	return sparse.Symmetric(n, coords)
}

// PlantedPartition generates a stochastic-block-model graph: n vertices in
// k equal communities, with a fraction pIn of edges internal to a
// community. Returns the adjacency and the community assignment. Planted
// structure makes GCN training convergent, which the accuracy-vs-time
// experiment (Fig. 13) requires.
func PlantedPartition(rng *rand.Rand, n int, edges int64, k int, pIn float64) (*sparse.CSR, []int32) {
	if k < 1 || n < k {
		panic("graph: PlantedPartition needs 1 <= k <= n")
	}
	comm := make([]int32, n)
	for i := range comm {
		comm[i] = int32(i % k)
	}
	// Vertices of community c are {i : i % k == c}; sampling within a
	// community picks a random multiple offset.
	coords := make([]sparse.Coord, 0, edges)
	perComm := n / k
	for int64(len(coords)) < edges {
		u := rng.Intn(n)
		var v int
		if rng.Float64() < pIn && perComm > 1 {
			v = rng.Intn(perComm)*k + int(comm[u])
			if v >= n {
				continue
			}
		} else {
			v = rng.Intn(n)
		}
		if u == v {
			continue
		}
		coords = append(coords, sparse.Coord{Row: int32(u), Col: int32(v)})
	}
	return sparse.Symmetric(n, coords), comm
}

// SynthesizeFeatures builds an n x f feature matrix where each node's
// features are a noisy copy of its community centroid (signal strength in
// [0,1]; 0 = pure noise). Community centroids are random unit-ish vectors.
// A node in community -1 (unlabeled) gets the noise alone; every row draws
// the same f random numbers, so the other rows do not depend on which
// nodes are unlabeled.
func SynthesizeFeatures(rng *rand.Rand, comm []int32, k, f int, signal float64) *tensor.Dense {
	centroids := tensor.NewDense(k, f)
	centroids.Randomize(rng, 1)
	none := make([]float32, f)
	out := tensor.NewDense(len(comm), f)
	for i, c := range comm {
		row := out.Row(i)
		cen := none
		if c >= 0 {
			cen = centroids.Row(int(c))
		}
		for j := range row {
			row[j] = float32(float32(signal)*cen[j]) + float32(float32(1-signal)*float32(rng.NormFloat64()*0.5))
		}
	}
	return out
}

// RandomSplit assigns nodes to train/val/test with the given fractions
// (remainder goes to test).
func RandomSplit(rng *rand.Rand, n int, trainFrac, valFrac float64) (train, val, test []bool) {
	train = make([]bool, n)
	val = make([]bool, n)
	test = make([]bool, n)
	for i := 0; i < n; i++ {
		r := rng.Float64()
		switch {
		case r < trainFrac:
			train[i] = true
		case r < trainFrac+valFrac:
			val[i] = true
		default:
			test[i] = true
		}
	}
	return train, val, test
}
