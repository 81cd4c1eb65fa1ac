package sparse_test

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"gnnrdm/internal/graph"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
)

// BenchmarkSpMMInto runs the aggregation kernel on the matrices and widths
// the benchmark's workloads multiply (benchmark/README.md), one thread per
// -cpu value: go test -run '^$' -bench SpMMInto -cpu 1 ./internal/sparse
//
//   - Reddit/64 at P=4 under config 10: a 910-row panel of 3640 columns,
//     ≈368 entries a row, 32 features a device (uniform random columns);
//   - OGB-Arxiv/8 at P=8 under config 0: a 2646-row panel, ≈15 entries a
//     row, 16 hidden and 5 label features a device (uniform random
//     columns);
//   - train-redist's whole normalized R-MAT A (196 608 rows, ≈2 entries a
//     row) at the 1- and 2-float slices RDM leaves each of its 8 devices,
//     and at 8 floats;
//   - the whole normalized OGB-Arxiv/8 A at 8 and 40 floats, through the
//     8-float chunk.
func BenchmarkSpMMInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	panel := func(rows, cols, deg int) func() *sparse.CSR {
		return func() *sparse.CSR {
			coords := make([]sparse.Coord, 0, rows*deg)
			for i := 0; i < rows; i++ {
				for d := 0; d < deg; d++ {
					coords = append(coords, sparse.Coord{Row: int32(i), Col: int32(rng.Intn(cols)), Val: rng.Float32()})
				}
			}
			return sparse.FromCoords(rows, cols, coords)
		}
	}
	whole := func(r graph.Recipe) func() *sparse.CSR {
		return func() *sparse.CSR { return sparse.GCNNormalize(r.Build().Adj) }
	}
	// train-redist's recipe as benchmark/workloads.go spells it, at seed 1:
	// edit the two together.
	rmat := whole(graph.Recipe{Name: "rmat-wide", Kind: "rmat", Vertices: 196608, Edges: 98304,
		FeatureDim: 16, Labels: 8, Seed: 1})
	arxiv, err := graph.RecipeByName("OGB-Arxiv")
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []struct {
		name   string
		matrix func() *sparse.CSR
		fs     []int
	}{
		{"reddit_910x3640_deg368", panel(910, 3640, 368), []int{32}},
		{"arxiv_2646x21167_deg15", panel(2646, 21167, 15), []int{16, 5}},
		{"redist_rmat_A", rmat, []int{1, 2, 8}},
		{"arxiv8_A", whole(arxiv.Scaled(8)), []int{8, 40}},
	} {
		var m *sparse.CSR
		for _, f := range s.fs {
			b.Run(s.name+"_f"+strconv.Itoa(f), func(b *testing.B) {
				if m == nil {
					m = s.matrix()
				}
				in, out := tensor.NewDense(m.Cols, f), tensor.NewDense(m.Rows, f)
				in.Randomize(rng, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.SpMMInto(in, out)
				}
				sec := b.Elapsed().Seconds()
				b.ReportMetric(2*float64(m.NNZ()*int64(f))*float64(b.N)/sec/1e9, "GFLOP/s")
				b.ReportMetric(sec*1e9/float64(b.N)/float64(m.Rows), "ns/row")
			})
		}
	}
}

// built keeps the set-up benchmarks' results live.
var built *sparse.CSR

// redditEdges is an edge list the size of the Reddit/64 stand-in's (3640
// vertices, 1 794 513 generated edges, graph.Recipe.Scaled(64)), drawn
// uniformly, self loops and repeats included.
func redditEdges() (int, []sparse.Coord) {
	r, err := graph.RecipeByName("Reddit")
	if err != nil {
		panic(err)
	}
	r = r.Scaled(64)
	rng := rand.New(rand.NewSource(1))
	edges := make([]sparse.Coord, r.Edges)
	for k := range edges {
		edges[k] = sparse.Coord{Row: int32(rng.Intn(r.Vertices)), Col: int32(rng.Intn(r.Vertices)), Val: 1}
	}
	return r.Vertices, edges
}

// BenchmarkFromCoords builds a CSR from the Reddit/64-sized edge list
// (1.8 M coordinates), once sorted by row and column, as SAINT's
// SubMatrix passes its coordinates, and once in generation order, where
// every row needs its sort, as DGCL's permutation leaves them:
// go test -run '^$' -bench 'FromCoords|Symmetric|GCNNormalize' ./internal/sparse
func BenchmarkFromCoords(b *testing.B) {
	n, edges := redditEdges()
	sorted := slices.Clone(edges)
	slices.SortFunc(sorted, func(x, y sparse.Coord) int {
		return cmp.Or(cmp.Compare(x.Row, y.Row), cmp.Compare(x.Col, y.Col))
	})
	for _, s := range []struct {
		name   string
		coords []sparse.Coord
	}{{"sorted", sorted}, {"shuffled", edges}} {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				built = sparse.FromCoords(n, n, s.coords)
			}
		})
	}
}

// BenchmarkSymmetric builds the Reddit/64-sized adjacency from its edge
// list, as graph.Recipe.Build does.
func BenchmarkSymmetric(b *testing.B) {
	n, edges := redditEdges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built = sparse.Symmetric(n, edges)
	}
}

// BenchmarkGCNNormalize normalizes the Reddit/64-sized adjacency, as every
// training workload's set-up does.
func BenchmarkGCNNormalize(b *testing.B) {
	a := sparse.Symmetric(redditEdges())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built = sparse.GCNNormalize(a)
	}
}
