package main

import (
	"time"

	"gnnrdm/internal/graph"
	"gnnrdm/internal/hw"
)

// model is the simulated device every workload runs on. One instance per
// process: plan.PriceCache binds to the pointer.
var model = hw.A6000()

// opResult is what one op reports: its host wall time, the simulated time
// and exact bytes the library attributed to it, and whether any of its own
// output checks failed.
type opResult struct {
	wall   time.Duration
	simMs  float64
	bytes  int64
	failed bool
}

// instance is a workload after set-up: inputs built, layers constructed,
// warm-up ops done. The harness is its only caller and issues the next op
// when the previous one returns (a closed loop with one client).
type instance interface {
	// op runs op number i. With sp non-nil it records a span around each
	// call it makes into a layer.
	op(i int, sp *spans) opResult
	// verify runs the checks that need a reference computation, outside
	// set-up and op timing, and returns the numerics fingerprint.
	verify() (attempted, failed int, fingerprint string)
	// layers fills out with the per-layer metrics: from sp, which holds
	// the set-up spans and those of the traced ops, and from replaying
	// the op's calls shape by shape. opWallMs is the traced ops' median.
	layers(sp *spans, opWallMs float64, out map[string]float64) (attempted, failed int)
	close()
}

// workload names one set of inputs. Exactly one of train, sweep, serve is
// set.
type workload struct {
	name  string
	train *trainSpec
	sweep *sweepSpec
	serve *serveSpec
}

// setup builds the workload's inputs from the seed and brings it to the
// point where ops can be measured. smoke shrinks it to test size.
func (w *workload) setup(seed int64, smoke bool, sp *spans) instance {
	switch {
	case w.train != nil:
		return setupTrain(w.train.sized(smoke), seed, sp)
	case w.sweep != nil:
		return setupSweep(w.sweep.sized(smoke), seed, sp)
	default:
		return setupServe(w.serve.sized(smoke), seed, sp)
	}
}

func recipe(name string, scale int) graph.Recipe {
	r, err := graph.RecipeByName(name)
	if err != nil {
		panic(err)
	}
	return r.Scaled(scale)
}

// The six workloads. Why each was chosen, and the CPU-profile shares
// measured while sizing them, are in README.md and BENCHMARK.json.
var workloads = []*workload{
	{name: "train-spmm", train: &trainSpec{
		recipe: recipe("Reddit", 64), dims: []int{602, 128, 41}, p: 4, config: 10,
	}},
	{name: "train-gemm", train: &trainSpec{
		recipe: recipe("OGB-Arxiv", 8), dims: []int{128, 128, 40}, p: 8, config: 0,
	}},
	{name: "train-redist", train: &trainSpec{
		recipe: graph.Recipe{Name: "rmat-wide", Kind: "rmat", Vertices: 196608, Edges: 98304, FeatureDim: 16, Labels: 8},
		dims:   []int{16, 16, 8}, p: 8, config: 15,
	}},
	{name: "sweep-hier", sweep: &sweepSpec{p: 1024, topo: "128x8:nvlink,ib", n: 1 << 18}},
	{name: "sweep-flat", sweep: &sweepSpec{p: 1024, n: 1 << 18}},
	{name: "serve-zipf", serve: &serveSpec{
		recipe: recipe("OGB-Arxiv", 8), dims: []int{128, 128, 40}, p: 4, config: 0,
		maxBatch: 8, deadline: 2e-3, cacheCap: 2048,
		queries: 1 << 19, users: 4e6, skew: 1.1, rate: 5000,
	}},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
