package core

import (
	"math"
	"math/rand"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
)

// testProblem builds a small learnable planted-partition problem with N
// divisible by 8 so volume accounting is exact.
func testProblem(t testing.TB, n, fin, classes int) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	adj, comm := graph.PlantedPartition(rng, n, int64(4*n), classes, 0.8)
	return &Problem{
		A:      sparse.GCNNormalize(adj),
		X:      graph.SynthesizeFeatures(rng, comm, classes, fin, 0.8),
		Labels: comm,
	}
}

func testOpts(dims []int, id int) Options {
	return Options{
		Dims:             dims,
		Config:           costmodel.ConfigFromID(id, len(dims)-1),
		Memoize:          true,
		ComputeInputGrad: true,
		LR:               0.01,
		Seed:             7,
	}
}

func TestAllConfigsMatchReference2Layer(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	dims := []int{12, 10, 6}
	ref := ReferenceTrain(prob, testOpts(dims, 0), 3)
	for id := 0; id < 16; id++ {
		for _, p := range []int{1, 2, 4} {
			res := Train(p, hw.A6000(), prob, testOpts(dims, id), 3)
			for ep := range ref.Losses {
				if math.Abs(res.Epochs[ep].Loss-ref.Losses[ep]) > 1e-4 {
					t.Fatalf("config %d P=%d epoch %d: loss %v want %v",
						id, p, ep, res.Epochs[ep].Loss, ref.Losses[ep])
				}
			}
			if d := tensor.MaxAbsDiff(res.Logits, ref.Logits); d > 1e-3 {
				t.Fatalf("config %d P=%d: logits diff %v", id, p, d)
			}
		}
	}
}

func TestAllConfigs3LayerSpotCheck(t *testing.T) {
	prob := testProblem(t, 32, 8, 4)
	dims := []int{8, 6, 6, 4}
	ref := ReferenceTrain(prob, testOpts(dims, 0), 2)
	for _, id := range []int{0, 21, 42, 63, 10, 37} {
		res := Train(4, hw.A6000(), prob, testOpts(dims, id), 2)
		if math.Abs(res.Epochs[len(res.Epochs)-1].Loss-ref.Losses[1]) > 1e-4 {
			t.Fatalf("3-layer config %d: loss %v want %v", id, res.Epochs[len(res.Epochs)-1].Loss, ref.Losses[1])
		}
	}
}

func TestGridReplicationRAMatchesReference(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	dims := []int{12, 10, 6}
	ref := ReferenceTrain(prob, testOpts(dims, 10), 3)
	for _, tc := range []struct{ p, ra int }{{4, 2}, {4, 1}, {8, 2}, {8, 4}} {
		for _, id := range []int{0, 5, 10, 15} {
			opts := testOpts(dims, id)
			opts.RA = tc.ra
			res := Train(tc.p, hw.A6000(), prob, opts, 3)
			if math.Abs(res.Epochs[len(res.Epochs)-1].Loss-ref.Losses[2]) > 1e-4 {
				t.Fatalf("P=%d RA=%d config %d: loss %v want %v",
					tc.p, tc.ra, id, res.Epochs[len(res.Epochs)-1].Loss, ref.Losses[2])
			}
		}
	}
}

func TestNoMemoizeStillCorrect(t *testing.T) {
	prob := testProblem(t, 32, 8, 4)
	dims := []int{8, 8, 4}
	ref := ReferenceTrain(prob, testOpts(dims, 0), 2)
	for _, id := range []int{0, 5, 10} {
		opts := testOpts(dims, id)
		opts.Memoize = false
		res := Train(4, hw.A6000(), prob, opts, 2)
		if math.Abs(res.Epochs[len(res.Epochs)-1].Loss-ref.Losses[1]) > 1e-4 {
			t.Fatalf("no-memo config %d: loss %v want %v", id, res.Epochs[len(res.Epochs)-1].Loss, ref.Losses[1])
		}
	}
}

func TestTrainingConverges(t *testing.T) {
	prob := testProblem(t, 64, 16, 4)
	res := Train(4, hw.A6000(), prob, testOpts([]int{16, 16, 4}, 10), 30)
	first, last := res.Epochs[0].Loss, res.Epochs[len(res.Epochs)-1].Loss
	if last > first*0.7 {
		t.Fatalf("loss did not converge: %v -> %v", first, last)
	}
	acc := res.Accuracy(prob.Labels, nil)
	if acc < 0.8 {
		t.Fatalf("train accuracy %v too low for planted partitions", acc)
	}
}

func TestTrainMaskRespected(t *testing.T) {
	prob := testProblem(t, 48, 12, 4)
	prob.TrainMask = make([]bool, 48)
	for i := 0; i < 24; i++ {
		prob.TrainMask[i] = true
	}
	ref := ReferenceTrain(prob, testOpts([]int{12, 8, 4}, 0), 3)
	res := Train(4, hw.A6000(), prob, testOpts([]int{12, 8, 4}, 0), 3)
	if math.Abs(res.Epochs[len(res.Epochs)-1].Loss-ref.Losses[2]) > 1e-4 {
		t.Fatalf("masked loss %v want %v", res.Epochs[len(res.Epochs)-1].Loss, ref.Losses[2])
	}
}

// TestVolumeMatchesCostModel verifies that the engine's metered
// redistribution + broadcast volume equals the analytic model exactly for
// configurations that need no mask redistribution (0, 5, 10), across P
// and R_A.
func TestVolumeMatchesCostModel(t *testing.T) {
	prob := testProblem(t, 64, 16, 8)
	dims := []int{16, 12, 8}
	for _, tc := range []struct{ p, ra int }{{2, 2}, {4, 4}, {8, 8}, {4, 2}, {8, 4}, {8, 2}, {8, 1}} {
		for _, id := range []int{0, 5, 10} {
			opts := testOpts(dims, id)
			opts.RA = tc.ra
			res := Train(tc.p, hw.A6000(), prob, opts, 1)
			net := costmodel.Network{Dims: dims, N: 64, NNZ: prob.A.NNZ(), P: tc.p, RA: tc.ra}
			want := costmodel.Evaluate(net, costmodel.ConfigFromID(id, 2))
			// Exclude the O(f²) all-reduces the model ignores: compare
			// only all-to-all + allgather volume. Train reports total
			// bytes; recompute the comparable portion via a fresh run.
			gotBytes := measureRedistVolume(tc.p, tc.ra, prob, opts)
			if gotBytes != want.CommVolumeBytes() {
				t.Fatalf("P=%d RA=%d config %d: volume %d want %d",
					tc.p, tc.ra, id, gotBytes, want.CommVolumeBytes())
			}
			_ = res
		}
	}
}

func measureRedistVolume(p, ra int, prob *Problem, opts Options) int64 {
	fabric := trainOnFabric(p, prob, opts, 1)
	return fabric.Meters().Volume[hw.OpAllToAll] + fabric.Meters().Volume[hw.OpAllGather]
}

// trainOnFabric runs epochs on a fresh fabric and returns it for metric
// inspection.
func trainOnFabric(p int, prob *Problem, opts Options, epochs int) *comm.Fabric {
	fab := comm.NewFabric(p, hw.A6000())
	fab.Run(func(d *comm.Device) {
		eng := NewEngine(d, prob, opts)
		for ep := 0; ep < epochs; ep++ {
			eng.Epoch()
		}
	})
	return fab
}

func TestVolumeConstantInP(t *testing.T) {
	// The headline scalability property (§I): RDM's total volume is
	// independent of P, while the RA=1 (CAGNET-style) volume grows.
	prob := testProblem(t, 64, 16, 8)
	dims := []int{16, 12, 8}
	vol := func(p, ra int) int64 {
		opts := testOpts(dims, 10)
		opts.RA = ra
		return measureRedistVolume(p, ra, prob, opts)
	}
	v2, v4, v8 := vol(2, 2), vol(4, 4), vol(8, 8)
	if float64(v8) > 1.8*float64(v2) {
		t.Fatalf("RDM volume must be ~constant in P: %d %d %d", v2, v4, v8)
	}
	c2, c8 := vol(2, 1), vol(8, 1)
	if float64(c8) < 3*float64(c2) {
		t.Fatalf("RA=1 volume must grow with P: %d -> %d", c2, c8)
	}
	if c8 < 4*v8 {
		t.Fatalf("RA=1 must move far more than RDM at P=8: %d vs %d", c8, v8)
	}
}

func TestDeterministicTraining(t *testing.T) {
	prob := testProblem(t, 32, 8, 4)
	opts := testOpts([]int{8, 8, 4}, 10)
	a := Train(4, hw.A6000(), prob, opts, 3)
	b := Train(4, hw.A6000(), prob, opts, 3)
	for ep := range a.Epochs {
		if a.Epochs[ep] != b.Epochs[ep] {
			t.Fatalf("epoch %d stats differ: %+v vs %+v", ep, a.Epochs[ep], b.Epochs[ep])
		}
	}
	if tensor.MaxAbsDiff(a.Logits, b.Logits) != 0 {
		t.Fatal("logits must be bit-identical across runs")
	}
}

func TestAutoTunePicksParetoCandidate(t *testing.T) {
	prob := testProblem(t, 64, 128, 8)
	dims := []int{128, 16, 8}
	best, times := AutoTune(4, hw.A6000(), prob, testOpts(dims, 0), 2)
	net := costmodel.Network{Dims: dims, N: 64, NNZ: prob.A.NNZ(), P: 4, RA: 4}
	candidates := costmodel.ParetoConfigs(net)
	found := false
	for _, id := range candidates {
		if id == best {
			found = true
		}
		if _, ok := times[id]; !ok {
			t.Fatalf("candidate %d not probed", id)
		}
	}
	if !found {
		t.Fatalf("best %d not among pareto candidates %v", best, candidates)
	}
}

func TestResultHelpers(t *testing.T) {
	prob := testProblem(t, 32, 8, 4)
	res := Train(2, hw.A6000(), prob, testOpts([]int{8, 8, 4}, 0), 3)
	if res.MeanEpochTime() <= 0 || res.EpochsPerSecond() <= 0 || res.MeanCommTime() < 0 {
		t.Fatal("nonsensical timing stats")
	}
	if res.Epochs[0].CommBytes <= 0 {
		t.Fatal("distributed run must move bytes")
	}
	if res.Epochs[1].CommBytes <= 0 || res.Epochs[1].CommBytes > res.Epochs[0].CommBytes*2 {
		t.Fatalf("per-epoch volume accounting broken: %v", res.Epochs)
	}
}

func TestOptionsValidation(t *testing.T) {
	prob := testProblem(t, 32, 8, 4)
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("bad dims", func() {
		Train(2, hw.A6000(), prob, testOpts([]int{9, 4}, 0), 1)
	})
	expectPanic("bad RA", func() {
		o := testOpts([]int{8, 4}, 0)
		o.RA = 3
		Train(4, hw.A6000(), prob, o, 1)
	})
	expectPanic("config mismatch", func() {
		o := testOpts([]int{8, 6, 4}, 0)
		o.Config = costmodel.ConfigFromID(0, 1)
		Train(2, hw.A6000(), prob, o, 1)
	})
}

func TestSingleDeviceNoComm(t *testing.T) {
	prob := testProblem(t, 32, 8, 4)
	fab := comm.NewFabric(1, hw.A6000())
	fab.Run(func(d *comm.Device) {
		NewEngine(d, prob, testOpts([]int{8, 6, 4}, 10)).Epoch()
	})
	if fab.TotalVolume() != 0 {
		t.Fatalf("P=1 must not communicate, moved %d bytes", fab.TotalVolume())
	}
}
