package gnnrdm

import (
	"math/rand"
	"testing"
)

// TestPublicAPIEndToEnd exercises the façade the way a downstream user
// would: build a problem, ask the model for the best ordering, train,
// evaluate, checkpoint.
func TestPublicAPIEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adj, labels := PlantedPartition(rng, 96, 480, 4, 0.8)
	prob := &Problem{
		A:      GCNNormalize(adj),
		X:      synthFeatures(rng, labels, 4, 16),
		Labels: labels,
	}
	net := Network{Dims: []int{16, 12, 4}, N: 96, NNZ: prob.A.NNZ(), P: 4, RA: 4}
	ids := ParetoConfigs(net)
	if len(ids) == 0 {
		t.Fatal("no pareto candidates")
	}
	res := Train(4, A6000(), prob, TrainOptions{
		Dims:    net.Dims,
		Config:  ConfigFromID(ids[0], 2),
		Memoize: true,
		LR:      0.02,
		Seed:    7,
	}, 25)
	if res.Epochs[len(res.Epochs)-1].Loss >= res.Epochs[0].Loss {
		t.Fatalf("public API training did not converge: %v -> %v",
			res.Epochs[0].Loss, res.Epochs[len(res.Epochs)-1].Loss)
	}
	if acc := res.Accuracy(prob.Labels, nil); acc < 0.7 {
		t.Fatalf("accuracy %v", acc)
	}
	if res.Epochs[0].CommBytes <= 0 {
		t.Fatal("no communication metered")
	}
	// Model utilities reachable and coherent.
	if ChooseRA(8, 1<<30, 1<<20, 1<<20) != 8 {
		t.Fatal("ChooseRA via facade")
	}
	if SpaceModel(net) <= 0 {
		t.Fatal("SpaceModel via facade")
	}
	if PredictEpochTime(net, ConfigFromID(ids[0], 2), A6000()) <= 0 {
		t.Fatal("PredictEpochTime via facade")
	}
	if len(Recipes()) != 8 {
		t.Fatal("Recipes via facade")
	}
}

func synthFeatures(rng *rand.Rand, labels []int32, k, f int) *Dense {
	// Tiny local feature synthesizer mirroring graph.SynthesizeFeatures
	// to keep the facade test self-contained.
	centroids := make([][]float32, k)
	for c := range centroids {
		centroids[c] = make([]float32, f)
		for j := range centroids[c] {
			centroids[c][j] = float32(rng.NormFloat64())
		}
	}
	x := &Dense{Rows: len(labels), Cols: f, Data: make([]float32, len(labels)*f)}
	for i, c := range labels {
		for j := 0; j < f; j++ {
			x.Data[i*f+j] = centroids[c][j] + float32(rng.NormFloat64())*0.2
		}
	}
	return x
}
