package saint

import (
	"math/rand"
	"testing"

	"gnnrdm/internal/core"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/hw"
)

func testProblem(t testing.TB, n, fin, classes int) *core.Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	adj, comm := graph.PlantedPartition(rng, n, int64(5*n), classes, 0.85)
	prob := &core.Problem{
		A:      adj, // raw adjacency: samplers need it; trainers normalize
		X:      graph.SynthesizeFeatures(rng, comm, classes, fin, 0.8),
		Labels: comm,
	}
	prob.TrainMask, _, _ = graph.RandomSplit(rng, n, 0.7, 0.1)
	return prob
}

func TestSamplersBasicInvariants(t *testing.T) {
	prob := testProblem(t, 200, 8, 4)
	for _, kind := range []SamplerKind{NodeSampler, EdgeSampler, RandomWalkSampler} {
		s := NewSampler(kind, prob.A, 50, 4)
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 10; trial++ {
			nodes := s.Sample(rng)
			if len(nodes) == 0 || len(nodes) > 50 {
				t.Fatalf("%v: bad sample size %d", kind, len(nodes))
			}
			for i := 1; i < len(nodes); i++ {
				if nodes[i-1] >= nodes[i] {
					t.Fatalf("%v: sample not sorted/unique", kind)
				}
			}
			for _, v := range nodes {
				if v < 0 || int(v) >= 200 {
					t.Fatalf("%v: vertex %d out of range", kind, v)
				}
			}
		}
	}
}

func TestNodeSamplerDegreeBias(t *testing.T) {
	// A star graph: the hub must be sampled far more often than leaves.
	rng := rand.New(rand.NewSource(2))
	adj := graph.RMAT(rng, 256, 2048, 0.7, 0.1, 0.1) // heavily skewed
	s := NewSampler(NodeSampler, adj, 32, 0)
	counts := make([]int, 256)
	for trial := 0; trial < 200; trial++ {
		for _, v := range s.Sample(rng) {
			counts[v]++
		}
	}
	deg := func(v int) int64 { return adj.RowPtr[v+1] - adj.RowPtr[v] }
	maxDegV, minDegV := 0, 0
	for v := 0; v < adj.Rows; v++ {
		if deg(v) > deg(maxDegV) {
			maxDegV = v
		}
		if deg(v) < deg(minDegV) {
			minDegV = v
		}
	}
	if counts[maxDegV] <= counts[minDegV] {
		t.Fatalf("degree bias missing: hub %d sampled %d, leaf %d sampled %d",
			maxDegV, counts[maxDegV], minDegV, counts[minDegV])
	}
}

func TestEstimateNormsCountsPlausible(t *testing.T) {
	prob := testProblem(t, 100, 8, 4)
	s := NewSampler(NodeSampler, prob.A, 40, 0)
	norms := EstimateNorms(s, 50, 3)
	if norms.Trials != 50 {
		t.Fatal("trials")
	}
	totalCnt := int32(0)
	for _, c := range norms.NodeCnt {
		if c < 0 || c > 50 {
			t.Fatalf("node count %d out of range", c)
		}
		totalCnt += c
	}
	// 50 trials x ~40 nodes each.
	if totalCnt < 1000 || totalCnt > 2500 {
		t.Fatalf("total node count %d implausible", totalCnt)
	}
}

func TestSubProblemStructure(t *testing.T) {
	prob := testProblem(t, 100, 8, 4)
	normA := prob.A // use raw for simplicity of value checks
	nodes := []int32{3, 17, 42, 99}
	sub := SubProblem(prob, normA, nodes, nil)
	if sub.N() != 4 || sub.X.Rows != 4 || len(sub.Labels) != 4 {
		t.Fatal("bad sub sizes")
	}
	for i, v := range nodes {
		if sub.Labels[i] != prob.Labels[v] {
			t.Fatal("labels not remapped")
		}
		if sub.X.Row(i)[2] != prob.X.Row(int(v))[2] {
			t.Fatal("features not remapped")
		}
		if sub.TrainMask[i] != prob.TrainMask[v] {
			t.Fatal("mask not remapped")
		}
	}
	if sub.LossWeights != nil {
		t.Fatal("no norms -> no loss weights")
	}
}

func TestSubProblemNormalizationSymmetric(t *testing.T) {
	prob := testProblem(t, 120, 8, 4)
	s := NewSampler(NodeSampler, prob.A, 60, 0)
	norms := EstimateNorms(s, 30, 4)
	rng := rand.New(rand.NewSource(5))
	nodes := s.Sample(rng)
	normA := prob.A
	sub := SubProblem(prob, normA, nodes, norms)
	// Scaled adjacency must remain symmetric (engine requirement).
	for i := 0; i < sub.N(); i++ {
		for e := sub.A.RowPtr[i]; e < sub.A.RowPtr[i+1]; e++ {
			j := int(sub.A.ColIdx[e])
			if sub.A.At(j, i) != sub.A.Val[e] {
				t.Fatalf("asymmetric scaled entry (%d,%d)", i, j)
			}
		}
	}
	// Loss weights positive.
	for _, w := range sub.LossWeights {
		if w <= 0 {
			t.Fatalf("non-positive loss weight %v", w)
		}
	}
}

func TestSAINTRDMLearns(t *testing.T) {
	prob := testProblem(t, 160, 16, 4)
	opts := Options{
		Dims: []int{16, 16, 4}, Seed: 7, Kind: NodeSampler,
		Budget: 64, NormTrials: 20, ConfigID: 10,
	}
	curve := TrainSAINTRDM(4, hw.A6000(), prob, nil, opts, 12)
	if len(curve.Points) != 12 {
		t.Fatalf("points: %d", len(curve.Points))
	}
	if curve.BestAcc() < 0.7 {
		t.Fatalf("SAINT-RDM best acc %v too low", curve.BestAcc())
	}
	first, last := curve.Points[0], curve.Final()
	if last.Time <= first.Time || last.Updates <= first.Updates {
		t.Fatal("curve must advance in time and updates")
	}
}

func TestSAINTDDPLearnsAndUpdatesFewerTimes(t *testing.T) {
	prob := testProblem(t, 160, 16, 4)
	opts := Options{
		Dims: []int{16, 16, 4}, Seed: 7, Kind: RandomWalkSampler,
		Budget: 64, WalkLength: 3, NormTrials: 20, StepsPerEpoch: 8,
	}
	ddp := TrainSAINTDDP(4, hw.A6000(), prob, nil, opts, 12)
	rdm := TrainSAINTRDM(4, hw.A6000(), prob, nil, opts, 12)
	if ddp.BestAcc() < 0.6 {
		t.Fatalf("DDP best acc %v too low", ddp.BestAcc())
	}
	// The paper's key structural difference (§V-C): with S subgraphs and
	// G devices, DDP performs S/G updates per epoch while SAINT-RDM
	// performs S.
	if ddp.Final().Updates*4 != rdm.Final().Updates {
		t.Fatalf("updates: DDP %d vs RDM %d (want 4x)", ddp.Final().Updates, rdm.Final().Updates)
	}
}

func TestFullBatchCurve(t *testing.T) {
	prob := testProblem(t, 160, 16, 4)
	opts := Options{Dims: []int{16, 16, 4}, Seed: 7, ConfigID: 10}
	curve := TrainFullBatchCurve(4, hw.A6000(), prob, nil, opts, 20)
	if len(curve.Points) != 20 {
		t.Fatalf("points: %d", len(curve.Points))
	}
	if curve.BestAcc() < 0.8 {
		t.Fatalf("full-batch best acc %v too low", curve.BestAcc())
	}
}

func TestSamplerValidation(t *testing.T) {
	prob := testProblem(t, 50, 8, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad budget")
		}
	}()
	NewSampler(NodeSampler, prob.A, 0, 0)
}

func TestKindStrings(t *testing.T) {
	if NodeSampler.String() != "node" || EdgeSampler.String() != "edge" ||
		RandomWalkSampler.String() != "rw" || SamplerKind(9).String() != "unknown" {
		t.Fatal("sampler kind strings")
	}
}
