package core

import (
	"math"
	"math/rand"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/nn"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
)

// TestUnevenVertexCount checks correctness when N is not divisible by P
// (unbalanced tiles everywhere).
func TestUnevenVertexCount(t *testing.T) {
	prob := testProblem(t, 53, 12, 6) // 53 is prime
	dims := []int{12, 10, 6}
	ref := ReferenceTrain(prob, testOpts(dims, 0), 3)
	for _, id := range []int{0, 5, 10, 15} {
		for _, p := range []int{3, 4, 7} {
			res := Train(p, hw.A6000(), prob, testOpts(dims, id), 3)
			if math.Abs(res.Epochs[len(res.Epochs)-1].Loss-ref.Losses[2]) > 1e-4 {
				t.Fatalf("N=53 config %d P=%d: loss %v want %v", id, p, res.Epochs[len(res.Epochs)-1].Loss, ref.Losses[2])
			}
			if d := tensor.MaxAbsDiff(res.Logits, ref.Logits); d > 1e-3 {
				t.Fatalf("N=53 config %d P=%d: logits diff %v", id, p, d)
			}
		}
	}
}

// TestUnevenFeatureWidths checks vertical slicing when widths are not
// divisible by P.
func TestUnevenFeatureWidths(t *testing.T) {
	prob := testProblem(t, 40, 13, 5)
	dims := []int{13, 11, 5}
	ref := ReferenceTrain(prob, testOpts(dims, 10), 2)
	for _, id := range []int{2, 10, 12} {
		res := Train(4, hw.A6000(), prob, testOpts(dims, id), 2)
		if math.Abs(res.Epochs[len(res.Epochs)-1].Loss-ref.Losses[1]) > 1e-4 {
			t.Fatalf("uneven widths config %d: loss %v want %v", id, res.Epochs[len(res.Epochs)-1].Loss, ref.Losses[1])
		}
	}
}

// TestLossWeightsDistributed verifies weighted-loss training matches the
// reference (GraphSAINT's λ_v path).
func TestLossWeightsDistributed(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	rng := rand.New(rand.NewSource(9))
	prob.LossWeights = make([]float32, 48)
	for i := range prob.LossWeights {
		prob.LossWeights[i] = 0.5 + rng.Float32()
	}
	dims := []int{12, 10, 6}
	ref := ReferenceTrain(prob, testOpts(dims, 0), 3)
	for _, p := range []int{2, 4} {
		res := Train(p, hw.A6000(), prob, testOpts(dims, 10), 3)
		if math.Abs(res.Epochs[len(res.Epochs)-1].Loss-ref.Losses[2]) > 1e-4 {
			t.Fatalf("weighted loss P=%d: %v want %v", p, res.Epochs[len(res.Epochs)-1].Loss, ref.Losses[2])
		}
	}
}

func TestEvalAccuracyDistributed(t *testing.T) {
	prob := testProblem(t, 64, 16, 4)
	mask := make([]bool, 64)
	for i := 0; i < 32; i++ {
		mask[i] = true
	}
	opts := testOpts([]int{16, 16, 4}, 10)
	opts.EvalMask = mask
	res := Train(4, hw.A6000(), prob, opts, 25)
	// Distributed eval accuracy must equal the accuracy computed from the
	// assembled logits.
	want := res.Accuracy(prob.Labels, mask)
	got := res.Epochs[len(res.Epochs)-1].EvalAcc
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("EvalAcc %v != assembled accuracy %v", got, want)
	}
	if got < 0.8 {
		t.Fatalf("eval accuracy %v too low", got)
	}
}

func TestForwardInferenceOnly(t *testing.T) {
	prob := testProblem(t, 32, 8, 4)
	fab := comm.NewFabric(2, hw.A6000())
	tiles := make([]*tensor.Dense, 2)
	fab.Run(func(d *comm.Device) {
		m := NewInferenceEngine(d, prob, testOpts([]int{8, 6, 4}, 5), nil).RunInference(0)
		tiles[d.Rank] = m.Local
	})
	ref := ReferenceTrain(prob, testOpts([]int{8, 6, 4}, 5), 1)
	got := tensor.ConcatRows(tiles[0], tiles[1])
	// Reference logits are AFTER 1 epoch's forward (pre-update), same as
	// a pure forward with initial weights.
	if d := tensor.MaxAbsDiff(got, ref.Logits); d > 1e-3 {
		t.Fatalf("inference logits diff %v", d)
	}
}

func TestSetProblemSwapsGraphKeepsOptimizer(t *testing.T) {
	probA := testProblem(t, 32, 8, 4)
	rng := rand.New(rand.NewSource(77))
	adjB, commB := graph.PlantedPartition(rng, 24, 96, 4, 0.8)
	probB := &Problem{
		A:      sparse.GCNNormalize(adjB),
		X:      graph.SynthesizeFeatures(rng, commB, 4, 8, 0.8),
		Labels: commB,
	}
	fab := comm.NewFabric(2, hw.A6000())
	fab.Run(func(d *comm.Device) {
		eng := NewEngine(d, probA, testOpts([]int{8, 6, 4}, 0))
		eng.Epoch()
		w0 := eng.Weights()[0].Clone()
		eng.SetProblem(probB) // different vertex count
		eng.Epoch()
		if tensor.MaxAbsDiff(w0, eng.Weights()[0]) == 0 {
			t.Error("weights should keep updating after SetProblem")
		}
	})
	// Feature-width mismatch must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("expected width-mismatch panic")
		}
	}()
	eng := NewEngine(fab.Device(0), probA, testOpts([]int{8, 6, 4}, 0))
	bad := &Problem{A: probB.A, X: tensor.NewDense(24, 9), Labels: probB.Labels}
	eng.SetProblem(bad)
}

// TestMaskRedistributionConfigs exercises configurations whose backward
// Hadamard needs the packed-mask redistribution (layouts of H^{l-1} and
// the incoming gradient conflict) and confirms correctness.
func TestMaskRedistributionConfigs(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	dims := []int{12, 10, 6}
	ref := ReferenceTrain(prob, testOpts(dims, 0), 3)
	// Configs 6 (fwd D,S bwd S,D) and 2 with layer-1 D-first create
	// vertical-only H^1 against horizontal gradients.
	for _, id := range []int{2, 6, 14} {
		res := Train(4, hw.A6000(), prob, testOpts(dims, id), 3)
		if math.Abs(res.Epochs[len(res.Epochs)-1].Loss-ref.Losses[2]) > 1e-4 {
			t.Fatalf("mask-redist config %d: loss %v want %v", id, res.Epochs[len(res.Epochs)-1].Loss, ref.Losses[2])
		}
	}
}

// TestNoMemoVolumeMatchesModel checks the Table III "N.M." accounting:
// without memoization, configurations relying on the forward
// intermediate pay the modelled extra volume.
func TestNoMemoVolumeMatchesModel(t *testing.T) {
	prob := testProblem(t, 64, 16, 8)
	dims := []int{16, 12, 8}
	opts := testOpts(dims, 10)
	opts.Memoize = false
	got := measureRedistVolume(8, 8, prob, opts)
	net := costmodel.Network{Dims: dims, N: 64, NNZ: prob.A.NNZ(), P: 8, RA: 8, NoMemo: true}
	want := costmodel.Evaluate(net, costmodel.ConfigFromID(10, 2)).CommVolumeBytes()
	// The paper's layer-local model charges 2·min(f1,f2) for the
	// recomputed weight-gradient SpMM but assumes H^{l-1} is available
	// vertex-sliced; in config 10 without memoization it is not, so the
	// engine pays one extra f_{l-1} redistribution. Bound: model <= got
	// <= model + one f1 redistribution.
	slack := int64(7.0 / 8.0 * 64 * float64(dims[0]) * 4)
	if got < want || got > want+slack {
		t.Fatalf("no-memo volume %d outside [%d, %d]", got, want, want+slack)
	}
	// And it must exceed the memoized volume.
	optsM := testOpts(dims, 10)
	if gotM := measureRedistVolume(8, 8, prob, optsM); got <= gotM {
		t.Fatalf("no-memo %d should exceed memoized %d", got, gotM)
	}
}

// TestInputGradOptional verifies skipping G^0 reduces communication and
// keeps training identical (weights never depend on G^0).
func TestInputGradOptional(t *testing.T) {
	// Config 5's backward layer 1 is GEMM-first: skipping G^0 saves its
	// input redistribution and SpMM (an SpMM-first backward layer 1
	// computes A·G^1 for the weight gradient regardless, so only
	// GEMM-first layouts see a volume reduction).
	prob := testProblem(t, 64, 16, 8)
	dims := []int{16, 12, 8}
	with := testOpts(dims, 5)
	without := testOpts(dims, 5)
	without.ComputeInputGrad = false
	a := Train(4, hw.A6000(), prob, with, 2)
	b := Train(4, hw.A6000(), prob, without, 2)
	if math.Abs(a.Epochs[len(a.Epochs)-1].Loss-b.Epochs[len(b.Epochs)-1].Loss) > 1e-7 {
		t.Fatalf("input grad must not affect training: %v vs %v", a.Epochs[len(a.Epochs)-1].Loss, b.Epochs[len(b.Epochs)-1].Loss)
	}
	va := measureRedistVolume(4, 4, prob, with)
	vb := measureRedistVolume(4, 4, prob, without)
	if vb >= va {
		t.Fatalf("skipping G^0 should reduce volume: %d vs %d", vb, va)
	}
}

func TestThreeLayerAllConfigsConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("64-config sweep")
	}
	prob := testProblem(t, 24, 6, 3)
	dims := []int{6, 5, 4, 3}
	ref := ReferenceTrain(prob, testOpts(dims, 0), 2)
	for id := 0; id < 64; id++ {
		res := Train(2, hw.A6000(), prob, testOpts(dims, id), 2)
		if math.Abs(res.Epochs[len(res.Epochs)-1].Loss-ref.Losses[1]) > 1e-4 {
			t.Fatalf("3-layer config %d: loss %v want %v", id, res.Epochs[len(res.Epochs)-1].Loss, ref.Losses[1])
		}
	}
}

// TestAsymmetricOperator trains with a random-walk-normalized directed
// operator (Aᵀ != A): forward aggregation uses Aᵀ, backward uses A, and
// the distributed result must still match the reference.
func TestAsymmetricOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Directed ER graph, row-normalized: D^-1 (A+I).
	n := 48
	var coords []sparse.Coord
	for i := 0; i < n; i++ {
		coords = append(coords, sparse.Coord{Row: int32(i), Col: int32(i), Val: 1})
		for k := 0; k < 4; k++ {
			coords = append(coords, sparse.Coord{Row: int32(i), Col: int32(rng.Intn(n)), Val: 1})
		}
	}
	a := sparse.FromCoords(n, n, coords)
	for i := 0; i < n; i++ {
		deg := float32(a.RowPtr[i+1] - a.RowPtr[i])
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			a.Val[p] = 1 / deg
		}
	}
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i % 4)
	}
	x := tensor.NewDense(n, 8)
	x.Randomize(rng, 1)
	prob := &Problem{A: a, ATranspose: a.Transpose(), X: x, Labels: labels}

	dims := []int{8, 6, 4}
	ref := ReferenceTrain(prob, testOpts(dims, 0), 3)
	for _, id := range []int{0, 5, 10, 15} {
		for _, p := range []int{2, 4} {
			res := Train(p, hw.A6000(), prob, testOpts(dims, id), 3)
			if math.Abs(res.Epochs[len(res.Epochs)-1].Loss-ref.Losses[2]) > 1e-4 {
				t.Fatalf("asymmetric config %d P=%d: loss %v want %v",
					id, p, res.Epochs[len(res.Epochs)-1].Loss, ref.Losses[2])
			}
		}
	}
	// Sanity: the operator really is asymmetric, and using A for both
	// passes would give a different answer.
	sym := &Problem{A: a, X: x, Labels: labels}
	refSym := ReferenceTrain(sym, testOpts(dims, 0), 3)
	if math.Abs(refSym.Losses[2]-ref.Losses[2]) < 1e-9 {
		t.Fatal("test operator should actually be asymmetric")
	}
}

// TestSAGELayersMatchReference checks the two-weight GraphSAGE form
// (Z = AᵀHW_n + HW_s) across orderings and device counts.
func TestSAGELayersMatchReference(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	dims := []int{12, 10, 6}
	mk := func(id int) Options {
		o := testOpts(dims, id)
		o.SAGE = true
		return o
	}
	ref := ReferenceTrain(prob, mk(0), 3)
	if len(ref.Weights) != 4 {
		t.Fatalf("SAGE should have 2 weights per layer, got %d", len(ref.Weights))
	}
	for _, id := range []int{0, 5, 10, 15} {
		for _, p := range []int{1, 2, 4} {
			res := Train(p, hw.A6000(), prob, mk(id), 3)
			if math.Abs(res.Epochs[len(res.Epochs)-1].Loss-ref.Losses[2]) > 1e-4 {
				t.Fatalf("SAGE config %d P=%d: loss %v want %v", id, p, res.Epochs[len(res.Epochs)-1].Loss, ref.Losses[2])
			}
			if d := tensor.MaxAbsDiff(res.Logits, ref.Logits); d > 1e-3 {
				t.Fatalf("SAGE config %d P=%d: logits diff %v", id, p, d)
			}
		}
	}
}

// TestSAGEDiffersFromGCN guards against the self term being a no-op.
func TestSAGEDiffersFromGCN(t *testing.T) {
	prob := testProblem(t, 32, 8, 4)
	dims := []int{8, 6, 4}
	gcn := ReferenceTrain(prob, testOpts(dims, 0), 2)
	sage := testOpts(dims, 0)
	sage.SAGE = true
	s := ReferenceTrain(prob, sage, 2)
	if math.Abs(gcn.Losses[1]-s.Losses[1]) < 1e-9 {
		t.Fatal("SAGE must differ from plain GCN")
	}
}

// TestSAGEWithRowNormalizedOperator: the GraphSAGE-GCN "mean" aggregator
// = row-normalized asymmetric operator, single weight.
func TestSAGEWithRowNormalizedOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	adj, labels := graph.PlantedPartition(rng, 40, 200, 4, 0.8)
	rw := sparse.RowNormalize(adj)
	prob := &Problem{
		A:          rw,
		ATranspose: rw.Transpose(),
		X:          graph.SynthesizeFeatures(rng, labels, 4, 8, 0.8),
		Labels:     labels,
	}
	dims := []int{8, 6, 4}
	ref := ReferenceTrain(prob, testOpts(dims, 0), 3)
	res := Train(4, hw.A6000(), prob, testOpts(dims, 10), 3)
	if math.Abs(res.Epochs[len(res.Epochs)-1].Loss-ref.Losses[2]) > 1e-4 {
		t.Fatalf("row-normalized loss %v want %v", res.Epochs[len(res.Epochs)-1].Loss, ref.Losses[2])
	}
}

// TestReferenceGradientsNumeric verifies the hand-derived GCN backward
// pass against central differences on the total loss, for both GCN and
// SAGE forms. This anchors every distributed equivalence test to actual
// calculus, not just self-consistency.
func TestReferenceGradientsNumeric(t *testing.T) {
	for _, sage := range []bool{false, true} {
		prob := testProblem(t, 20, 5, 3)
		dims := []int{5, 4, 3}
		opts := testOpts(dims, 0)
		opts.SAGE = sage

		// Build weights identically to ReferenceTrain and compute
		// analytic gradients via one manual pass.
		lossAt := func(weights []*tensor.Dense) float64 {
			h := prob.X
			L := len(dims) - 1
			wIdx := func(l int) *tensor.Dense {
				if sage {
					return weights[2*(l-1)]
				}
				return weights[l-1]
			}
			for l := 1; l <= L; l++ {
				z := tensor.MatMul(prob.A.SpMM(h), wIdx(l))
				if sage {
					z.Add(tensor.MatMul(h, weights[2*(l-1)+1]))
				}
				if l < L {
					z.ReLU()
				}
				h = z
			}
			loss, _, _ := lossOf(h, prob)
			return loss
		}

		// Reference's first-epoch gradients: rebuild via a 1-epoch run
		// with a huge LR? Instead, recompute directly using the same code
		// path: run ReferenceTrain for 1 epoch with LR=0 is impossible
		// (Adam normalizes), so reimplement the backward from its parts.
		rng := rand.New(rand.NewSource(opts.Seed))
		var weights []*tensor.Dense
		L := 2
		for l := 1; l <= L; l++ {
			w := tensor.NewDense(dims[l-1], dims[l])
			w.GlorotInit(rng)
			weights = append(weights, w)
			if sage {
				ws := tensor.NewDense(dims[l-1], dims[l])
				ws.GlorotInit(rng)
				weights = append(weights, ws)
			}
		}
		grads := referenceGradsForTest(prob, weights, dims, sage)

		const h = 1e-2
		for wi, w := range weights {
			for _, idx := range []int{0, len(w.Data) / 2, len(w.Data) - 1} {
				orig := w.Data[idx]
				w.Data[idx] = orig + h
				lp := lossAt(weights)
				w.Data[idx] = orig - h
				lm := lossAt(weights)
				w.Data[idx] = orig
				numeric := (lp - lm) / (2 * h)
				analytic := float64(grads[wi].Data[idx])
				if math.Abs(numeric-analytic) > 5e-3*(1+math.Abs(numeric)) {
					t.Fatalf("sage=%v w%d[%d]: numeric %v analytic %v", sage, wi, idx, numeric, analytic)
				}
			}
		}
	}
}

func lossOf(logits *tensor.Dense, prob *Problem) (float64, *tensor.Dense, float64) {
	s, g, w := nnWeightedSum(logits, prob)
	if w > 0 {
		g.Scale(float32(1 / w))
		return s / w, g, w
	}
	return 0, g, 0
}

func nnWeightedSum(logits *tensor.Dense, prob *Problem) (float64, *tensor.Dense, float64) {
	return nn.WeightedSoftmaxCrossEntropySum(logits, prob.Labels, prob.TrainMask, prob.LossWeights)
}

// referenceGradsForTest mirrors ReferenceTrain's backward pass without
// the optimizer step.
func referenceGradsForTest(prob *Problem, weights []*tensor.Dense, dims []int, sage bool) []*tensor.Dense {
	L := len(dims) - 1
	wN := func(l int) *tensor.Dense {
		if sage {
			return weights[2*(l-1)]
		}
		return weights[l-1]
	}
	hs := make([]*tensor.Dense, L+1)
	hs[0] = prob.X
	for l := 1; l <= L; l++ {
		z := tensor.MatMul(prob.A.SpMM(hs[l-1]), wN(l))
		if sage {
			z.Add(tensor.MatMul(hs[l-1], weights[2*(l-1)+1]))
		}
		if l < L {
			z.ReLU()
		}
		hs[l] = z
	}
	_, grad, _ := lossOf(hs[L], prob)
	grads := make([]*tensor.Dense, len(weights))
	g := grad
	for l := L; l >= 1; l-- {
		tmat := prob.A.SpMM(g)
		if sage {
			grads[2*(l-1)] = tensor.MatMulTA(hs[l-1], tmat)
			grads[2*(l-1)+1] = tensor.MatMulTA(hs[l-1], g)
		} else {
			grads[l-1] = tensor.MatMulTA(hs[l-1], tmat)
		}
		if l > 1 {
			next := tensor.MatMulTB(tmat, wN(l))
			if sage {
				next.Add(tensor.MatMulTB(g, weights[2*(l-1)+1]))
			}
			g = next
			for i, v := range hs[l-1].Data {
				if v <= 0 {
					g.Data[i] = 0
				}
			}
		}
	}
	return grads
}
