package nn

import (
	"math"
	"math/rand"
	"testing"

	"gnnrdm/internal/tensor"
)

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - target||^2 with gradient 2(w - target).
	target := tensor.FromRowMajor(1, 3, []float32{1, -2, 3})
	w := tensor.NewDense(1, 3)
	opt := NewAdam(0.05, []*tensor.Dense{w})
	for i := 0; i < 2000; i++ {
		g := w.Clone()
		for i, v := range target.Data {
			g.Data[i] = 2 * (g.Data[i] - v)
		}
		opt.Step([]*tensor.Dense{w}, []*tensor.Dense{g})
	}
	if tensor.MaxAbsDiff(w, target) > 1e-2 {
		t.Fatalf("Adam failed to converge: %v", w.Data)
	}
	if opt.step != 2000 {
		t.Fatalf("step count %d", opt.step)
	}
}

func TestAdamBiasCorrectionFirstStep(t *testing.T) {
	// After one step with gradient g, the update magnitude is ~lr
	// regardless of g's scale (the signature Adam property).
	for _, scale := range []float32{1e-3, 1, 1e3} {
		w := tensor.NewDense(1, 1)
		opt := NewAdam(0.1, []*tensor.Dense{w})
		g := tensor.FromRowMajor(1, 1, []float32{scale})
		opt.Step([]*tensor.Dense{w}, []*tensor.Dense{g})
		if math.Abs(float64(w.Data[0])+0.1) > 1e-3 {
			t.Fatalf("scale %v: first step %v want ~-0.1", scale, w.Data[0])
		}
	}
}

func TestAdamParamCountMismatchPanics(t *testing.T) {
	w := tensor.NewDense(1, 1)
	opt := NewAdam(0.1, []*tensor.Dense{w})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	opt.Step([]*tensor.Dense{w, w}, []*tensor.Dense{w, w})
}

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	// Zero logits over k classes: loss = ln(k).
	logits := tensor.NewDense(4, 5)
	labels := []int32{0, 1, 2, 3}
	loss, grad, count := SoftmaxCrossEntropy(logits, labels, nil)
	if count != 4 {
		t.Fatalf("count=%d", count)
	}
	if math.Abs(loss-math.Log(5)) > 1e-6 {
		t.Fatalf("loss=%v want ln(5)=%v", loss, math.Log(5))
	}
	// Gradient rows sum to zero.
	for i := 0; i < 4; i++ {
		var s float64
		for _, v := range grad.Row(i) {
			s += float64(v)
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("row %d grad sum %v", i, s)
		}
	}
}

func TestSoftmaxCrossEntropyGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := tensor.NewDense(3, 4)
	logits.Randomize(rng, 2)
	labels := []int32{2, 0, 3}
	_, grad, _ := SoftmaxCrossEntropy(logits, labels, nil)
	// Central-difference check on every coordinate.
	const h = 1e-3
	for i := 0; i < logits.Rows; i++ {
		for j := 0; j < logits.Cols; j++ {
			orig := logits.Row(i)[j]
			logits.Set(i, j, orig+h)
			lp, _, _ := SoftmaxCrossEntropy(logits, labels, nil)
			logits.Set(i, j, orig-h)
			lm, _, _ := SoftmaxCrossEntropy(logits, labels, nil)
			logits.Set(i, j, orig)
			numeric := (lp - lm) / (2 * h)
			if math.Abs(numeric-float64(grad.Row(i)[j])) > 1e-3 {
				t.Fatalf("grad(%d,%d): analytic %v numeric %v", i, j, grad.Row(i)[j], numeric)
			}
		}
	}
}

func TestSoftmaxCrossEntropyMask(t *testing.T) {
	logits := tensor.NewDense(4, 3)
	logits.Set(0, 0, 10) // row 0 confidently class 0
	labels := []int32{1, 0, 0, 0}
	mask := []bool{true, false, false, false}
	loss, grad, count := SoftmaxCrossEntropy(logits, labels, mask)
	if count != 1 {
		t.Fatalf("count=%d", count)
	}
	if loss < 5 {
		t.Fatalf("confidently wrong row should have high loss, got %v", loss)
	}
	for i := 1; i < 4; i++ {
		for _, v := range grad.Row(i) {
			if v != 0 {
				t.Fatal("unmasked rows must have zero grad")
			}
		}
	}
}

func TestSoftmaxCrossEntropySkipsUnlabeled(t *testing.T) {
	logits := tensor.NewDense(3, 2)
	labels := []int32{-1, 1, -1}
	_, grad, count := SoftmaxCrossEntropy(logits, labels, nil)
	if count != 1 {
		t.Fatalf("count=%d want 1", count)
	}
	for _, v := range grad.Row(0) {
		if v != 0 {
			t.Fatal("unlabeled rows must have zero grad")
		}
	}
}

func TestSoftmaxCrossEntropyEmptyMask(t *testing.T) {
	logits := tensor.NewDense(2, 2)
	loss, grad, count := SoftmaxCrossEntropy(logits, []int32{0, 1}, []bool{false, false})
	if loss != 0 || count != 0 {
		t.Fatalf("empty selection: loss=%v count=%d", loss, count)
	}
	if tensor.MaxAbsDiff(grad, tensor.NewDense(2, 2)) != 0 {
		t.Fatal("empty selection grad must be zero")
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromRowMajor(3, 2, []float32{
		2, 1, // pred 0
		0, 3, // pred 1
		5, 4, // pred 0
	})
	labels := []int32{0, 1, 1}
	if got := Accuracy(logits, labels, nil); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("accuracy=%v", got)
	}
	if got := Accuracy(logits, labels, []bool{true, false, false}); got != 1 {
		t.Fatalf("masked accuracy=%v", got)
	}
	if got := Accuracy(logits, []int32{-1, -1, -1}, nil); got != 0 {
		t.Fatalf("all-unlabeled accuracy=%v", got)
	}
}

func TestTrainingLoopDecreasesLoss(t *testing.T) {
	// One linear layer trained on separable data must reduce loss.
	rng := rand.New(rand.NewSource(2))
	n, f, k := 64, 8, 4
	x := tensor.NewDense(n, f)
	labels := make([]int32, n)
	for i := 0; i < n; i++ {
		labels[i] = int32(i % k)
		for j := 0; j < f; j++ {
			base := float32(0)
			if j%k == int(labels[i]) {
				base = 2
			}
			x.Set(i, j, base+float32(float32(rng.NormFloat64())*0.3))
		}
	}
	w := tensor.NewDense(f, k)
	w.GlorotInit(rng)
	opt := NewAdam(0.05, []*tensor.Dense{w})
	var first, last float64
	for epoch := 0; epoch < 50; epoch++ {
		logits := tensor.MatMul(x, w)
		loss, grad, _ := SoftmaxCrossEntropy(logits, labels, nil)
		gw := tensor.MatMulTA(x, grad)
		opt.Step([]*tensor.Dense{w}, []*tensor.Dense{gw})
		if epoch == 0 {
			first = loss
		}
		last = loss
	}
	if last > first/2 {
		t.Fatalf("loss did not drop: %v -> %v", first, last)
	}
}

func TestAdamMomentsRestore(t *testing.T) {
	w := tensor.NewDense(2, 2)
	opt := NewAdam(0.1, []*tensor.Dense{w})
	g := tensor.NewDense(2, 2)
	for i := range g.Data {
		g.Data[i] = 1
	}
	opt.Step([]*tensor.Dense{w}, []*tensor.Dense{g})
	m, v, step := opt.Moments()
	if step != 1 || m[0].Row(0)[0] == 0 || v[0].Row(0)[0] == 0 {
		t.Fatal("moments not populated")
	}
	// Restore into a fresh optimizer: next steps must match.
	w2 := w.Clone()
	opt2 := NewAdam(0.1, []*tensor.Dense{w2})
	opt2.Restore(m, v, step)
	opt.Step([]*tensor.Dense{w}, []*tensor.Dense{g})
	opt2.Step([]*tensor.Dense{w2}, []*tensor.Dense{g})
	if tensor.MaxAbsDiff(w, w2) != 0 {
		t.Fatal("restored optimizer diverged")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Restore count mismatch must panic")
		}
	}()
	opt2.Restore(nil, nil, 0)
}

func TestWeightedLossMatchesManualScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	logits := tensor.NewDense(4, 3)
	logits.Randomize(rng, 1)
	labels := []int32{0, 1, 2, 0}
	weights := []float32{2, 0, 1, 0.5}
	sum, grad, wtot := WeightedSoftmaxCrossEntropySum(logits, labels, nil, weights)
	if wtot != 3.5 {
		t.Fatalf("wtot=%v", wtot)
	}
	// Row with weight 0 contributes nothing.
	for _, v := range grad.Row(1) {
		if v != 0 {
			t.Fatal("zero-weight row must have zero grad")
		}
	}
	// Manual check: weighted sum equals sum of per-row losses x weight.
	var manual float64
	for i := range labels {
		s, g, _ := SoftmaxCrossEntropySum(logits.RowSlice(i, i+1), labels[i:i+1], nil)
		manual += float64(s * float64(weights[i]))
		_ = g
	}
	if math.Abs(sum-manual) > 1e-6 {
		t.Fatalf("weighted sum %v want %v", sum, manual)
	}
}

// The Into form overwrites a stale gradient: rows that contribute no loss
// term — masked out, unlabeled, zero weight — are cleared, the rest written,
// so the result equals the allocating form's bit for bit.
func TestWeightedLossIntoOverwritesStaleGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	logits := tensor.NewDense(6, 4)
	logits.Randomize(rng, 2)
	labels := []int32{0, 3, -1, 2, 1, 0}
	mask := []bool{true, false, true, true, true, true}
	weights := []float32{2, 1, 1, 0, 0.5, 1}
	wantSum, want, wantTot := WeightedSoftmaxCrossEntropySum(logits, labels, mask, weights)
	got := tensor.NewDense(6, 4)
	for i := range got.Data {
		got.Data[i] = float32(math.NaN())
	}
	sum, tot := WeightedSoftmaxCrossEntropySumInto(logits, labels, mask, weights, got)
	if sum != wantSum || tot != wantTot {
		t.Fatalf("Into form returned %v/%v, allocating form %v/%v", sum, tot, wantSum, wantTot)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("grad[%d] = %v into a stale tile, %v into a fresh one", i, got.Data[i], want.Data[i])
		}
	}
}

// The loss keeps each logit's exponential from the normaliser pass instead of
// evaluating it again for the probability. Same function, same argument: the
// bits must match the two-evaluation form on both sides of the 64-class
// stack row.
func TestSoftmaxCrossEntropyMatchesTwoExpForm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, classes := range []int{1, 8, 41, 64, 65, 200} {
		logits := tensor.NewDense(5, classes)
		logits.Randomize(rng, 6)
		labels := make([]int32, logits.Rows)
		for i := range labels {
			labels[i] = int32(rng.Intn(classes))
		}
		weights := []float32{1, 0.25, 3, 1e-3, 7}
		gotLoss, gotGrad, _ := WeightedSoftmaxCrossEntropySum(logits, labels, nil, weights)

		wantLoss := 0.0
		wantGrad := tensor.NewDense(logits.Rows, classes)
		for i := 0; i < logits.Rows; i++ {
			row, inv := logits.Row(i), float64(weights[i])
			maxv := row[0]
			for _, v := range row {
				if v > maxv {
					maxv = v
				}
			}
			var sum float64
			for _, v := range row {
				sum += math.Exp(float64(v - maxv))
			}
			wantLoss += float64(inv * (math.Log(sum) - float64(row[labels[i]]-maxv)))
			for j := range row {
				wantGrad.Row(i)[j] = float32(math.Exp(float64(row[j]-maxv)) / sum * inv)
			}
			wantGrad.Row(i)[labels[i]] -= float32(inv)
		}
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("%d classes: loss %x, two-Exp form says %x", classes, math.Float64bits(gotLoss), math.Float64bits(wantLoss))
		}
		for i := range wantGrad.Data {
			if math.Float32bits(gotGrad.Data[i]) != math.Float32bits(wantGrad.Data[i]) {
				t.Fatalf("%d classes: grad[%d] %x, two-Exp form says %x", classes, i,
					math.Float32bits(gotGrad.Data[i]), math.Float32bits(wantGrad.Data[i]))
			}
		}
	}
}
