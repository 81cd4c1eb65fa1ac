// Package nn provides the neural-network pieces shared by every trainer
// in the reproduction: Adam, softmax cross-entropy (loss and gradient),
// and accuracy metrics. All trainers in the paper (RDM, CAGNET, DGCL,
// GraphSAINT variants) use Adam with softmax cross-entropy.
package nn

import (
	"math"

	"gnnrdm/internal/tensor"
)

// Adam implements the Adam optimizer over a set of weight matrices.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	step int
	m, v []*tensor.Dense
}

// NewAdam creates an Adam optimizer with the paper's defaults
// (lr as given, beta1=0.9, beta2=0.999, eps=1e-8) for the given
// parameter shapes.
func NewAdam(lr float64, params []*tensor.Dense) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	for _, p := range params {
		a.m = append(a.m, tensor.NewDense(p.Rows, p.Cols))
		a.v = append(a.v, tensor.NewDense(p.Rows, p.Cols))
	}
	return a
}

// Step applies one Adam update: params[i] -= lr * mhat/(sqrt(vhat)+eps).
// params and grads must match the shapes given at construction.
func (a *Adam) Step(params, grads []*tensor.Dense) {
	if len(params) != len(a.m) || len(grads) != len(a.m) {
		panic("nn: Adam parameter count mismatch")
	}
	a.step++
	b1c := 1 - math.Pow(a.Beta1, float64(a.step))
	b2c := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range params {
		g := grads[i]
		m, v := a.m[i], a.v[i]
		for j := range p.Data {
			gj := float64(g.Data[j])
			mj := float64(a.Beta1*float64(m.Data[j])) + float64((1-a.Beta1)*gj)
			vj := float64(a.Beta2*float64(v.Data[j])) + float64((1-a.Beta2)*gj*gj)
			m.Data[j] = float32(mj)
			v.Data[j] = float32(vj)
			p.Data[j] -= float32(a.LR * (mj / b1c) / (math.Sqrt(vj/b2c) + a.Eps))
		}
	}
}

// Moments exposes the first/second-moment accumulators and step counter
// for checkpointing. The returned matrices alias internal state.
func (a *Adam) Moments() (m, v []*tensor.Dense, step int) { return a.m, a.v, a.step }

// Restore replaces the optimizer state from a checkpoint. Shapes must
// match the construction-time parameters.
func (a *Adam) Restore(m, v []*tensor.Dense, step int) {
	if len(m) != len(a.m) || len(v) != len(a.v) {
		panic("nn: Restore moment count mismatch")
	}
	for i := range m {
		a.m[i].CopyFrom(m[i])
		a.v[i].CopyFrom(v[i])
	}
	a.step = step
}

// SoftmaxCrossEntropy computes the mean softmax cross-entropy loss over
// the rows of logits selected by mask (all rows when mask is nil) against
// integer labels, and the gradient dL/dlogits (zero rows for unselected
// vertices). Rows with label < 0 are skipped. The gradient is normalized
// by the number of contributing rows, matching standard full-batch GCN
// training.
func SoftmaxCrossEntropy(logits *tensor.Dense, labels []int32, mask []bool) (loss float64, grad *tensor.Dense, count int) {
	sum, grad, count := SoftmaxCrossEntropySum(logits, labels, mask)
	if count == 0 {
		return 0, grad, 0
	}
	grad.Scale(float32(1.0 / float64(count)))
	return sum / float64(count), grad, count
}

// SoftmaxCrossEntropySum is the unnormalized variant of
// SoftmaxCrossEntropy: it returns the loss sum and the unscaled gradient,
// so distributed callers can normalize by a globally reduced row count.
func SoftmaxCrossEntropySum(logits *tensor.Dense, labels []int32, mask []bool) (lossSum float64, grad *tensor.Dense, count int) {
	s, g, w := WeightedSoftmaxCrossEntropySum(logits, labels, mask, nil)
	return s, g, int(w)
}

// WeightedSoftmaxCrossEntropySum computes the per-row-weighted loss sum
// and unscaled gradient; weightTotal is the sum of contributing weights
// (the row count when weights is nil). GraphSAINT's loss normalization
// (λ_v) supplies per-node weights here.
func WeightedSoftmaxCrossEntropySum(logits *tensor.Dense, labels []int32, mask []bool, weights []float32) (lossSum float64, grad *tensor.Dense, weightTotal float64) {
	grad = tensor.NewDense(logits.Rows, logits.Cols)
	lossSum, weightTotal = WeightedSoftmaxCrossEntropySumInto(logits, labels, mask, weights, grad)
	return lossSum, grad, weightTotal
}

// WeightedSoftmaxCrossEntropySumInto is WeightedSoftmaxCrossEntropySum
// writing the gradient into grad (logits' shape), overwriting it: rows
// that contribute no loss term are cleared.
func WeightedSoftmaxCrossEntropySumInto(logits *tensor.Dense, labels []int32, mask []bool, weights []float32, grad *tensor.Dense) (lossSum, weightTotal float64) {
	if len(labels) != logits.Rows {
		panic("nn: labels length mismatch")
	}
	if weights != nil && len(weights) != logits.Rows {
		panic("nn: weights length mismatch")
	}
	if grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		panic("nn: gradient shape mismatch")
	}
	// exps keeps each row's exponentials from the normaliser pass, so a logit
	// costs one math.Exp; on the stack up to 64 classes.
	var stack [64]float64
	exps := stack[:]
	if logits.Cols > len(stack) {
		exps = make([]float64, logits.Cols)
	}
	loss := 0.0
	for i := 0; i < logits.Rows; i++ {
		grow := grad.Row(i)
		if (mask != nil && !mask[i]) || labels[i] < 0 {
			clear(grow)
			continue
		}
		inv := 1.0
		if weights != nil {
			inv = float64(weights[i])
			if inv <= 0 {
				clear(grow)
				continue
			}
		}
		weightTotal += inv
		row := logits.Row(i)
		// Numerically stable log-softmax.
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			exps[j] = math.Exp(float64(v - maxv))
			sum += exps[j]
		}
		logSum := math.Log(sum)
		y := labels[i]
		loss += float64(inv * (logSum - float64(row[y]-maxv)))
		for j := range row {
			p := exps[j] / sum
			grow[j] = float32(p * inv)
		}
		grow[y] -= float32(inv)
	}
	return loss, weightTotal
}

// Accuracy returns the fraction of mask-selected rows whose argmax matches
// the label (all labeled rows when mask is nil).
func Accuracy(logits *tensor.Dense, labels []int32, mask []bool) float64 {
	correct, total := 0, 0
	for i := 0; i < logits.Rows; i++ {
		if (mask != nil && !mask[i]) || labels[i] < 0 {
			continue
		}
		total++
		row := logits.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
			_ = v
		}
		if int32(best) == labels[i] {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
