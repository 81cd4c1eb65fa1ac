package verify

import (
	"fmt"
	"math"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/tensor"
)

// CheckVertexPermutation asserts training commutes with vertex
// relabelling: running on prob.Permute(perm) must produce the
// same per-epoch losses and (row-permuted) logits as running on prob.
// Permutation moves every value bitwise but reorders the float32
// reductions inside SpMM and the weight-gradient sums, so the comparison
// uses the dedicated Perm* tolerances rather than bit equality.
func CheckVertexPermutation(t testing.TB, prob *core.Problem, dims []int, epochs, p, cfg int, permSeed int64) {
	t.Helper()
	perm := RandomPerm(permSeed, prob.N())
	twin := prob.Permute(perm)
	o := DiffSpec{Dims: dims}.opts(cfg)
	a := core.Train(p, hw.A6000(), prob, o, epochs)
	b := core.Train(p, hw.A6000(), twin, o, epochs)
	for ep := range a.Epochs {
		if d := math.Abs(a.Epochs[ep].Loss - b.Epochs[ep].Loss); d > PermLossTol {
			t.Fatalf("epoch %d: permuted loss %v, original %v (|Δ|=%.3g > %g)",
				ep, b.Epochs[ep].Loss, a.Epochs[ep].Loss, d, PermLossTol)
		}
	}
	if d := tensor.MaxAbsDiff(core.PermuteRows(a.Logits, perm), b.Logits); d > PermLogitsTol {
		t.Fatalf("permuted logits diverge from permuted original logits: max|Δ|=%.3g > %g", d, PermLogitsTol)
	}
}

// CheckFeatureScaling asserts a one-epoch forward pass is exactly
// homogeneous in the inputs: scaling every feature by a power of two
// scales the logits by the same factor bitwise. Scaling by 2 is an
// exponent shift in float32 and commutes exactly with matmul sums and
// ReLU (fl(2a+2b) = 2·fl(a+b)); the claim holds only for the first
// epoch's logits, which both runs compute with identical initial weights
// (Adam's ε makes later weights scale-dependent).
func CheckFeatureScaling(t testing.TB, prob *core.Problem, dims []int, p, cfg int) {
	t.Helper()
	o := DiffSpec{Dims: dims}.opts(cfg)
	a := core.Train(p, hw.A6000(), prob, o, 1)
	b := core.Train(p, hw.A6000(), ScaleFeatures(prob, 2), o, 1)
	for i, v := range a.Logits.Data {
		if b.Logits.Data[i] != 2*v {
			t.Fatalf("logit %d: scaled run %v, want exactly 2·%v = %v",
				i, b.Logits.Data[i], v, 2*v)
		}
	}
}

// CheckRedistRoundTrip asserts a chain of redistributions that returns
// to its starting layout is the exact identity: chain[0] → chain[1] →
// … → chain[0]. Redistribution only moves values (divide/exchange/merge,
// no arithmetic), so every tile must come back bitwise identical.
func CheckRedistRoundTrip(t testing.TB, p, rows, cols int, chain []dist.Layout) {
	t.Helper()
	global := tensor.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			global.Set(i, j, float32(i*1000+j+1))
		}
	}
	fab := comm.NewFabric(p, hw.A6000())
	errs := make([]error, p)
	fab.Run(func(d *comm.Device) {
		m := dist.Distribute(d, chain[0], global)
		for _, l := range chain[1:] {
			m = m.Redistribute(l)
		}
		m = m.Redistribute(chain[0])
		want := dist.Distribute(d, chain[0], global)
		if m.Local.Rows != want.Local.Rows || m.Local.Cols != want.Local.Cols {
			errs[d.Rank] = fmt.Errorf("rank %d: round-trip tile %dx%d, want %dx%d",
				d.Rank, m.Local.Rows, m.Local.Cols, want.Local.Rows, want.Local.Cols)
			return
		}
		for i, v := range want.Local.Data {
			if m.Local.Data[i] != v {
				errs[d.Rank] = fmt.Errorf("rank %d: round-trip tile element %d is %v, want exactly %v",
					d.Rank, i, m.Local.Data[i], v)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Fatalf("chain %v on P=%d (%dx%d): %v", chain, p, rows, cols, err)
		}
	}
}
