package core

// Epoch keeps its register file across epochs and every producer writes
// into the tile its register held last time. These tests pin that to the
// behaviour it replaced — a fresh file, so a fresh zeroed tile per
// producer, every epoch — bit for bit, and show that no producer reads
// what a retained tile held: with every retained tile filled with NaN
// between epochs the losses and weights are the same bits again.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
)

// fileMode is what happens to the register file between epochs.
type fileMode int

const (
	fileKept     fileMode = iota // the engine as shipped
	fileDropped                  // dropped before each epoch: every tile fresh, as before retention
	filePoisoned                 // kept, every retained tile NaN-filled before each epoch
)

// poisonRetained fills with NaN every tile the engine carries from one
// epoch to the next as a destination: the registers' tiles, KReLUGrad's
// mask temporaries, the gradient buffers and the gather buffer. Input
// registers and their aliases are left alone — they carry X, a value the
// next epoch reads, not a tile it overwrites.
func (e *Engine) poisonRetained() {
	nan := float32(math.NaN())
	input := map[*float32]bool{}
	for i := range e.sched.Sections {
		for _, op := range e.sched.Sections[i].Ops {
			if op.Kind == plan.KInput && e.regs != nil && e.regs[op.Dst] != nil && len(e.regs[op.Dst].Local.Data) > 0 {
				input[&e.regs[op.Dst].Local.Data[0]] = true
			}
		}
	}
	for _, file := range [][]*dist.Mat{e.regs, e.masks} {
		for _, m := range file {
			if m != nil && len(m.Local.Data) > 0 && !input[&m.Local.Data[0]] {
				for i := range m.Local.Data {
					m.Local.Data[i] = nan
				}
			}
		}
	}
	for _, buf := range e.gradBufs {
		for i := range buf {
			buf[i] = nan
		}
	}
	for i := range e.gatherBuf {
		e.gatherBuf[i] = nan
	}
}

type retainedRun struct {
	losses  []float64
	weights []*tensor.Dense
}

// trainWithFile trains epochs epochs on p devices under mode, swapping to
// probs[1] before epoch swapAt (never, when swapAt < 0), and returns rank
// 0's losses and final weights.
func trainWithFile(p int, probs []*Problem, swapAt int, opts Options, epochs int, mode fileMode) retainedRun {
	var out retainedRun
	comm.NewFabric(p, hw.A6000()).Run(func(d *comm.Device) {
		eng := NewEngine(d, probs[0], opts)
		for ep := 0; ep < epochs; ep++ {
			if ep == swapAt {
				eng.SetProblem(probs[1])
			}
			switch mode {
			case fileDropped:
				eng.regs, eng.grads, eng.masks = nil, nil, nil
			case filePoisoned:
				eng.poisonRetained()
			}
			loss := eng.Epoch()
			if d.Rank == 0 {
				out.losses = append(out.losses, loss)
			}
		}
		if d.Rank == 0 {
			for _, w := range eng.Weights() {
				out.weights = append(out.weights, w.Clone())
			}
		}
	})
	return out
}

func (a retainedRun) diff(b retainedRun) string {
	for ep := range a.losses {
		if math.Float64bits(a.losses[ep]) != math.Float64bits(b.losses[ep]) {
			return fmt.Sprintf("epoch %d loss %v vs %v", ep, a.losses[ep], b.losses[ep])
		}
	}
	for i, w := range a.weights {
		for j := range w.Data {
			if math.Float32bits(w.Data[j]) != math.Float32bits(b.weights[i].Data[j]) {
				return fmt.Sprintf("weight %d element %d: %v vs %v", i, j, w.Data[j], b.weights[i].Data[j])
			}
		}
	}
	return ""
}

// checkFileModes trains under all three modes and requires identical bits.
func checkFileModes(t *testing.T, name string, p int, probs []*Problem, swapAt int, opts Options, epochs int) {
	t.Helper()
	fresh := trainWithFile(p, probs, swapAt, opts, epochs, fileDropped)
	for _, l := range fresh.losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("%s: reference loss %v", name, l)
		}
	}
	if d := fresh.diff(trainWithFile(p, probs, swapAt, opts, epochs, fileKept)); d != "" {
		t.Fatalf("%s: retained register file differs from a fresh one per epoch: %s", name, d)
	}
	if d := fresh.diff(trainWithFile(p, probs, swapAt, opts, epochs, filePoisoned)); d != "" {
		t.Fatalf("%s: a producer read its retained tile (NaN-poisoned file differs): %s", name, d)
	}
}

// retainedProblem is a small problem whose vertex count divides by
// nothing in the grid, with widths on both sides of the kernels' narrow
// paths (14 and 13 floats: MatMulTB's row accumulation, which must clear
// its output; 5 classes: its dot products, and empty feature slices at
// P=8).
func retainedProblem(n int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	adj, labels := graph.PlantedPartition(rng, n, int64(4*n), 5, 0.8)
	return &Problem{
		A:      sparse.GCNNormalize(adj),
		X:      graph.SynthesizeFeatures(rng, labels, 5, 14, 0.8),
		Labels: labels,
	}
}

func TestRetainedRegistersMatchFresh(t *testing.T) {
	probs := []*Problem{retainedProblem(29, 42)}
	dims := []int{14, 13, 5}
	for _, p := range []int{1, 2, 3, 4, 8} {
		p := p
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			t.Parallel()
			ras := []int{p}
			if p%2 == 0 {
				ras = append(ras, p/2)
			}
			for id := 0; id < 16; id++ {
				for _, ra := range ras {
					for flags := 0; flags < 16; flags++ {
						// -short (CI's race x10 line) keeps the four uniform
						// orderings and six of the sixteen flag combinations.
						if testing.Short() && (id%5 != 0 || flags%3 != 0) {
							continue
						}
						opts := Options{
							Dims: dims, Config: costmodel.ConfigFromID(id, 2), RA: ra, LR: 0.01, Seed: 7,
							SAGE: flags&1 != 0, Memoize: flags&2 != 0, ComputeInputGrad: flags&4 != 0,
							Overlap: flags&8 != 0, PinExecutor: true,
						}
						name := fmt.Sprintf("cfg %d RA=%d sage=%v memoize=%v inputgrad=%v overlap=%v",
							id, ra, opts.SAGE, opts.Memoize, opts.ComputeInputGrad, opts.Overlap)
						checkFileModes(t, name, p, probs, -1, opts, 5)
					}
				}
			}
		})
	}
}

// A GraphSAINT-style run: the problem is swapped for one with a different
// vertex count mid-run, so the retained tiles have the wrong shape and the
// retained input slice the wrong X; SetProblem must drop both.
func TestRetainedRegistersAcrossSetProblem(t *testing.T) {
	probs := []*Problem{retainedProblem(29, 42), retainedProblem(37, 43)}
	for _, p := range []int{1, 3, 4} {
		for _, id := range []int{0, 5, 10, 15} {
			for _, overlap := range []bool{false, true} {
				opts := Options{
					Dims: []int{14, 13, 5}, Config: costmodel.ConfigFromID(id, 2), LR: 0.01, Seed: 7,
					Memoize: true, ComputeInputGrad: true, Overlap: overlap, PinExecutor: true,
				}
				name := fmt.Sprintf("P=%d cfg %d overlap=%v", p, id, overlap)
				checkFileModes(t, name+" swap", p, probs, 2, opts, 5)
				// Same shapes, different X: only the input slice is stale.
				same := []*Problem{probs[0], retainedProblem(29, 44)}
				checkFileModes(t, name+" swap same n", p, same, 3, opts, 5)
			}
		}
	}
}

// With a MaskProvider every aggregation is a masked SpMM, which writes
// last epoch's tile like every other producer. Row r keeps the columns c
// with (r+c+epoch) % 3 != 0, so the mask changes every epoch.
func TestRetainedRegistersMasked(t *testing.T) {
	probs := []*Problem{retainedProblem(29, 42)}
	n := probs[0].N()
	provider := func(epoch, lo, hi int) [][]int32 {
		mask := make([][]int32, hi-lo)
		for r := lo; r < hi; r++ {
			mask[r-lo] = []int32{}
			for c := 0; c < n; c++ {
				if (r+c+epoch)%3 != 0 {
					mask[r-lo] = append(mask[r-lo], int32(c))
				}
			}
		}
		return mask
	}
	for _, p := range []int{1, 2, 4} {
		for _, id := range []int{0, 5, 10, 15} {
			opts := Options{
				Dims: []int{14, 13, 5}, Config: costmodel.ConfigFromID(id, 2), LR: 0.01, Seed: 7,
				Memoize: true, ComputeInputGrad: true, PinExecutor: true, MaskProvider: provider,
			}
			checkFileModes(t, fmt.Sprintf("P=%d cfg %d masked", p, id), p, probs, -1, opts, 5)
		}
	}
}

func TestRetainedRegistersThreeLayers(t *testing.T) {
	probs := []*Problem{retainedProblem(29, 42)}
	for _, p := range []int{2, 3, 8} {
		for _, id := range []int{0, 21, 42, 63, 10, 37} {
			for _, overlap := range []bool{false, true} {
				opts := Options{
					Dims: []int{14, 6, 13, 5}, Config: costmodel.ConfigFromID(id, 3), LR: 0.01, Seed: 7,
					Memoize: true, ComputeInputGrad: true, SAGE: id%2 == 1, Overlap: overlap, PinExecutor: true,
				}
				checkFileModes(t, fmt.Sprintf("P=%d cfg %d overlap=%v", p, id, overlap), p, probs, -1, opts, 5)
			}
		}
	}
}
