package baselines

import (
	"fmt"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
)

// cagnetAgg implements CAGNET's distributed SpMM with replication factor
// c. Devices form P/c groups of c consecutive ranks; group g's members
// jointly own the adjacency row panel covering their vertex ranges, with
// member j of each group holding the K-dimension column slice
// PartRange(N, c, j) of that panel.
//
// Aggregate: (1) all-to-all gathers the K_j rows of the dense operand
// (volume ≈ (P/c)·N·f total, the 1.5D regime; exactly (P-1)·N·f at c=1,
// CAGNET 1D's broadcast volume), (2) local partial SpMM over the K_j
// slice for the whole panel, (3) reduce-scatter of partials within the
// group leaves each member its own rows.
type cagnetAgg struct {
	dev  *comm.Device
	n    int
	c    int
	lo   int // own vertex range
	hi   int
	klo  int // own K slice
	khi  int
	grp  []int // my panel group (c consecutive ranks)
	part *sparse.CSR
	// grpCounts[i] = rows owned by group member i (for reduce-scatter).
	grpCounts []int
	panelRows int
	panelLo   int
}

func newCAGNETAgg(dev *comm.Device, a *sparse.CSR, c int) *cagnetAgg {
	p := dev.P()
	if c < 1 || p%c != 0 {
		panic(fmt.Sprintf("baselines: replication %d must divide P=%d", c, p))
	}
	n := a.Rows
	ag := &cagnetAgg{dev: dev, n: n, c: c}
	ag.lo, ag.hi = dist.PartRange(n, p, dev.Rank)
	g := dev.Rank / c
	j := dev.Rank % c
	ag.klo, ag.khi = dist.PartRange(n, c, j)
	panelLo, _ := dist.PartRange(n, p, g*c)
	_, panelHi := dist.PartRange(n, p, (g+1)*c-1)
	ag.panelLo, ag.panelRows = panelLo, panelHi-panelLo
	ag.part = a.RowPanel(panelLo, panelHi).ColPanel(ag.klo, ag.khi)
	for m := 0; m < c; m++ {
		mlo, mhi := dist.PartRange(n, p, g*c+m)
		ag.grp = append(ag.grp, g*c+m)
		ag.grpCounts = append(ag.grpCounts, mhi-mlo)
	}
	return ag
}

func (ag *cagnetAgg) OwnRange() (int, int) { return ag.lo, ag.hi }

func (ag *cagnetAgg) Aggregate(x *tensor.Dense) *tensor.Dense {
	dev := ag.dev
	p := dev.P()
	f := x.Cols

	// Gather the K_j rows of the global operand: every rank s needs rows
	// K_{j(s)}; send it the intersection with my owned rows.
	parts := make([][]float32, p)
	for s := 0; s < p; s++ {
		sklo, skhi := dist.PartRange(ag.n, ag.c, s%ag.c)
		rlo, rhi := max(sklo, ag.lo), min(skhi, ag.hi)
		if rlo >= rhi {
			continue
		}
		if s == dev.Rank {
			parts[s] = x.RowSlice(rlo-ag.lo, rhi-ag.lo).Data
			continue
		}
		parts[s] = append([]float32(nil), x.Data[(rlo-ag.lo)*f:(rhi-ag.lo)*f]...)
	}
	recv := dev.AllToAll(dev.World(), parts)
	bk := tensor.NewDense(ag.khi-ag.klo, f)
	for s := 0; s < p; s++ {
		if len(recv[s]) == 0 {
			continue
		}
		slo, shi := dist.PartRange(ag.n, p, s)
		rlo := max(ag.klo, slo)
		rhi := min(ag.khi, shi)
		if (rhi-rlo)*f != len(recv[s]) {
			panic("baselines: cagnet gather size mismatch")
		}
		copy(bk.Data[(rlo-ag.klo)*f:], recv[s])
	}
	dev.ChargeMem(bk.Bytes())

	// Partial product over my K slice for the whole panel.
	partial := ag.part.SpMM(bk)
	dev.ChargeSpMM(ag.part.NNZ(), f)

	// Reduce partials within the group; each member keeps its own rows.
	counts := make([]int, ag.c)
	for i, rc := range ag.grpCounts {
		counts[i] = rc * f
	}
	own := dev.ReduceScatterSum(ag.grp, partial.Data, counts)
	out := tensor.FromRowMajor(ag.hi-ag.lo, f, own)
	dev.ChargeMem(out.Bytes())
	return out
}

// NewAggregator builds CAGNET's distributed SpMM aggregator with
// replication factor c for standalone (kernel-level) use.
func NewAggregator(dev *comm.Device, a *sparse.CSR, c int) Aggregator {
	return newCAGNETAgg(dev, a, c)
}

// TrainCAGNET trains a full-batch GCN with the CAGNET baseline
// (opts.Replication = 1 for the 1D algorithm, >1 for the 1.5D-style
// replicated variant).
func TrainCAGNET(p int, model *hw.Model, prob *core.Problem, opts Options, epochs int) *core.Result {
	opts = opts.withDefaults()
	if opts.Dims[0] != prob.X.Cols {
		panic("baselines: Dims[0] must equal feature width")
	}
	if opts.Replication < 1 || p%opts.Replication != 0 {
		panic(fmt.Sprintf("baselines: replication %d must divide P=%d", opts.Replication, p))
	}
	label := opts.TraceLabel
	if label == "" {
		label = fmt.Sprintf("cagnet-c%d", opts.Replication)
	}
	return runHarness(p, model, epochs, prob.N(), opts.Dims[len(opts.Dims)-1],
		opts.Tracer, label,
		func(dev *comm.Device) *vertexTrainer {
			return newVertexTrainer(dev, prob, opts, newCAGNETAgg(dev, prob.A, opts.Replication))
		})
}
