package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// TestChooseIsExact checks Choose against an exhaustive argmin written
// out here: under both objectives, its pick must price no higher than
// any ordering, and no lower-ID ordering may tie it. The first three
// named shapes are ones where a greedy slot-by-slot descent from
// all-SpMM-first stopped short of the optimum; the seeded draws cover
// 1–4 layers, Table V-like widths, P up to 16, and flat and two-tier
// fabrics.
func TestChooseIsExact(t *testing.T) {
	h := hw.A6000()
	// prices returns every ordering's sequential and critical-path time.
	prices := func(sp Spec, nnz int64, tp *topo.Topology) (seq, ovl []float64) {
		L := len(sp.Dims) - 1
		for id := 0; id < costmodel.NumConfigs(L); id++ {
			s := sp
			s.Config = costmodel.ConfigFromID(id, L)
			sched := Compile(s).Optimize()
			seq = append(seq, sched.PriceOn(nnz, h, tp).Time)
			ovl = append(ovl, MustBuildDAG(sched).PriceDAGOn(sched.ApproxCensus(nnz), h, tp).Makespan)
		}
		return seq, ovl
	}
	check := func(name string, sp Spec, nnz int64, tp *topo.Topology) (seqPick int) {
		seq, ovl := prices(sp, nnz, tp)
		for _, obj := range []struct {
			overlap bool
			price   []float64
		}{{false, seq}, {true, ovl}} {
			pick := Choose(sp, nnz, h, tp, obj.overlap).ID()
			for id, p := range obj.price {
				if p < obj.price[pick] || p == obj.price[pick] && id < pick {
					t.Errorf("%s overlap=%v: Choose picked %d (%.9gs), but %d prices %.9gs",
						name, obj.overlap, pick, obj.price[pick], id, p)
					break
				}
			}
			if !obj.overlap {
				seqPick = pick
			}
		}
		return seqPick
	}

	for _, c := range []struct {
		name string
		sp   Spec
		nnz  int64
		want int
	}{
		// rdmtrain -synthetic's defaults: n=4096 planted partition, whose
		// GCN-normalized adjacency stores 68 942 entries, on 8 devices.
		{"rdmtrain-default", Spec{N: 4096, Dims: []int{64, 128, 8}, P: 8, RA: 8, Memoize: true}, 68942, 10},
		{"16-256-16/P4/RA4", Spec{N: 1024, Dims: []int{16, 256, 16}, P: 4, RA: 4, Memoize: true, InputGrad: true}, 8 * 1024, 10},
		{"16-256-16/P8/RA4", Spec{N: 1024, Dims: []int{16, 256, 16}, P: 8, RA: 4, Memoize: true, InputGrad: true}, 8 * 1024, 10},
		// A narrow-to-wide layer without memoization: the optimum is the
		// last ID, which the draws below never reach.
		{"4-16/P2/RA1/nomemo", Spec{N: 3395, Dims: []int{4, 16}, P: 2, RA: 1}, 118825, 3},
	} {
		if got := check(c.name, c.sp, c.nnz, nil); got != c.want {
			t.Errorf("%s: sequential pick %d, want %d", c.name, got, c.want)
		}
	}

	draws := 40
	if testing.Short() {
		draws = 8
	}
	widths := []int{47, 100, 128, 256, 349, 602}
	rng := rand.New(rand.NewSource(8))
	for d := 0; d < draws; d++ {
		L := 1 + rng.Intn(4)
		dims := make([]int, L+1)
		for i := range dims {
			dims[i] = widths[rng.Intn(len(widths))]
		}
		p := []int{2, 4, 8, 16}[rng.Intn(4)]
		var divs []int
		for ra := 1; ra <= p; ra++ {
			if p%ra == 0 {
				divs = append(divs, ra)
			}
		}
		n := 1024 + rng.Intn(8192)
		// Without InputGrad the G^0 chain is dead, so orderings that
		// differ only in layer 1's backward slot tie: the ID tie rule.
		sp := Spec{N: n, Dims: dims, P: p, RA: divs[rng.Intn(len(divs))],
			Memoize: true, InputGrad: rng.Intn(2) == 0}
		nnz := int64(n) * int64(2+rng.Intn(40))
		var tp *topo.Topology
		spec := "flat"
		if p >= 8 && rng.Intn(2) == 0 {
			spec = fmt.Sprintf("%dx4:nvlink,ib", p/4)
			tp = topo.MustParseSpec(spec).MustTopology(p)
		}
		check(fmt.Sprintf("draw %d (dims=%v P=%d RA=%d n=%d nnz=%d inputgrad=%v %s)",
			d, dims, p, sp.RA, n, nnz, sp.InputGrad, spec), sp, nnz, tp)
	}
}
