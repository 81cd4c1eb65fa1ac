package plan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// TestPriceIsSequentialReplay pins PriceOn to the replay engine: over
// seeded draws of training and inference schedules — 1–3 layers with
// widths down to 1 and 3, P up to 16 with primes, N mostly not divisible
// by P, every R_A, SAGE, sparse Live sets, ABC rewrites, and flat or
// two-tier fabrics — its time equals one sequential replay epoch's
// latest clock (and PriceDAGOn's SeqTime), and its per-kind, side and
// per-tier byte totals equal that epoch's meters, bit for bit. Its
// per-op breakdown lists every op once, in schedule order, and sums to
// the totals.
func TestPriceIsSequentialReplay(t *testing.T) {
	h := hw.A6000()
	draws := 400
	if testing.Short() {
		draws = 60
	}
	widths := []int{1, 3, 8, 16, 47, 128}
	rng := rand.New(rand.NewSource(32))
	for d := 0; d < draws; d++ {
		L := 1 + rng.Intn(3)
		dims := make([]int, L+1)
		for i := range dims {
			dims[i] = widths[rng.Intn(len(widths))]
		}
		p := []int{1, 2, 3, 4, 5, 7, 8, 13, 16}[rng.Intn(9)]
		var divs []int
		for ra := 1; ra <= p; ra++ {
			if p%ra == 0 {
				divs = append(divs, ra)
			}
		}
		n := p + rng.Intn(400)
		sp := Spec{
			N: n, Dims: dims, Config: costmodel.ConfigFromID(rng.Intn(costmodel.NumConfigs(L)), L),
			P: p, RA: divs[rng.Intn(len(divs))],
			SAGE: rng.Intn(4) == 0, Memoize: rng.Intn(2) == 0, InputGrad: rng.Intn(2) == 0,
		}
		if rng.Intn(3) == 0 {
			sp.RA = p
			sp.Live, sp.SparseSeed = 1+rng.Intn(n), 3
		}
		kind := "train"
		var s *Schedule
		if rng.Intn(4) == 0 {
			kind, s = "inference", CompileInference(sp).Optimize()
		} else {
			s = Compile(sp).Optimize()
		}
		if sp.Live > 0 && rng.Intn(2) == 0 {
			kind, s = kind+"+abc", s.ABC()
		}
		var tp *topo.Topology
		fabric := "flat"
		if p >= 3 && rng.Intn(2) == 0 {
			fabric = fmt.Sprintf("%dx2:nvlink,ib", (p+1)/2)
			tp = topo.MustParseSpec(fabric).MustTopology(p)
		}
		nnz := int64(n) * int64(1+rng.Intn(20))
		name := fmt.Sprintf("draw %d (%s dims=%v cfg=%d P=%d RA=%d n=%d live=%d sage=%v %s)",
			d, kind, dims, sp.Config.ID(), p, sp.RA, n, sp.Live, sp.SAGE, fabric)

		c := s.PriceOn(nnz, h, tp)
		dag := MustBuildDAG(s)
		cen := s.ApproxCensus(nnz)
		res := dag.Replay(cen, h, tp, 1, false, 0, nil, nil, "")
		m := &res.Meters
		if c.Time != res.MaxClock() {
			t.Fatalf("%s: PriceOn time %.17g, sequential replay %.17g", name, c.Time, res.MaxClock())
		}
		if seq := dag.PriceDAGOn(cen, h, tp).SeqTime; c.Time != seq {
			t.Fatalf("%s: PriceOn time %.17g, PriceDAGOn SeqTime %.17g", name, c.Time, seq)
		}
		for _, f := range []struct {
			what      string
			got, want int64
		}{
			{"all-to-all", c.AllToAll, m.Volume[hw.OpAllToAll]},
			{"all-gather", c.AllGather, m.Volume[hw.OpAllGather]},
			{"all-reduce", c.AllReduce, m.Volume[hw.OpAllReduce]},
			{"primary", c.AllToAll + c.AllGather + c.AllReduce, m.TotalVolume() - m.TotalSideVolume()},
			{"side", c.Side, m.TotalSideVolume()},
		} {
			if f.got != f.want {
				t.Fatalf("%s: PriceOn %s bytes %d, replay meters %d", name, f.what, f.got, f.want)
			}
		}
		for tier := range c.Tier {
			var want, wantSide int64
			if tp != nil {
				for k := range m.TierVolume[tier] {
					want += m.TierVolume[tier][k]
					wantSide += m.SideTierVolume[tier][k]
				}
			}
			if c.Tier[tier] != want || c.SideTier[tier] != wantSide {
				t.Fatalf("%s: PriceOn tier %d bytes %d side %d, replay meters %d side %d",
					name, tier, c.Tier[tier], c.SideTier[tier], want, wantSide)
			}
		}

		var sum Cost
		i := 0
		for si := range s.Sections {
			for _, op := range s.Sections[si].Ops {
				oc := c.PerOp[i]
				if oc.Step != op.Step || oc.Kind != op.Kind || oc.Time < 0 {
					t.Fatalf("%s: PerOp[%d] = step %d %v time %g, want step %d %v and time >= 0",
						name, i, oc.Step, oc.Kind, oc.Time, op.Step, op.Kind)
				}
				sum.AllToAll += oc.AllToAll
				sum.AllGather += oc.AllGather
				sum.AllReduce += oc.AllReduce
				sum.Side += oc.Side
				for tier := range oc.Tier {
					sum.Tier[tier] += oc.Tier[tier]
					sum.SideTier[tier] += oc.SideTier[tier]
				}
				sum.Time += oc.Time
				i++
			}
		}
		if i != len(c.PerOp) {
			t.Fatalf("%s: %d PerOp entries for %d ops", name, len(c.PerOp), i)
		}
		if math.Abs(sum.Time-c.Time) > 1e-12*c.Time {
			t.Fatalf("%s: PerOp times sum to %.17g, total %.17g", name, sum.Time, c.Time)
		}
		sum.Time, sum.PerOp = c.Time, c.PerOp
		if fmt.Sprint(sum) != fmt.Sprint(c) {
			t.Fatalf("%s: PerOp sums %+v, totals %+v", name, sum, c)
		}
	}
}
