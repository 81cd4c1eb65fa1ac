package plan

import (
	"testing"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// BenchmarkReplay replays one ordering of the planner sweep's shape — a
// 2-layer model (64→128→32) over 2^18 vertices at P=1024, two epochs —
// on the flat interconnect and on 128 nodes of 8. On a warm cache every
// census and price is a hit, so "warm" legs time the replay walk alone:
// PriceDAGEpochsCached (both executors) and Replay under each lane map.
// "cold" prices on a fresh cache, adding each regrid's pair census and
// its all-to-all prices. ns/op-rank is the wall time per replayed
// (op, rank) pair:
//
//	go test -run '^$' -bench Replay ./internal/plan
func BenchmarkReplay(b *testing.B) {
	const p, n, epochs = 1024, 1 << 18, 2
	h := hw.A6000()
	s := Compile(Spec{N: n, Dims: []int{64, 128, 32}, Config: costmodel.ConfigFromID(10, 2),
		P: p, RA: p, Memoize: true}).Optimize()
	d, cen := MustBuildDAG(s), s.ApproxCensus(8*n)
	for _, fabric := range []struct {
		name string
		tp   *topo.Topology
	}{
		{"flat", nil},
		{"128x8", topo.MustParseSpec("128x8:nvlink,ib").MustTopology(p)},
	} {
		tp := fabric.tp
		for _, leg := range []struct {
			name string
			runs int // replays per call
			run  func(pc *PriceCache)
		}{
			{"price-dag", 2, func(pc *PriceCache) { d.PriceDAGEpochsCached(cen, h, tp, epochs, pc) }},
			{"replay-seq", 1, func(pc *PriceCache) { d.Replay(cen, h, tp, epochs, false, 0, pc, nil, "") }},
			{"replay-overlap", 1, func(pc *PriceCache) { d.Replay(cen, h, tp, epochs, true, 0, pc, nil, "") }},
		} {
			b.Run(fabric.name+"/warm/"+leg.name, func(b *testing.B) {
				pc := NewPriceCache()
				leg.run(pc)
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					leg.run(pc)
				}
				pairs := float64(b.N) * float64(leg.runs*epochs*s.Ops()*p)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pairs, "ns/op-rank")
			})
		}
		b.Run(fabric.name+"/cold/price-dag", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				d.PriceDAGEpochsCached(cen, h, tp, epochs, NewPriceCache())
			}
		})
	}
}
