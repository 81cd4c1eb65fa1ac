package plan

import (
	"testing"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// BenchmarkReplayHier prices one ordering of the planner sweep's shape —
// a 2-layer model (64→128→32) over 2^18 vertices at P=1024 on 128 nodes
// of 8, two epochs — with PriceDAGEpochsCached. On a warm cache every
// census and price is a hit, so "warm" times the replay walk alone, both
// executors; "cold" prices on a fresh cache, adding each regrid's pair
// census and its routed all-to-all prices:
//
//	go test -run '^$' -bench ReplayHier ./internal/plan
func BenchmarkReplayHier(b *testing.B) {
	const p, n, epochs = 1024, 1 << 18, 2
	h := hw.A6000()
	tp := topo.MustParseSpec("128x8:nvlink,ib").MustTopology(p)
	s := Compile(Spec{N: n, Dims: []int{64, 128, 32}, Config: costmodel.ConfigFromID(10, 2),
		P: p, RA: p, Memoize: true}).Optimize()
	d, cen := MustBuildDAG(s), s.ApproxCensus(8*n)
	b.Run("warm", func(b *testing.B) {
		pc := NewPriceCache()
		d.PriceDAGEpochsCached(cen, h, tp, epochs, pc)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			d.PriceDAGEpochsCached(cen, h, tp, epochs, pc)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			d.PriceDAGEpochsCached(cen, h, tp, epochs, NewPriceCache())
		}
	})
}
