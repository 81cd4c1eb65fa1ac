package topo

import (
	"testing"

	"gnnrdm/internal/hw"
)

// BenchmarkAllToAllPairs prices the all-to-all the planner sweep routes
// most: the H→V regrid of its 2^18×128 hidden layer at P=1024 on 128
// nodes of 8, from the regrid's 130 944-pair list, under Bruck alone
// (RHD) and under the Auto resolver (Ring, Bruck and Hier each priced):
//
//	go test -run '^$' -bench AllToAllPairs ./internal/topo
func BenchmarkAllToAllPairs(b *testing.B) {
	const p, rows, cols = 1024, 1 << 18, 128
	h := hw.A6000()
	tp := MustParseSpec("128x8:nvlink,ib").MustTopology(p)
	tab := regridTable(p, 1, p, rows, cols, false)
	pairs := PairList(p, func(i, j int) int64 { return tab[i][j] })
	world := group(p)
	for _, alg := range []Algorithm{RHD, Auto} {
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				tp.AllToAllPairs(h, alg, world, pairs)
			}
		})
	}
}
