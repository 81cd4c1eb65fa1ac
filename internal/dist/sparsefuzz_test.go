package dist_test

import (
	"math"
	"sync"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/tensor"
)

// FuzzSparseExchange drives the two-round sparse redistribution with
// arbitrary shapes, fabric sizes, layout pairs, and live-set densities,
// checking three invariants:
//
//   - the row-set advertisement codec round-trips exactly, and decoding
//     a bit-corrupted or truncated advertisement returns an error
//     rather than panicking (wire robustness);
//   - RedistributeSparse reconstructs the identical global matrix the
//     dense Redistribute produces — zero-filled dead rows included;
//   - the sparse exchange never moves more primary bytes than the dense
//     one (it ships a subset of the rows), and a single device never
//     communicates.
func FuzzSparseExchange(f *testing.F) {
	f.Add(uint8(12), uint8(5), uint8(2), uint8(0), uint8(1), uint8(4), uint8(3))
	f.Add(uint8(24), uint8(3), uint8(3), uint8(1), uint8(0), uint8(6), uint8(9))
	f.Add(uint8(8), uint8(4), uint8(1), uint8(2), uint8(0), uint8(2), uint8(1))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(16), uint8(6), uint8(3), uint8(0), uint8(1), uint8(16), uint8(5))
	f.Fuzz(func(t *testing.T, rowsB, colsB, pSel, srcSel, dstSel, liveB, seedB uint8) {
		rows := 1 + int(rowsB)%24
		cols := 1 + int(colsB)%10
		p := 1 + int(pSel)%4
		liveCount := int(liveB) % (rows + 1)
		sseed := int64(seedB)
		live := dist.GenRows(sseed, rows, liveCount)

		// Round 1 wire format: encode/decode is the identity on any
		// generated live set, and a mangled buffer errors, never panics.
		enc := dist.EncodeRowSet(live, cols)
		ids, width, err := dist.DecodeRowSet(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if width != cols || len(ids) != len(live) {
			t.Fatalf("round trip: got %d ids width %d, want %d ids width %d", len(ids), width, len(live), cols)
		}
		for i := range ids {
			if ids[i] != live[i] {
				t.Fatalf("round trip: id[%d] = %d, want %d", i, ids[i], live[i])
			}
		}
		mut := append([]float32(nil), enc...)
		i := int(seedB) % len(mut)
		mut[i] = math.Float32frombits(math.Float32bits(mut[i]) ^ (uint32(liveB)<<7 | 1))
		_, _, _ = dist.DecodeRowSet(mut)              // may error; must not panic
		_, _, _ = dist.DecodeRowSet(mut[:len(mut)-1]) // truncated header/body
		_, _, _ = dist.DecodeRowSet(nil)

		// Differential: a row-sparse matrix (live rows marked, dead rows
		// exact zeros) redistributed sparsely must assemble to the same
		// global as the dense path, for fewer or equal primary bytes.
		global := tensor.NewDense(rows, cols)
		for _, r := range live {
			row := global.Row(int(r))
			for c := range row {
				row[c] = float32(int(r)*cols + c + 1)
			}
		}
		layouts := []dist.Layout{dist.H, dist.V}
		if p%2 == 0 {
			layouts = append(layouts, dist.G(2))
		}
		src := layouts[int(srcSel)%len(layouts)]
		dst := layouts[int(dstSel)%len(layouts)]

		exchange := func(sparse bool) (*comm.Fabric, []*dist.Mat) {
			mats := make([]*dist.Mat, p)
			var mu sync.Mutex
			fab := comm.Run(p, hw.A6000(), func(d *comm.Device) {
				m := dist.Distribute(d, src, global)
				if sparse {
					m = m.RedistributeSparse(dst, live)
				} else {
					m = m.Redistribute(dst)
				}
				mu.Lock()
				mats[d.Rank] = m
				mu.Unlock()
			})
			return fab, mats
		}
		sfab, smats := exchange(true)
		dfab, dmats := exchange(false)
		if err := sameDense(global, dist.Assemble(smats)); err != nil {
			t.Fatalf("P=%d %v->%v %dx%d live=%d: sparse exchange: %v", p, src, dst, rows, cols, liveCount, err)
		}
		if err := sameDense(global, dist.Assemble(dmats)); err != nil {
			t.Fatalf("P=%d %v->%v %dx%d: dense exchange: %v", p, src, dst, rows, cols, err)
		}
		sp, dp := sfab.TotalVolume()-sfab.Meters().TotalSideVolume(), dfab.TotalVolume()-dfab.Meters().TotalSideVolume()
		if sp > dp {
			t.Fatalf("P=%d %v->%v %dx%d live=%d: sparse primary %d bytes > dense %d", p, src, dst, rows, cols, liveCount, sp, dp)
		}
		if p == 1 && sfab.TotalVolume() != 0 {
			t.Fatal("single device must not communicate")
		}
	})
}
