package dist_test

import (
	"math"
	"sync"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
)

// FuzzRegrid drives the divide/exchange/merge redistribution path
// (Fig. 7) with arbitrary shapes, fabric sizes, layout pairs and
// destination tiles (none, a NaN-filled one of the right shape, a
// misshapen one, the source's own), and checks that a round trip
// reconstructs the matrix exactly and that the exchanged volume never
// exceeds two full copies of the matrix (each regrid moves at most every
// element once).
func FuzzRegrid(f *testing.F) {
	f.Add(uint8(7), uint8(5), uint8(3), uint8(0), uint8(1), uint8(0))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(12), uint8(4), uint8(3), uint8(2), uint8(0), uint8(1))
	f.Add(uint8(3), uint8(9), uint8(1), uint8(1), uint8(0), uint8(2))
	f.Add(uint8(6), uint8(6), uint8(1), uint8(0), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, rowsB, colsB, pSel, srcSel, dstSel, oldSel uint8) {
		rows := 1 + int(rowsB)%12
		cols := 1 + int(colsB)%10
		p := 1 + int(pSel)%4
		layouts := []dist.Layout{dist.H, dist.V}
		if p%2 == 0 {
			layouts = append(layouts, dist.G(2))
		}
		src := layouts[int(srcSel)%len(layouts)]
		dst := layouts[int(dstSel)%len(layouts)]

		// oldFor builds the destination handed to a conversion of m.
		oldFor := func(m *dist.Mat, to dist.Layout) *dist.Mat {
			var old *dist.Mat
			switch oldSel % 4 {
			case 1:
				old = dist.NewMat(m.Dev, to, rows, cols)
			case 2:
				old = dist.NewMat(m.Dev, to, rows+1, cols+1)
			case 3:
				return m
			}
			if old != nil {
				for i := range old.Local.Data {
					old.Local.Data[i] = float32(math.NaN())
				}
			}
			return old
		}

		global := marked(rows, cols)
		mats := make([]*dist.Mat, p)
		var mu sync.Mutex
		fab := comm.Run(p, hw.A6000(), func(d *comm.Device) {
			m := dist.Distribute(d, src, global)
			m = m.RedistributeInto(dst, oldFor(m, dst))
			m = m.RedistributeInto(src, oldFor(m, src))
			mu.Lock()
			mats[d.Rank] = m
			mu.Unlock()
		})
		if err := sameDense(global, dist.Assemble(mats)); err != nil {
			t.Fatalf("P=%d %v->%v->%v on %dx%d, old %d: %v", p, src, dst, src, rows, cols, oldSel%4, err)
		}
		bound := int64(2 * rows * cols * 4)
		if v := fab.Meters().Volume[hw.OpAllToAll]; v > bound {
			t.Fatalf("P=%d %v<->%v moved %d bytes, bound %d", p, src, dst, v, bound)
		}
		if p == 1 && fab.TotalVolume() != 0 {
			t.Fatal("single device must not communicate")
		}
	})
}

// FuzzOverlapPairs drives the overlap enumerator with arbitrary shapes
// (empty tiles included: rows or cols below the part count), fabric
// sizes and layout pairs, and checks it against the quadratic oracle:
// it visits exactly the pairs whose TileOverlap is non-zero, once each,
// in ascending (src, dst) order, with ranges multiplying to that
// overlap, and OverlapCount counts those visits.
func FuzzOverlapPairs(f *testing.F) {
	f.Add(uint8(7), uint8(5), uint8(2), uint8(0), uint8(1))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(40), uint8(3), uint8(11), uint8(4), uint8(1))
	f.Add(uint8(2), uint8(30), uint8(16), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, rowsB, colsB, pSel, srcSel, dstSel uint8) {
		rows := 1 + int(rowsB)%48
		cols := 1 + int(colsB)%40
		p := 1 + int(pSel)%24
		layouts := []dist.Layout{dist.H, dist.V, dist.R}
		for pj := 2; pj < p; pj++ {
			if p%pj == 0 {
				layouts = append(layouts, dist.G(pj))
			}
		}
		from := layouts[int(srcSel)%len(layouts)]
		to := layouts[int(dstSel)%len(layouts)]

		visited, last := 0, -1
		dist.OverlapPairs(from, to, p, rows, cols, func(src, dst, rlo, rhi, clo, chi int) {
			if at := src*p + dst; at <= last {
				t.Fatalf("P=%d %v->%v on %dx%d: pair (%d,%d) out of order or repeated", p, from, to, rows, cols, src, dst)
			} else {
				last = at
			}
			visited++
			want := dist.TileOverlap(from, src, to, dst, p, rows, cols)
			if got := (rhi - rlo) * (chi - clo); got != want || want == 0 {
				t.Fatalf("P=%d %v->%v on %dx%d: pair (%d,%d) ranges [%d,%d)x[%d,%d) = %d, TileOverlap %d",
					p, from, to, rows, cols, src, dst, rlo, rhi, clo, chi, got, want)
			}
		})
		nonEmpty := 0
		for src := 0; src < p; src++ {
			for dst := 0; dst < p; dst++ {
				if dist.TileOverlap(from, src, to, dst, p, rows, cols) > 0 {
					nonEmpty++
				}
			}
		}
		if visited != nonEmpty {
			t.Fatalf("P=%d %v->%v on %dx%d: visited %d pairs, %d have a non-zero TileOverlap", p, from, to, rows, cols, visited, nonEmpty)
		}
		if n := dist.OverlapCount(from, to, p, rows, cols); n != visited {
			t.Fatalf("P=%d %v->%v on %dx%d: OverlapCount %d, OverlapPairs visited %d", p, from, to, rows, cols, n, visited)
		}
	})
}
