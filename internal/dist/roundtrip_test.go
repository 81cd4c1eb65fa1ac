package dist_test

// Round-trip tests for every layout conversion on ragged shapes — rows
// and cols chosen so neither divides P. Redistribution copies values
// without arithmetic, so every comparison is exact (==), not tolerance
// based.

import (
	"fmt"
	"sync"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/tensor"
)

// marked builds a rows x cols matrix whose entries encode their global
// coordinates, so any misplaced element is detected, not just lost mass.
func marked(rows, cols int) *tensor.Dense {
	m := tensor.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, float32(i*1000+j+1))
		}
	}
	return m
}

func sameDense(a, b *tensor.Dense) error {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Errorf("shape %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return fmt.Errorf("element %d: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
	return nil
}

// runChain distributes global into the first layout, redistributes along
// the chain on every device, and returns the assembled result plus the
// fabric (for volume assertions).
func runChain(t *testing.T, p int, global *tensor.Dense, chain []dist.Layout) (*tensor.Dense, *comm.Fabric) {
	t.Helper()
	mats := make([]*dist.Mat, p)
	var mu sync.Mutex
	fab := comm.Run(p, hw.A6000(), func(d *comm.Device) {
		m := dist.Distribute(d, chain[0], global)
		for _, l := range chain[1:] {
			m = m.Redistribute(l)
		}
		mu.Lock()
		mats[d.Rank] = m
		mu.Unlock()
	})
	return dist.Assemble(mats), fab
}

func TestRoundTripRaggedShapes(t *testing.T) {
	shapes := []struct{ rows, cols int }{
		{7, 5},  // neither divides 2, 3, or 4
		{13, 3}, // cols < P for P=4
		{5, 9},  // rows < P roles reversed
		{1, 6},  // single row: H gives empty tiles on most devices
		{6, 1},  // single column: V gives empty tiles
		{3, 3},  // fewer rows and cols than P=4
		{16, 8}, // divisible control case
	}
	chains := [][]dist.Layout{
		{dist.H, dist.V, dist.H},
		{dist.V, dist.H, dist.V},
		{dist.H, dist.R, dist.H},
		{dist.V, dist.R, dist.V},
		{dist.R, dist.H, dist.V, dist.R},
		{dist.H, dist.G(2), dist.H},
		{dist.G(2), dist.V, dist.G(2)},
		{dist.H, dist.G(2), dist.V, dist.H},
	}
	for _, p := range []int{2, 4} {
		for _, sh := range shapes {
			global := marked(sh.rows, sh.cols)
			for _, chain := range chains {
				name := fmt.Sprintf("P%d_%dx%d_%v", p, sh.rows, sh.cols, chain)
				t.Run(name, func(t *testing.T) {
					got, _ := runChain(t, p, global, chain)
					if err := sameDense(global, got); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
	// P=3: ragged against every chain too (PartRange's uneven chunks).
	for _, sh := range shapes {
		global := marked(sh.rows, sh.cols)
		for _, chain := range [][]dist.Layout{
			{dist.H, dist.V, dist.H},
			{dist.V, dist.H, dist.V},
			{dist.H, dist.R, dist.H},
		} {
			name := fmt.Sprintf("P3_%dx%d_%v", sh.rows, sh.cols, chain)
			t.Run(name, func(t *testing.T) {
				got, _ := runChain(t, 3, global, chain)
				if err := sameDense(global, got); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// gatherRoot collects the whole matrix onto root from the library's one
// rooted exchange: the tiles move to the vertex-sliced layout and root
// gathers every row. Root returns the matrix, every other device nil.
func gatherRoot(m *dist.Mat, root int) *tensor.Dense {
	all := make([]int32, m.GlobalRows)
	for i := range all {
		all[i] = int32(i)
	}
	return m.Redistribute(dist.H).GatherRows(root, all)
}

// scatterRoot distributes a matrix only root holds (global is nil on the
// other devices): root broadcasts it and every device slices its tile.
func scatterRoot(d *comm.Device, root int, l dist.Layout, rows, cols int, global *tensor.Dense) *dist.Mat {
	var data []float32
	if d.Rank == root {
		data = global.Data
	}
	got := d.Broadcast(d.World(), root, data)
	return dist.Distribute(d, l, &tensor.Dense{Rows: rows, Cols: cols, Data: got})
}

func TestGatherRootRagged(t *testing.T) {
	const p = 4
	global := marked(7, 5)
	for _, l := range []dist.Layout{dist.H, dist.V, dist.G(2), dist.R} {
		for root := 0; root < p; root++ {
			t.Run(fmt.Sprintf("%v_root%d", l, root), func(t *testing.T) {
				var got *tensor.Dense
				var gotRanks []int
				var mu sync.Mutex
				comm.Run(p, hw.A6000(), func(d *comm.Device) {
					g := gatherRoot(dist.Distribute(d, l, global), root)
					mu.Lock()
					defer mu.Unlock()
					if g != nil {
						got = g
						gotRanks = append(gotRanks, d.Rank)
					}
				})
				if len(gotRanks) != 1 || gotRanks[0] != root {
					t.Fatalf("non-root devices must return nil; got results on %v", gotRanks)
				}
				if err := sameDense(global, got); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestGatherRootVolume(t *testing.T) {
	// Gather moves only the non-root tiles: (P-1)/P of the matrix for an
	// even Horizontal split, far less than replicate's (P-1)x total.
	const p, rows, cols = 4, 8, 6
	global := marked(rows, cols)
	fab := comm.Run(p, hw.A6000(), func(d *comm.Device) {
		gatherRoot(dist.Distribute(d, dist.H, global), 0)
	})
	want := int64((p - 1) * (rows / p) * cols * 4)
	if got := fab.Meters().Volume[hw.OpAllToAll]; got != want {
		t.Fatalf("gather volume=%d want %d", got, want)
	}
}

func TestScatterRootRagged(t *testing.T) {
	const p = 4
	global := marked(13, 3)
	for _, l := range []dist.Layout{dist.H, dist.V, dist.G(2), dist.R} {
		for _, root := range []int{0, 2} {
			t.Run(fmt.Sprintf("%v_root%d", l, root), func(t *testing.T) {
				mats := make([]*dist.Mat, p)
				var mu sync.Mutex
				comm.Run(p, hw.A6000(), func(d *comm.Device) {
					var g *tensor.Dense
					if d.Rank == root {
						g = global
					}
					m := scatterRoot(d, root, l, global.Rows, global.Cols, g)
					mu.Lock()
					mats[d.Rank] = m
					mu.Unlock()
				})
				if err := sameDense(global, dist.Assemble(mats)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	// Scatter then gather is identity for every layout, even when the
	// scatter root and gather root differ.
	const p = 3
	global := marked(7, 5)
	for _, l := range []dist.Layout{dist.H, dist.V, dist.R} {
		t.Run(l.String(), func(t *testing.T) {
			var got *tensor.Dense
			var mu sync.Mutex
			comm.Run(p, hw.A6000(), func(d *comm.Device) {
				var g *tensor.Dense
				if d.Rank == 0 {
					g = global
				}
				m := scatterRoot(d, 0, l, global.Rows, global.Cols, g)
				if out := gatherRoot(m, p-1); out != nil {
					mu.Lock()
					got = out
					mu.Unlock()
				}
			})
			if err := sameDense(global, got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMaskRoundTripRaggedIsSideChannel(t *testing.T) {
	// Mask redistribution round-trips exactly on ragged shapes AND all of
	// its traffic lands on the side-channel meters, leaving the primary
	// alltoall volume untouched.
	const p = 4
	global := tensor.NewDense(7, 5)
	for i := range global.Data {
		if i%3 == 0 {
			global.Data[i] = 1
		}
	}
	mats := make([]*dist.Mat, p)
	var mu sync.Mutex
	fab := comm.Run(p, hw.A6000(), func(d *comm.Device) {
		m := dist.Distribute(d, dist.H, global)
		m = m.RedistributeMask(dist.V)
		m = m.RedistributeMask(dist.H)
		mu.Lock()
		mats[d.Rank] = m
		mu.Unlock()
	})
	if err := sameDense(global, dist.Assemble(mats)); err != nil {
		t.Fatal(err)
	}
	if v := fab.Meters().Volume[hw.OpAllToAll]; v != 0 {
		t.Fatalf("mask traffic leaked into primary meters: %d bytes", v)
	}
	if v := fab.Meters().SideVolume[hw.OpAllToAll]; v == 0 {
		t.Fatal("mask traffic missing from side-channel meters")
	}
}
