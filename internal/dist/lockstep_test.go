package dist

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/tensor"
	"gnnrdm/internal/trace"
)

// GatherRowsLockstep is GatherRowsInto for every rank at once, from the
// host goroutine. The oracle runs the same request sequence through
// GatherRowsInto under Run, each rank charging a different compute load
// before every gather; the tiles, clocks, meters and trace events of the
// two must agree bit for bit.
func TestGatherRowsLockstepMatchesGatherRowsInto(t *testing.T) {
	const n, cols = 23, 5 // n % P != 0 for every P > 1 below
	global := globalRand(rand.New(rand.NewSource(31)), n, cols)
	for p := 1; p <= 8; p++ {
		for _, root := range []int{0, p - 1} {
			// Root's rows, the others' rows, duplicates, unsorted, empty.
			rlo, rhi := RowRange(H, p, root, n)
			var rootOnly, remoteOnly []int32
			for r := int32(n - 1); r >= 0; r-- {
				if int(r) >= rlo && int(r) < rhi {
					rootOnly = append(rootOnly, r)
				} else {
					remoteOnly = append(remoteOnly, r)
				}
			}
			requests := [][]int32{
				{9, 2, 9, 22, 0, 9, 13},
				nil,
				rootOnly,
				remoteOnly,
				{22, 22, 22},
				{},
				{5, 17, 1, 11, 20, 3, 5},
			}
			t.Run(fmt.Sprintf("P%d_root%d", p, root), func(t *testing.T) {
				rfab, rtr := gatherFabric(p)
				want := make([]*tensor.Dense, len(requests))
				rfab.Run(func(d *comm.Device) {
					m := Distribute(d, H, global)
					var tile *tensor.Dense
					for k, rows := range requests {
						d.ChargeGemm(16*(d.Rank+1), 8+k, 8)
						tile = m.GatherRowsInto(root, rows, tile)
						if d.Rank == root {
							want[k] = tile.Clone()
						}
					}
				})

				lfab, ltr := gatherFabric(p)
				mats := make([]*Mat, p)
				for r := range mats {
					mats[r] = Distribute(lfab.Device(r), H, global)
				}
				var tile *tensor.Dense
				for k, rows := range requests {
					for r := range mats {
						lfab.Device(r).ChargeGemm(16*(r+1), 8+k, 8)
					}
					tile = GatherRowsLockstep(mats, root, rows, tile)
					if !sameBits(tile, want[k]) {
						t.Fatalf("request %d %v: tile %v, oracle %v", k, rows, tile, want[k])
					}
				}

				for r := 0; r < p; r++ {
					ld, rd := lfab.Device(r), rfab.Device(r)
					if ld.Clock() != rd.Clock() || ld.CommTime() != rd.CommTime() || ld.ComputeTime() != rd.ComputeTime() {
						t.Fatalf("rank %d: clock/comm/compute %v/%v/%v, oracle %v/%v/%v", r,
							ld.Clock(), ld.CommTime(), ld.ComputeTime(), rd.Clock(), rd.CommTime(), rd.ComputeTime())
					}
					if le, re := ltr.Sessions()[0].Events(r), rtr.Sessions()[0].Events(r); !reflect.DeepEqual(le, re) {
						t.Fatalf("rank %d trace:\nlockstep %+v\noracle   %+v", r, le, re)
					}
				}
				if lm, rm := lfab.Meters(), rfab.Meters(); lm != rm {
					t.Fatalf("meters %+v, oracle %+v", lm, rm)
				}
			})
		}
	}
}

// gatherFabric is a traced p-device fabric.
func gatherFabric(p int) (*comm.Fabric, *trace.Tracer) {
	f := comm.NewFabric(p, hw.A6000())
	tr := trace.NewTracer(0)
	f.SetTracer(tr, "gather")
	return f, tr
}

// The lockstep gather keeps GatherRowsInto's validation panics.
func TestGatherRowsLockstepPanics(t *testing.T) {
	fab := comm.NewFabric(2, hw.A6000())
	global := globalRand(rand.New(rand.NewSource(3)), 6, 2)
	h := []*Mat{Distribute(fab.Device(0), H, global), Distribute(fab.Device(1), H, global)}
	v := []*Mat{Distribute(fab.Device(0), V, global), Distribute(fab.Device(1), V, global)}
	for _, c := range []struct {
		name  string
		tiles []*Mat
		rows  []int32
	}{
		{"row-high", h, []int32{1, 6}},
		{"row-negative", h, []int32{-1}},
		{"not-vertex-sliced", v, []int32{1}},
		{"ranks-swapped", []*Mat{h[1], h[0]}, []int32{1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("GatherRowsLockstep accepted it")
				}
				if fab.TotalVolume() != 0 || fab.Device(0).Clock() != 0 || fab.Device(1).Clock() != 0 {
					t.Fatal("a refused gather moved something")
				}
			}()
			GatherRowsLockstep(c.tiles, 0, c.rows, nil)
		})
	}
}
