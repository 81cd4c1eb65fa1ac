package dist

import (
	"fmt"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/hw"
)

// BenchmarkRegrid times one SPMD regrid — all P devices, divide, exchange
// and merge — at the shapes the benchmark's three train workloads
// redistribute (train-redist 196608x16 and x8 at P=8, train-gemm
// 21167x128 at P=8, train-spmm 3640x128 at P=4), H->V and V->H, into a
// fresh tile and into the tile the previous call returned. MB/s is
// matrix bytes per call, so a change to the copy loops is judged in
// seconds:
//
//	go test -run '^$' -bench Regrid -cpu 1,2 ./internal/dist
//
// narrowRow was picked from the H<->V rows of this table.
func BenchmarkRegrid(b *testing.B) {
	for _, sh := range []struct{ rows, cols, p int }{
		{196608, 16, 8}, {196608, 8, 8}, {21167, 128, 8}, {3640, 128, 4},
	} {
		for _, dir := range [][2]Layout{{H, V}, {V, H}} {
			for _, retained := range []bool{false, true} {
				name := fmt.Sprintf("%v-%v/%dx%d/P%d/fresh", dir[0], dir[1], sh.rows, sh.cols, sh.p)
				if retained {
					name = name[:len(name)-len("fresh")] + "retained"
				}
				b.Run(name, func(b *testing.B) {
					fab := comm.NewFabric(sh.p, hw.A6000())
					mats := make([]*Mat, sh.p)
					for r := range mats {
						mats[r] = NewMat(fab.Device(r), dir[0], sh.rows, sh.cols)
						for i := range mats[r].Local.Data {
							mats[r].Local.Data[i] = float32(i)
						}
					}
					b.SetBytes(int64(sh.rows) * int64(sh.cols) * 4)
					b.ReportAllocs()
					b.ResetTimer()
					fab.Run(func(d *comm.Device) {
						var old *Mat
						for i := 0; i < b.N; i++ {
							out := mats[d.Rank].RedistributeInto(dir[1], old)
							if retained {
								old = out
							}
						}
					})
				})
			}
		}
	}
}
