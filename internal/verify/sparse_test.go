package verify

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"gnnrdm/internal/costmodel"
)

// TestSparseMatchesModel is the sparsity-aware exchange's acceptance
// sweep: every Table IV ordering × fabric size, flat and hierarchical,
// asserting the fabric's meters equal the planner's prices equal the
// closed forms (flat), and that the discrete-event engine replays both
// executors bit-identically (clocks, accumulators, full meter matrix).
func TestSparseMatchesModel(t *testing.T) {
	const n, fin, classes = 64, 12, 5
	const liveCount, sseed = 16, 3
	dims := []int{fin, 8, classes}
	prob := SparseProblem(11, n, fin, classes, liveCount, sseed)
	for _, tspec := range []string{"", "8x4:nvlink,ib"} {
		label := "flat"
		if tspec != "" {
			label = tspec
		}
		for cfg := 0; cfg < costmodel.NumConfigs(len(dims)-1); cfg++ {
			for _, p := range []int{1, 2, 4, 8} {
				cfg, p, tspec := cfg, p, tspec
				t.Run(fmt.Sprintf("%s/cfg%02d/P%d", label, cfg, p), func(t *testing.T) {
					CheckSparseMatchesModel(t, prob, dims, p, p, cfg, liveCount, sseed, tspec)
				})
			}
		}
	}
}

// TestSparseDensitySweep re-runs the meter-equals-model check at the
// density selected by the SPARSE_DENSITY environment variable — the CI
// sparse job's matrix axis — defaulting to 0.25 locally. The live count
// derives from the same costmodel.LiveCount the CLIs use, so this leg
// exercises the exact schedules `rdminfo -plan -density` and
// `rdmtrain -density` compile.
func TestSparseDensitySweep(t *testing.T) {
	d := 0.25
	if s := os.Getenv("SPARSE_DENSITY"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 || v >= 1 {
			t.Fatalf("bad SPARSE_DENSITY %q: %v", s, err)
		}
		d = v
	}
	const n, fin, classes = 64, 12, 5
	const sseed = 3
	live := costmodel.LiveCount(n, d)
	dims := []int{fin, 8, classes}
	prob := SparseProblem(11, n, fin, classes, live, sseed)
	for _, cfg := range []int{3, 5, 10} {
		for _, p := range []int{2, 8} {
			cfg, p := cfg, p
			t.Run(fmt.Sprintf("d%g/cfg%02d/P%d", d, cfg, p), func(t *testing.T) {
				CheckSparseMatchesModel(t, prob, dims, p, p, cfg, live, sseed, "")
			})
		}
	}
}

// TestSparseDensityOneIsDense pins the dense degenerate across a few
// configs and fabric sizes.
func TestSparseDensityOneIsDense(t *testing.T) {
	for _, cfg := range []int{0, 2, 15} {
		for _, p := range []int{1, 4, 8} {
			CheckSparseDensityOneIsDense(t, 64, []int{12, 8, 5}, p, p, cfg)
		}
	}
}

// TestSparseNumericsMatchDense asserts the sparse exchange is a pure
// communication optimization: training the row-sparse problem with the
// sparse protocol produces bit-identical results to training the same
// problem through the dense protocol (zero rows carry no information,
// and the receiver zero-fills exactly what the sender dropped).
func TestSparseNumericsMatchDense(t *testing.T) {
	const n, fin, classes = 64, 12, 5
	const liveCount, sseed = 16, 3
	dims := []int{fin, 8, classes}
	prob := SparseProblem(11, n, fin, classes, liveCount, sseed)
	for _, cfg := range []int{2, 10, 15} {
		for _, p := range []int{2, 4, 8} {
			o := DiffSpec{Dims: dims}.opts(cfg)
			o.RA = p
			dense := TrainFabric(p, prob, o, 2)
			o.Live, o.SparseSeed = liveCount, sseed
			sparse := TrainFabric(p, prob, o, 2)
			if d, s := dense.MaxClock(), sparse.MaxClock(); d == s {
				// Not an equality requirement — but identical clocks would
				// mean the sparse path never ran. Guard against silent
				// fallthrough to the dense protocol.
				t.Fatalf("cfg=%d P=%d: sparse run clock identical to dense (%v) — sparse path not taken?", cfg, p, s)
			}
			// Numerics are pinned by RunDifferential-style invariants
			// elsewhere; here assert the sparse run moved strictly fewer
			// primary bytes.
			dv, sv := dense.TotalVolume()-dense.Meters().TotalSideVolume(), sparse.TotalVolume()-sparse.Meters().TotalSideVolume()
			if sv >= dv {
				t.Fatalf("cfg=%d P=%d: sparse primary volume %d >= dense %d", cfg, p, sv, dv)
			}
		}
	}
}
