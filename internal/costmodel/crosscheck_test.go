// Cross-checks between the analytic model and the simulator's meters,
// via the internal/verify oracle. External test package: verify imports
// costmodel.
package costmodel_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/verify"
)

// bothDenseLayer reports whether some layer of the 2-layer config id is
// GEMM-first in both passes — the only case where EvaluateEngine's
// accounting can diverge from the paper's.
func bothDenseLayer(id int) bool {
	c := costmodel.ConfigFromID(id, 2)
	for l := 0; l < 2; l++ {
		if c.Fwd[l] == costmodel.DenseFirst && c.Bwd[l] == costmodel.DenseFirst {
			return true
		}
	}
	return false
}

// TestEngineModelElisionFunnel pins the exact relationship between the
// paper-literal Evaluate and the engine-faithful EvaluateEngine on
// funnel-shaped 2-layer networks (f_0 > f_1 > f_2, Table IV's regime):
// identical everywhere except configs 14 and 15, where the engine's
// layout cache reuses the feature-sliced G^1 left behind by the
// dense-first backward layer 2 and elides one f_1 redistribution of the
// extra weight-gradient SpMM.
func TestEngineModelElisionFunnel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		fout := 1 + rng.Intn(200)
		fh := fout + 1 + rng.Intn(200)
		fin := fh + 1 + rng.Intn(200)
		ras := []int{1, 2, 4, 8}
		n := costmodel.Network{Dims: []int{fin, fh, fout}, N: 4096, NNZ: 50000, P: 8, RA: ras[rng.Intn(len(ras))]}
		redistUnit := float64(float64(n.RA-1) / float64(n.RA) * float64(n.N))
		for id := 0; id < costmodel.NumConfigs(2); id++ {
			c := costmodel.ConfigFromID(id, 2)
			paper := costmodel.Evaluate(n, c)
			eng := costmodel.EvaluateEngine(n, c)
			diff := paper.CommElems - eng.CommElems
			want := 0.0
			if id == 14 || id == 15 {
				want = redistUnit * float64(fh)
			}
			if math.Abs(diff-want) > 1e-6 {
				t.Fatalf("cfg %d dims %v RA=%d: paper-engine comm gap %v, want %v",
					id, n.Dims, n.RA, diff, want)
			}
		}
	}
}

// TestEngineModelElisionBounds checks the structural invariants on
// arbitrary widths (where wider hidden layers let other both-dense
// configs reuse cached layouts too): the engine model never exceeds the
// paper model, moves the same sparse ops, diverges only on configs with
// a layer GEMM-first in both passes, and always by whole
// redistributions.
func TestEngineModelElisionBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		dims := []int{1 + rng.Intn(500), 1 + rng.Intn(500), 1 + rng.Intn(500)}
		n := costmodel.Network{Dims: dims, N: 4096, NNZ: 50000, P: 8, RA: 4}
		redistUnit := float64(float64(n.RA-1) / float64(n.RA) * float64(n.N))
		for id := 0; id < costmodel.NumConfigs(2); id++ {
			c := costmodel.ConfigFromID(id, 2)
			paper := costmodel.Evaluate(n, c)
			eng := costmodel.EvaluateEngine(n, c)
			if eng.SparseUnits != paper.SparseUnits {
				t.Fatalf("cfg %d: engine sparse units %v != paper %v — the elision is comm-only",
					id, eng.SparseUnits, paper.SparseUnits)
			}
			diff := paper.CommElems - eng.CommElems
			if diff < 0 {
				t.Fatalf("cfg %d dims %v: engine model %v exceeds paper model %v",
					id, dims, eng.CommElems, paper.CommElems)
			}
			if diff > 0 && !bothDenseLayer(id) {
				t.Fatalf("cfg %d dims %v: models diverge (%v) without a both-dense layer", id, dims, diff)
			}
			if rem := math.Mod(diff, redistUnit); rem > 1e-6 && redistUnit-rem > 1e-6 {
				t.Fatalf("cfg %d dims %v: gap %v is not a whole number of redistributions (unit %v)",
					id, dims, diff, redistUnit)
			}
		}
	}
}

// TestMeterCrossCheck closes the loop from the model side: for a sample
// of orderings and fabric shapes, one simulated epoch's meters must
// reproduce EvaluateEngine byte-for-byte (the exhaustive sweep lives in
// internal/core's acceptance suite).
func TestMeterCrossCheck(t *testing.T) {
	prob := verify.DefaultProblem(17, 32, 8, 4)
	dims := []int{8, 6, 4}
	for _, tc := range []struct{ p, ra, cfg int }{
		{2, 2, 3}, {4, 4, 14}, {4, 4, 15}, {4, 2, 9}, {8, 4, 12}, {8, 8, 6},
	} {
		tc := tc
		t.Run(fmt.Sprintf("P%d/RA%d/cfg%02d", tc.p, tc.ra, tc.cfg), func(t *testing.T) {
			verify.CheckVolumeMatchesModel(t, prob, dims, tc.p, tc.ra, tc.cfg)
		})
	}
	// A hidden layer wider than the input (f_0 < f_1) flips the extra
	// SpMM onto the H side, where cfg 6/7 also reuse a cached layout —
	// the meters must confirm that branch of the engine model too.
	wide := []int{8, 12, 4}
	for _, cfg := range []int{6, 7, 14, 15} {
		cfg := cfg
		t.Run(fmt.Sprintf("wide/cfg%02d", cfg), func(t *testing.T) {
			verify.CheckVolumeMatchesModel(t, prob, wide, 4, 4, cfg)
		})
	}
	// Ragged splits: n=100 rows and widths 8, 6, 4 over P=3. The engine
	// model counts each redistribution's exact tile overlaps, which the
	// (RA-1)/RA·N·f unit only approximates here.
	ragged := verify.DefaultProblem(17, 100, 8, 4)
	for _, tc := range []struct{ ra, cfg int }{{3, 0}, {3, 3}, {3, 10}, {3, 15}, {1, 5}} {
		tc := tc
		t.Run(fmt.Sprintf("ragged/P3/RA%d/cfg%02d", tc.ra, tc.cfg), func(t *testing.T) {
			verify.CheckVolumeMatchesModel(t, ragged, dims, 3, tc.ra, tc.cfg)
		})
	}
}
