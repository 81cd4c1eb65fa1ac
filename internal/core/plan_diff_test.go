// Differential and meter-reconciliation coverage for planner-compiled
// schedules with mixed per-layer orderings: non-uniform Config.Fwd/Bwd
// assignments across layers (hand-picked and model-chosen) must train
// identically to the single-device reference, and the fabric's meters
// must equal the schedule's per-op prices byte-for-byte.
package core_test

import (
	"fmt"
	"testing"

	"gnnrdm/internal/core"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/verify"
)

// mixedDims is a three-layer network so per-layer orderings can
// alternate within one pass.
func mixedDims() []int { return []int{diffFin, 12, 10, diffClasses} }

// mixedConfigIDs are hand-picked orderings that alternate every layer in
// both passes — maximally non-uniform points of the 64-config space.
func mixedConfigIDs() []int {
	s, d := costmodel.SparseFirst, costmodel.DenseFirst
	a := costmodel.Config{Fwd: []costmodel.Order{s, d, s}, Bwd: []costmodel.Order{d, s, d}}
	b := costmodel.Config{Fwd: []costmodel.Order{d, s, d}, Bwd: []costmodel.Order{s, d, s}}
	return []int{a.ID(), b.ID()}
}

// TestMixedOrderingDifferential trains the alternating hand-picked
// orderings plus the planner's own choice for this problem against the
// single-device reference across P ∈ {1,2,4,8}.
func TestMixedOrderingDifferential(t *testing.T) {
	prob := diffProblem()
	configs := mixedConfigIDs()
	chosen := plan.Choose(plan.Spec{
		N: diffN, Dims: mixedDims(), P: 4, RA: 4, Memoize: true, InputGrad: true,
	}, prob.A.NNZ(), hw.A6000(), nil, false)
	configs = append(configs, chosen.ID())
	verify.RunDifferential(t, verify.DiffSpec{
		Problem: prob,
		Dims:    mixedDims(),
		Epochs:  2,
		Configs: configs,
	})
}

// TestScheduleMatchesMetersMixed reconciles metered fabric bytes against
// the schedule prices for the alternating orderings — configurations the
// closed-form §IV model's uniform sweep cannot check — over full and
// partial adjacency replication.
func TestScheduleMatchesMetersMixed(t *testing.T) {
	prob := diffProblem()
	ids := mixedConfigIDs()
	for _, tc := range []struct{ p, ra, cfg int }{
		{2, 2, ids[0]}, {4, 4, ids[0]}, {8, 2, ids[0]},
		{4, 2, ids[1]}, {8, 8, ids[1]}, {8, 4, ids[1]},
	} {
		tc := tc
		t.Run(fmt.Sprintf("cfg%02d/P%d/RA%d", tc.cfg, tc.p, tc.ra), func(t *testing.T) {
			o := core.Options{
				Dims:             mixedDims(),
				Config:           costmodel.ConfigFromID(tc.cfg, 3),
				RA:               tc.ra,
				Memoize:          true,
				ComputeInputGrad: true,
				LR:               0.01,
				Seed:             7,
			}
			verify.CheckScheduleMatchesMeters(t, prob, tc.p, o)
		})
	}
}

// TestScheduleMatchesMetersSAGE extends the reconciliation to GraphSAGE
// (two weight matrices per layer, self-term adds, doubled gradient
// all-reduces), with and without memoization.
func TestScheduleMatchesMetersSAGE(t *testing.T) {
	prob := diffProblem()
	for _, memo := range []bool{true, false} {
		memo := memo
		t.Run(fmt.Sprintf("memo=%v", memo), func(t *testing.T) {
			o := core.Options{
				Dims:             diffDims(),
				Config:           costmodel.ConfigFromID(6, 2),
				RA:               2,
				SAGE:             true,
				Memoize:          memo,
				ComputeInputGrad: true,
				LR:               0.01,
				Seed:             7,
			}
			verify.CheckScheduleMatchesMeters(t, prob, 4, o)
		})
	}
}

// TestScheduleMatchesMetersPlannerChosen builds a network whose
// asymmetric widths (narrow-wide-narrow) lead the cost-driven chooser to
// a mixed forward ordering (row 10, fwd[DS] bwd[SD], at both shapes),
// then verifies the metered bytes of the chosen schedule equal its own
// prices exactly.
func TestScheduleMatchesMetersPlannerChosen(t *testing.T) {
	const n = 1024
	dims := []int{16, 256, 16}
	prob := verify.DefaultProblem(diffSeed, n, 16, 16)
	for _, tc := range []struct{ p, ra int }{{4, 4}, {8, 4}} {
		tc := tc
		t.Run(fmt.Sprintf("P%d/RA%d", tc.p, tc.ra), func(t *testing.T) {
			sp := plan.Spec{N: n, Dims: dims, P: tc.p, RA: tc.ra, Memoize: true, InputGrad: true}
			cfg := plan.Choose(sp, prob.A.NNZ(), hw.A6000(), nil, false)
			if cfg.Fwd[0] == cfg.Fwd[1] {
				t.Fatalf("chooser picked a uniform forward ordering %v for dims %v", cfg, dims)
			}
			o := core.Options{
				Dims:             dims,
				Config:           cfg,
				RA:               tc.ra,
				Memoize:          true,
				ComputeInputGrad: true,
				LR:               0.01,
				Seed:             7,
			}
			verify.CheckScheduleMatchesMeters(t, prob, tc.p, o)
		})
	}
}

// TestZeroEpochRun: a zero-epoch training run must produce a usable
// Result (no index or divide-by-zero panics in the accessors).
func TestZeroEpochRun(t *testing.T) {
	res := core.Train(2, hw.A6000(), diffProblem(), core.Options{
		Dims: diffDims(), LR: 0.01, Seed: 7,
	}, 0)
	if len(res.Epochs) != 0 {
		t.Errorf("%d epochs recorded, want 0", len(res.Epochs))
	}
	if v := res.MeanEpochTime(); v != 0 {
		t.Errorf("MeanEpochTime() = %v, want 0", v)
	}
	if v := res.EpochsPerSecond(); v != 0 {
		t.Errorf("EpochsPerSecond() = %v, want 0", v)
	}
	if v := res.MeanCommTime(); v != 0 {
		t.Errorf("MeanCommTime() = %v, want 0", v)
	}
	if res.Logits == nil || res.Logits.Rows != 0 {
		t.Errorf("zero-epoch Logits = %v, want empty", res.Logits)
	}
}
