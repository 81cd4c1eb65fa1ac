package verify

import (
	"testing"

	"gnnrdm/internal/core"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/topo"
)

// SparseProblem builds the standard verification problem with
// row-sparse features: every row outside the planner's live set
// dist.GenRows(sseed, n, live) is zeroed, and every live row is
// guaranteed at least one nonzero. The executor's value scan
// (dist.LiveRows) therefore recovers exactly the planner's assumed
// set, which is what makes the meter-equals-model assertions below
// byte- and clock-exact rather than approximate.
func SparseProblem(seed int64, n, fin, classes, live int, sseed int64) *core.Problem {
	prob := DefaultProblem(seed, n, fin, classes)
	prob.X = dist.KeepRows(prob.X, dist.GenRows(sseed, n, live))
	return prob
}

// CheckSparseMatchesModel is the sparsity-aware exchange's
// meter-equals-model pin. It trains one epoch of a sparse schedule
// (Options.Live/SparseSeed) on the live fabric and asserts, with no
// tolerance anywhere:
//
//   - the fabric's primary meters (all-to-all + allgather), all-reduce
//     meters, and side-channel meters — per link tier too on a topology —
//     equal the planner's per-op prices (Schedule.PriceOn) byte-for-byte
//     (MetersMatchPrice);
//   - on the flat interconnect, every sparse redistribution's priced
//     metadata and payload bytes equal the §IV-style closed forms
//     (Schedule.SparseExchangeClosedForm) — the third, schedule-free
//     accounting of the same exchange;
//   - the discrete-event engine replays both executors (sequential and
//     overlap) to bit-identical clocks, time accumulators, and the
//     complete meter matrix (CheckSimMatchesFabric).
//
// prob must come from SparseProblem with the same (liveCount, sseed)
// identity, so the executor's scanned live set equals the planner's.
// tspec, when non-empty, runs the whole check on that interconnect
// (closed-form leg skipped: topology routing legitimately relays bytes
// the flat pair census does not count).
func CheckSparseMatchesModel(t testing.TB, prob *core.Problem, dims []int, p, ra, cfg, liveCount int, sseed int64, tspec string) {
	t.Helper()
	o := DiffSpec{Dims: dims}.opts(cfg)
	o.RA = ra
	o.Live, o.SparseSeed = liveCount, sseed
	var tp *topo.Topology
	if tspec != "" {
		ts, err := topo.ParseSpec(tspec)
		if err != nil {
			t.Fatalf("bad topo spec %q: %v", tspec, err)
		}
		tp = ts.MustTopology(p)
		o.Topology = tp
	}

	fab := TrainFabric(p, prob, o, 1)
	sched := scheduleFor(prob, p, o)
	c := sched.PriceOn(prob.A.NNZ(), hw.A6000(), tp)
	if err := MetersMatchPrice(fab.Meters(), c); err != nil {
		t.Fatalf("P=%d RA=%d cfg=%d live=%d topo=%q: %v", p, ra, cfg, liveCount, tspec, err)
	}

	if tp == nil {
		// Closed-form leg: reconcile every sparse redistribution's priced
		// bytes against costmodel's schedule-free formulas.
		sched.SparseExchangeClosedForm(p, func(i int, op *plan.Op, meta, pay int64) {
			if oc := c.PerOp[i]; oc.Side != meta || oc.AllToAll != pay {
				t.Fatalf("step %d (%v): planner prices meta=%d pay=%d bytes, closed form says meta=%d pay=%d",
					op.Step, op.Kind, oc.Side, oc.AllToAll, meta, pay)
			}
		})
	}

	// Both executors, replayed on the discrete-event engine: clocks,
	// accumulators, and meters must be bit-identical.
	CheckSimMatchesFabric(t, prob, p, 1, o)
}

// CheckSparseDensityOneIsDense asserts the dense-degenerate contract:
// a spec declaring all n rows live compiles to the identical schedule
// as the dense spec — same String, Live normalized away, no sparse ops
// — so a density-1.0 sparse run reproduces the dense path bit-for-bit
// by construction.
func CheckSparseDensityOneIsDense(t testing.TB, n int, dims []int, p, ra, cfg int) {
	t.Helper()
	mk := func(live int) *plan.Schedule {
		return plan.Compile(plan.Spec{
			N: n, Dims: dims, Config: costmodel.ConfigFromID(cfg, len(dims)-1),
			P: p, RA: ra, Memoize: true, InputGrad: true,
			Live: live, SparseSeed: 99,
		}).Optimize()
	}
	dense, full := mk(0), mk(costmodel.LiveCount(n, 1.0))
	if full.Live != 0 {
		t.Fatalf("density 1.0: Live=%d survived normalization", full.Live)
	}
	if d, f := dense.String(), full.String(); d != f {
		t.Fatalf("density 1.0 schedule differs from dense:\ndense:\n%s\nfull:\n%s", d, f)
	}
}
