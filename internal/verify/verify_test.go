package verify

// Self-tests: the oracle must itself be tested, and its failure
// detection can only be exercised here — the suites in core, dist, saint
// and baselines only ever see it pass.

import (
	"strings"
	"testing"
	"time"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
	"gnnrdm/internal/trace"
)

// emitRound records one consistent collective round on every rank.
func emitRound(tr *trace.Tracer, ranks int, seq uint64, op string, bytes int64, start, end float64) {
	for r := 0; r < ranks; r++ {
		tr.Emit(r, trace.Event{
			Class: trace.ClassCollective, Op: op, Group: "0,1", Seq: seq,
			GroupSize: ranks, Bytes: bytes, Start: start, End: end,
		})
	}
}

func wantCheckErr(t *testing.T, s *trace.Session, substr string) {
	t.Helper()
	err := checkSession(nil, s)
	if err == nil {
		t.Fatalf("checkSession passed, want error containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("checkSession error %q does not mention %q", err, substr)
	}
}

func TestCheckSessionHandBuilt(t *testing.T) {
	t.Run("consistent", func(t *testing.T) {
		tr := trace.NewTracer(0)
		s := tr.StartSession("good", 2)
		tr.Emit(0, trace.Event{Class: trace.ClassKernel, Op: "gemm", Start: 0, End: 1})
		emitRound(tr, 2, 1, "allgather", 8, 1, 2)
		emitRound(tr, 2, 2, "alltoall", 16, 2, 3)
		if err := checkSession(nil, s); err != nil {
			t.Fatalf("consistent session rejected: %v", err)
		}
	})
	t.Run("backwards event", func(t *testing.T) {
		tr := trace.NewTracer(0)
		s := tr.StartSession("bad", 1)
		tr.Emit(0, trace.Event{Class: trace.ClassKernel, Op: "gemm", Start: 2, End: 1})
		wantCheckErr(t, s, "runs backwards")
	})
	t.Run("overlapping events", func(t *testing.T) {
		tr := trace.NewTracer(0)
		s := tr.StartSession("bad", 1)
		tr.Emit(0, trace.Event{Class: trace.ClassKernel, Op: "gemm", Start: 0, End: 2})
		tr.Emit(0, trace.Event{Class: trace.ClassKernel, Op: "spmm", Start: 1, End: 3})
		wantCheckErr(t, s, "before the track's previous event ended")
	})
	t.Run("interleaved tracks accepted", func(t *testing.T) {
		// The overlap executor's signature shape: a link-track collective
		// spanning two compute-track kernels on the same device. Each
		// track is monotone, the merged timeline is not — and that is
		// conservation-legal, because compute and link are distinct
		// resources.
		tr := trace.NewTracer(0)
		s := tr.StartSession("good", 2)
		for r := 0; r < 2; r++ {
			tr.Emit(r, trace.Event{Class: trace.ClassKernel, Op: "gemm", Start: 0, End: 2})
			tr.Emit(r, trace.Event{Class: trace.ClassCollective, Op: "allreduce", Group: "0,1", Seq: 1,
				GroupSize: 2, Bytes: 8, Start: 1, End: 3, Track: 1})
			tr.Emit(r, trace.Event{Class: trace.ClassKernel, Op: "spmm", Start: 2, End: 4})
		}
		if err := checkSession(nil, s); err != nil {
			t.Fatalf("interleaved per-resource tracks must be accepted: %v", err)
		}
	})
	t.Run("interleaved same track rejected", func(t *testing.T) {
		// The same interleaving on ONE track is still a conservation
		// violation: a single resource cannot run two things at once.
		tr := trace.NewTracer(0)
		s := tr.StartSession("bad", 1)
		tr.Emit(0, trace.Event{Class: trace.ClassKernel, Op: "gemm", Start: 0, End: 2, Track: 1})
		tr.Emit(0, trace.Event{Class: trace.ClassKernel, Op: "spmm", Start: 1, End: 3, Track: 1})
		wantCheckErr(t, s, "before the track's previous event ended")
	})
	t.Run("byte mismatch across ranks", func(t *testing.T) {
		tr := trace.NewTracer(0)
		s := tr.StartSession("bad", 2)
		tr.Emit(0, trace.Event{Class: trace.ClassCollective, Op: "allgather", Group: "0,1", Seq: 1, GroupSize: 2, Bytes: 8, Start: 0, End: 1})
		tr.Emit(1, trace.Event{Class: trace.ClassCollective, Op: "allgather", Group: "0,1", Seq: 1, GroupSize: 2, Bytes: 12, Start: 0, End: 1})
		wantCheckErr(t, s, "sent != received")
	})
	t.Run("unsynchronized end", func(t *testing.T) {
		tr := trace.NewTracer(0)
		s := tr.StartSession("bad", 2)
		tr.Emit(0, trace.Event{Class: trace.ClassCollective, Op: "allgather", Group: "0,1", Seq: 1, GroupSize: 2, Bytes: 8, Start: 0, End: 1})
		tr.Emit(1, trace.Event{Class: trace.ClassCollective, Op: "allgather", Group: "0,1", Seq: 1, GroupSize: 2, Bytes: 8, Start: 0, End: 1.5})
		wantCheckErr(t, s, "not synchronized")
	})
	t.Run("missing participant", func(t *testing.T) {
		tr := trace.NewTracer(0)
		s := tr.StartSession("bad", 2)
		tr.Emit(0, trace.Event{Class: trace.ClassCollective, Op: "allgather", Group: "0,1", Seq: 1, GroupSize: 2, Bytes: 8, Start: 0, End: 1})
		wantCheckErr(t, s, "recorded by 1 of 2")
	})
	t.Run("dropped events", func(t *testing.T) {
		tr := trace.NewTracer(2)
		s := tr.StartSession("bad", 1)
		for i := 0; i < 3; i++ {
			tr.Emit(0, trace.Event{Class: trace.ClassKernel, Op: "gemm", Start: float64(i), End: float64(i + 1)})
		}
		wantCheckErr(t, s, "dropped")
	})
	t.Run("phases exempt", func(t *testing.T) {
		tr := trace.NewTracer(0)
		s := tr.StartSession("good", 1)
		// A phase spanning two kernels overlaps both — allowed.
		tr.Emit(0, trace.Event{Class: trace.ClassKernel, Op: "gemm", Start: 0, End: 1})
		tr.Emit(0, trace.Event{Class: trace.ClassPhase, Op: "forward", Start: 0, End: 2})
		tr.Emit(0, trace.Event{Class: trace.ClassKernel, Op: "gemm", Start: 1, End: 2})
		if err := checkSession(nil, s); err != nil {
			t.Fatalf("phase events must be exempt from monotonicity: %v", err)
		}
	})
}

func TestCheckSessionRealFabric(t *testing.T) {
	// toRank0 is what rank 1 sends rank 0 in the all-to-all.
	run := func(tr *trace.Tracer, toRank0 []float32) *comm.Fabric {
		fab := comm.NewFabric(2, hw.A6000())
		fab.SetTracer(tr, "self")
		fab.Run(func(d *comm.Device) {
			d.AllGatherFlat(d.World(), []float32{float32(d.Rank)}, nil)
			d.AllReduceSum(d.World(), []float32{1, 2})
			d.Barrier(d.World())
			d.SetSideChannel(true)
			parts := [][]float32{{9}, {10}}
			if d.Rank == 1 {
				parts[0] = toRank0
			}
			d.AllToAll(d.World(), parts)
			d.SetSideChannel(false)
		})
		return fab
	}
	tr := trace.NewTracer(0)
	fab := run(tr, []float32{9})
	s := tr.Sessions()[0]
	if err := checkSession(fab, s); err != nil {
		t.Fatalf("real traced run rejected: %v", err)
	}
	// Meter cross-check must notice when meters and trace disagree. With
	// rank 1's part to rank 0 emptied, rank 0 still injects the most, so
	// every clock matches the trace, but the fabric meters fewer bytes.
	err := checkSession(run(nil, []float32{}), s)
	if err == nil || !strings.Contains(err.Error(), "fabric metered") {
		t.Fatalf("disagreeing meters should fail the trace cross-check, got %v", err)
	}
}

func TestNoDeadlock(t *testing.T) {
	if err := noDeadlock(time.Second, func() {}); err != nil {
		t.Fatalf("returning function flagged: %v", err)
	}
	block := make(chan struct{})
	defer close(block)
	if err := noDeadlock(50*time.Millisecond, func() { <-block }); err == nil {
		t.Fatal("blocked function not flagged as deadlock")
	}
	if err := noDeadlock(time.Second, func() { panic("boom") }); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panicking function should surface as error, got %v", err)
	}
}

func TestPermuteProblemMovesEntries(t *testing.T) {
	prob := DefaultProblem(3, 16, 4, 2)
	perm := RandomPerm(9, prob.N())
	twin := prob.Permute(perm)
	if twin.A.NNZ() != prob.A.NNZ() {
		t.Fatalf("permutation changed NNZ: %d -> %d", prob.A.NNZ(), twin.A.NNZ())
	}
	// Every entry A[i,j] must appear bitwise at A'[perm[i],perm[j]].
	for i := 0; i < prob.A.Rows; i++ {
		for p := prob.A.RowPtr[i]; p < prob.A.RowPtr[i+1]; p++ {
			j, v := int(prob.A.ColIdx[p]), prob.A.Val[p]
			if got := twin.A.At(perm[i], perm[j]); got != v {
				t.Fatalf("A[%d,%d]=%v landed at A'[%d,%d]=%v", i, j, v, perm[i], perm[j], got)
			}
		}
	}
	for i := 0; i < prob.X.Rows; i++ {
		for c := 0; c < prob.X.Cols; c++ {
			if twin.X.Row(perm[i])[c] != prob.X.Row(i)[c] {
				t.Fatalf("X row %d not moved bitwise to row %d", i, perm[i])
			}
		}
	}
	for i, l := range prob.Labels {
		if twin.Labels[perm[i]] != l {
			t.Fatalf("label %d not moved to %d", i, perm[i])
		}
	}
}

func TestScaleFeaturesExact(t *testing.T) {
	prob := DefaultProblem(3, 16, 4, 2)
	scaled := ScaleFeatures(prob, 2)
	for i, v := range prob.X.Data {
		if scaled.X.Data[i] != 2*v {
			t.Fatalf("element %d: %v, want exactly %v", i, scaled.X.Data[i], 2*v)
		}
	}
	if &scaled.X.Data[0] == &prob.X.Data[0] {
		t.Fatal("ScaleFeatures must not alias the original features")
	}
	if scaled.A != prob.A {
		t.Fatal("ScaleFeatures must share the adjacency")
	}
}

// TestMetersMatchPriceSeesEveryCell pins the ledger check against a
// blind spot: on a real epoch over two link tiers (so both tiers and
// the side channel carry bytes) the meters match the price, and a few
// extra bytes in any single census cell — any kind's primary or side
// volume, or its share of either tier — fail the match.
func TestMetersMatchPriceSeesEveryCell(t *testing.T) {
	prob := DefaultProblem(7, 64, 10, 4)
	o := DiffSpec{Dims: []int{10, 8, 4}}.opts(2) // redistributes a ReLU mask
	o.Topology = topo.MustParseSpec("2x2:nvlink,ib").MustTopology(4)
	m := TrainFabric(4, prob, o, 1).Meters()
	c := scheduleFor(prob, 4, o).PriceOn(prob.A.NNZ(), hw.A6000(), o.Topology)
	if err := MetersMatchPrice(m, c); err != nil {
		t.Fatalf("real epoch rejected: %v", err)
	}
	if c.Side == 0 || c.Tier[topo.TierIntra] == 0 || c.Tier[topo.TierInter] == 0 {
		t.Fatalf("fixture must move side and both-tier bytes, priced %+v", c.Traffic)
	}
	cells := func(m *comm.Meters) []*int64 {
		var out []*int64
		for k := range hw.NumCollectiveKinds {
			out = append(out, &m.Volume[k], &m.SideVolume[k])
			for tier := range topo.NumTiers {
				out = append(out, &m.TierVolume[tier][k], &m.SideTierVolume[tier][k])
			}
		}
		return out
	}
	for i := range cells(&m) {
		bad := m
		*cells(&bad)[i] += 4
		if MetersMatchPrice(bad, c) == nil {
			t.Fatalf("census cell %d off by 4 bytes still matches the price", i)
		}
	}
}
