package trace

import (
	"strings"
	"testing"
)

func TestRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	tr.StartSession("s", 1)
	for i := 0; i < 10; i++ {
		tr.Emit(0, Event{Class: ClassKernel, Op: "gemm", Start: float64(i), End: float64(i) + 0.5})
	}
	sess := tr.Sessions()[0]
	evs := sess.Events(0)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4 (ring capacity)", len(evs))
	}
	// The four most recent events, in chronological order.
	for i, ev := range evs {
		if want := float64(6 + i); ev.Start != want {
			t.Errorf("event %d start = %v, want %v", i, ev.Start, want)
		}
	}
	if got := sess.Dropped(0); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	if got := sess.Total(0); got != 10 {
		t.Errorf("Total = %d, want 10", got)
	}
}

func TestScopeStamping(t *testing.T) {
	tr := NewTracer(0)
	tr.StartSession("s", 2)
	tr.SetEpochAt(1, 0, 3)
	tr.SetLayerAt(1, 0, 2)
	tr.SetDirAt(1, 0, "bwd")
	tr.SetConfigAt(1, 0, "fwd[sd] bwd[ds]")
	tr.Emit(1, Event{Class: ClassCollective, Op: "allreduce", Start: 1, End: 2})
	ev := tr.Sessions()[0].Events(1)[0]
	if ev.Epoch != 3 || ev.Layer != 2 || ev.Dir != "bwd" || ev.Config != "fwd[sd] bwd[ds]" {
		t.Errorf("scope tags not stamped: %+v", ev)
	}
	// Rank 0's scope is independent.
	tr.Emit(0, Event{Class: ClassKernel, Op: "gemm"})
	if ev := tr.Sessions()[0].Events(0)[0]; ev.Epoch != 0 || ev.Dir != "" {
		t.Errorf("rank 0 scope leaked from rank 1: %+v", ev)
	}
}

func TestPhaseNesting(t *testing.T) {
	tr := NewTracer(0)
	tr.StartSession("s", 1)
	tr.BeginPhaseAt(0, 0, "epoch", 0)
	tr.BeginPhaseAt(0, 0, "forward", 1)
	tr.EndPhaseAt(0, 0, 5)
	tr.EndPhaseAt(0, 0, 9)
	tr.EndPhaseAt(0, 0, 99) // unbalanced: ignored
	evs := tr.Sessions()[0].Events(0)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Op != "forward" || evs[0].Start != 1 || evs[0].End != 5 {
		t.Errorf("inner phase = %+v", evs[0])
	}
	if evs[1].Op != "epoch" || evs[1].Start != 0 || evs[1].End != 9 {
		t.Errorf("outer phase = %+v", evs[1])
	}
}

func TestMultipleSessions(t *testing.T) {
	tr := NewTracer(0)
	tr.StartSession("a", 1)
	tr.Emit(0, Event{Class: ClassKernel, Op: "gemm"})
	tr.StartSession("b", 1)
	tr.Emit(0, Event{Class: ClassKernel, Op: "spmm"})
	ss := tr.Sessions()
	if len(ss) != 2 {
		t.Fatalf("got %d sessions, want 2", len(ss))
	}
	if ss[0].Events(0)[0].Op != "gemm" || ss[1].Events(0)[0].Op != "spmm" {
		t.Errorf("events landed in the wrong session")
	}
}

func TestHistBucket(t *testing.T) {
	cases := []struct {
		dur  float64
		want int
	}{
		{0, 0}, {-1, 0}, {1e-12, 0}, {1e-9, 0}, {5e-9, 0},
		{1e-6, 3}, {1e-3, 6}, {0.5, 8}, {1, 9}, {10, 10}, {1e9, HistBuckets - 1},
	}
	for _, c := range cases {
		if got := histBucket(c.dur); got != c.want {
			t.Errorf("histBucket(%v) = %d, want %d", c.dur, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	tr := NewTracer(0)
	tr.StartSession("s", 2)
	tr.Emit(0, Event{Class: ClassKernel, Op: "gemm", Flops: 100, Start: 0, End: 1})
	tr.Emit(0, Event{Class: ClassCollective, Op: "allreduce", Bytes: 64, Start: 1, End: 3})
	tr.Emit(0, Event{Class: ClassPhase, Op: "epoch", Start: 0, End: 3})
	tr.Emit(1, Event{Class: ClassCollective, Op: "allreduce", Bytes: 64, Start: 0, End: 3})
	sum := Summarize(tr)
	if len(sum.Sessions) != 1 {
		t.Fatalf("got %d sessions", len(sum.Sessions))
	}
	ss := sum.Sessions[0]
	if ss.Ranks[0].ComputeTime != 1 || ss.Ranks[0].CommTime != 2 {
		t.Errorf("rank 0 totals = %+v", ss.Ranks[0])
	}
	if ss.Ranks[1].CommTime != 3 {
		t.Errorf("rank 1 comm = %v, want 3", ss.Ranks[1].CommTime)
	}
	if ss.MaxCommTime != 3 || ss.MaxComputeTime != 1 || ss.MaxClock != 3 {
		t.Errorf("maxima = %+v", ss)
	}
	// Phases must not enter the comm/compute totals.
	var ar *OpStat
	for _, st := range ss.Ops {
		if st.Class == ClassCollective && st.Op == "allreduce" {
			ar = st
		}
	}
	if ar == nil || ar.Count != 2 || ar.Bytes != 128 || ar.SimTime != 5 {
		t.Errorf("allreduce stat = %+v", ar)
	}
	// Ops sorted by (class, op): kernel < collective < phase.
	if ss.Ops[0].Class != ClassKernel || ss.Ops[len(ss.Ops)-1].Class != ClassPhase {
		t.Errorf("ops not sorted by class: %v", ss.Ops)
	}
}

func TestSummarizeNil(t *testing.T) {
	sum := Summarize(nil)
	if len(sum.Sessions) != 0 {
		t.Fatalf("nil tracer summary has sessions")
	}
	var sb strings.Builder
	if err := sum.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
}
