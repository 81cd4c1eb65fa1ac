package verify

import (
	"reflect"
	"testing"

	"gnnrdm/internal/core"
	"gnnrdm/internal/fault"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/tensor"
)

// CheckElasticOverlapEquivalence runs the same elastic training twice —
// sequential executor and overlap DAG executor, both pinned — under
// one fault schedule, and asserts the recovery path is executor-
// independent: identical world evolution (recovery count, survivors,
// rollback points), exactly equal reshard meters and per-epoch comm
// bytes, and bit-identical losses, final weights, and logits. Simulated
// clocks are NOT compared (overlap legitimately finishes earlier), so
// schedules must trigger on epochs, not on clock times — a t-triggered
// crash could fire on different rounds under the two executors.
func CheckElasticOverlapEquivalence(t testing.TB, p int, prob *core.Problem, dims []int, epochs int, faults string, eo core.ElasticOptions) {
	t.Helper()
	sched, err := fault.ParseSchedule(faults)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range sched.Events {
		if ev.Kind == fault.Crash && ev.Epoch < 0 {
			t.Fatalf("verify: %s is clock-triggered; overlap equivalence needs epoch triggers", ev)
		}
	}
	eo.Schedule = sched
	run := func(overlap bool) *core.ElasticResult {
		opts := DiffSpec{Dims: dims}.opts(0)
		opts.Overlap = overlap
		var el *core.ElasticResult
		NoGoroutineLeak(t, func() {
			el = core.TrainElastic(p, hw.A6000(), prob, opts, epochs, eo)
		})
		return el
	}
	seq := run(false)
	ovl := run(true)

	if ovl.FinalP != seq.FinalP || !reflect.DeepEqual(ovl.FinalSurvivors, seq.FinalSurvivors) {
		t.Fatalf("worlds diverge: overlap P=%d %v, sequential P=%d %v",
			ovl.FinalP, ovl.FinalSurvivors, seq.FinalP, seq.FinalSurvivors)
	}
	if len(ovl.Recoveries) != len(seq.Recoveries) {
		t.Fatalf("overlap took %d recoveries, sequential %d", len(ovl.Recoveries), len(seq.Recoveries))
	}
	for i := range ovl.Recoveries {
		o, s := ovl.Recoveries[i], seq.Recoveries[i]
		if o.AbortEpoch != s.AbortEpoch || o.ResumeEpoch != s.ResumeEpoch ||
			o.OldP != s.OldP || o.NewP != s.NewP ||
			!reflect.DeepEqual(o.Failed, s.Failed) || !reflect.DeepEqual(o.Survivors, s.Survivors) {
			t.Fatalf("recovery %d diverges across executors:\noverlap    %+v\nsequential %+v", i, o, s)
		}
		if o.ReshardBytes != s.ReshardBytes || o.PredictedReshardBytes != s.PredictedReshardBytes {
			t.Fatalf("recovery %d reshard meters diverge: overlap %d/%d, sequential %d/%d",
				i, o.ReshardBytes, o.PredictedReshardBytes, s.ReshardBytes, s.PredictedReshardBytes)
		}
		if o.ControlBytes != s.ControlBytes {
			t.Fatalf("recovery %d control-plane bytes diverge: overlap %d, sequential %d",
				i, o.ControlBytes, s.ControlBytes)
		}
		if (o.Detection == nil) != (s.Detection == nil) {
			t.Fatalf("recovery %d: detection ran on one executor only", i)
		}
		if o.Detection != nil && o.Detection.EventLog() != s.Detection.EventLog() {
			t.Fatalf("recovery %d membership event logs diverge:\n%s\n%s",
				i, o.Detection.EventLog(), s.Detection.EventLog())
		}
	}
	for ep := range seq.Epochs {
		if ovl.Epochs[ep].Loss != seq.Epochs[ep].Loss {
			t.Fatalf("epoch %d: overlap loss %v != sequential %v", ep, ovl.Epochs[ep].Loss, seq.Epochs[ep].Loss)
		}
		if ovl.Epochs[ep].CommBytes != seq.Epochs[ep].CommBytes {
			t.Fatalf("epoch %d: overlap moved %d bytes, sequential %d",
				ep, ovl.Epochs[ep].CommBytes, seq.Epochs[ep].CommBytes)
		}
	}
	if len(ovl.Weights) != len(seq.Weights) {
		t.Fatalf("weight count %d != %d", len(ovl.Weights), len(seq.Weights))
	}
	for i := range ovl.Weights {
		if tensor.MaxAbsDiff(ovl.Weights[i], seq.Weights[i]) != 0 {
			t.Fatalf("weight %d not bit-identical across executors", i)
		}
	}
	if tensor.MaxAbsDiff(ovl.Logits, seq.Logits) != 0 {
		t.Fatal("final logits not bit-identical across executors")
	}
}
