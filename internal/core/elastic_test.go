package core

import (
	"math"
	"reflect"
	"testing"

	"gnnrdm/internal/fault"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/tensor"
)

func elasticOpts(t *testing.T, faults string) ElasticOptions {
	t.Helper()
	sched, err := fault.ParseSchedule(faults)
	if err != nil {
		t.Fatal(err)
	}
	return ElasticOptions{Schedule: sched, FaultSeed: 1}
}

func TestElasticNoFaultsMatchesTrain(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	opts := testOpts([]int{12, 10, 6}, 0)
	plain := Train(4, hw.A6000(), prob, opts, 4)
	el := TrainElastic(4, hw.A6000(), prob, opts, 4, ElasticOptions{})
	if len(el.Recoveries) != 0 || el.FinalP != 4 {
		t.Fatalf("fault-free elastic run recovered: %+v", el.Recoveries)
	}
	if !reflect.DeepEqual(plain.Epochs, el.Epochs) {
		t.Fatalf("fault-free elastic epochs differ from Train:\n%+v\n%+v", el.Epochs, plain.Epochs)
	}
	if tensor.MaxAbsDiff(plain.Logits, el.Logits) != 0 {
		t.Fatal("fault-free elastic logits differ from Train")
	}
	for i := range plain.Weights {
		if !reflect.DeepEqual(plain.Weights[i].Data, el.Weights[i].Data) {
			t.Fatalf("fault-free elastic weight %d differs from Train", i)
		}
	}
}

func TestElasticCrashShrinksAndConverges(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	opts := testOpts([]int{12, 10, 6}, 0)
	el := TrainElastic(4, hw.A6000(), prob, opts, 6, elasticOpts(t, "crash@rank1:epoch3"))
	if len(el.Recoveries) != 1 {
		t.Fatalf("want exactly one recovery, got %+v", el.Recoveries)
	}
	rec := el.Recoveries[0]
	if rec.OldP != 4 || rec.NewP != 3 || !reflect.DeepEqual(rec.Failed, []int{1}) ||
		!reflect.DeepEqual(rec.Survivors, []int{0, 2, 3}) {
		t.Fatalf("recovery record wrong: %+v", rec)
	}
	if rec.AbortEpoch != 3 || rec.ResumeEpoch != 3 {
		t.Fatalf("rollback points wrong: abort %d resume %d", rec.AbortEpoch, rec.ResumeEpoch)
	}
	if rec.ReshardBytes == 0 || rec.ReshardBytes != rec.PredictedReshardBytes {
		t.Fatalf("reshard meter %d != prediction %d", rec.ReshardBytes, rec.PredictedReshardBytes)
	}
	if el.FinalP != 3 || !reflect.DeepEqual(el.FinalSurvivors, []int{0, 2, 3}) {
		t.Fatalf("final world wrong: P=%d survivors=%v", el.FinalP, el.FinalSurvivors)
	}
	// The shrunken world must keep training the same model: compare with
	// an uninterrupted run (different P changes float reduction order, so
	// tolerance, not equality).
	straight := Train(4, hw.A6000(), prob, opts, 6)
	if d := math.Abs(el.Epochs[len(el.Epochs)-1].Loss - straight.Epochs[len(straight.Epochs)-1].Loss); d > 1e-3 {
		t.Fatalf("post-recovery loss %v vs straight %v (|d|=%g)", el.Epochs[len(el.Epochs)-1].Loss, straight.Epochs[len(straight.Epochs)-1].Loss, d)
	}
	for _, es := range el.Epochs {
		if es.Time <= 0 {
			t.Fatalf("epoch missing makespan: %+v", el.Epochs)
		}
	}
	if rec.SimTime <= 0 {
		t.Fatal("recovery carries no simulated time")
	}
}

func TestElasticDoubleCrash(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	opts := testOpts([]int{12, 10, 6}, 0)
	el := TrainElastic(4, hw.A6000(), prob, opts, 6,
		elasticOpts(t, "crash@rank1:epoch2,crash@rank3:epoch4"))
	if len(el.Recoveries) != 2 {
		t.Fatalf("want two recoveries, got %+v", el.Recoveries)
	}
	if el.FinalP != 2 || !reflect.DeepEqual(el.FinalSurvivors, []int{0, 2}) {
		t.Fatalf("final world wrong: P=%d survivors=%v", el.FinalP, el.FinalSurvivors)
	}
	for i, rec := range el.Recoveries {
		if rec.ReshardBytes != rec.PredictedReshardBytes {
			t.Fatalf("recovery %d: meter %d != prediction %d", i, rec.ReshardBytes, rec.PredictedReshardBytes)
		}
	}
	if !(el.Epochs[len(el.Epochs)-1].Loss < el.Epochs[0].Loss) {
		t.Fatalf("loss did not improve: %v -> %v", el.Epochs[0].Loss, el.Epochs[len(el.Epochs)-1].Loss)
	}
}

func TestElasticSimultaneousCrashes(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	opts := testOpts([]int{12, 10, 6}, 0)
	el := TrainElastic(8, hw.A6000(), prob, opts, 4,
		elasticOpts(t, "crash@rank1:epoch1,crash@rank3:epoch1,crash@rank5:epoch1,crash@rank6:epoch1"))
	if len(el.Recoveries) != 1 {
		t.Fatalf("want one recovery for simultaneous crashes, got %+v", el.Recoveries)
	}
	rec := el.Recoveries[0]
	if rec.OldP != 8 || rec.NewP != 4 || !reflect.DeepEqual(rec.Survivors, []int{0, 2, 4, 7}) {
		t.Fatalf("recovery record wrong: %+v", rec)
	}
	if rec.ReshardBytes != rec.PredictedReshardBytes {
		t.Fatalf("meter %d != prediction %d", rec.ReshardBytes, rec.PredictedReshardBytes)
	}
}

func TestElasticDropAbsorbedWithoutRecovery(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	opts := testOpts([]int{12, 10, 6}, 0)
	clean := TrainElastic(4, hw.A6000(), prob, opts, 3, ElasticOptions{})
	dropped := TrainElastic(4, hw.A6000(), prob, opts, 3, elasticOpts(t, "drop@rank2:epoch1:n2"))
	if len(dropped.Recoveries) != 0 {
		t.Fatalf("retryable drop forced a recovery: %+v", dropped.Recoveries)
	}
	// Retries change simulated time but never the arithmetic.
	for ep := range clean.Epochs {
		if clean.Epochs[ep].Loss != dropped.Epochs[ep].Loss {
			t.Fatalf("epoch %d: dropped-round loss %v != clean %v", ep,
				dropped.Epochs[ep].Loss, clean.Epochs[ep].Loss)
		}
	}
	if dropped.Epochs[1].Time <= clean.Epochs[1].Time {
		t.Fatal("retried epoch charged no extra simulated time")
	}
}

func TestElasticFlipCaughtByCRC(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	opts := testOpts([]int{12, 10, 6}, 0)
	clean := TrainElastic(4, hw.A6000(), prob, opts, 3, ElasticOptions{})
	flipped := TrainElastic(4, hw.A6000(), prob, opts, 3, elasticOpts(t, "flip@rank0:epoch1"))
	if len(flipped.Recoveries) != 0 {
		t.Fatalf("CRC-retried flip forced a recovery: %+v", flipped.Recoveries)
	}
	for ep := range clean.Epochs {
		if clean.Epochs[ep].Loss != flipped.Epochs[ep].Loss {
			t.Fatalf("epoch %d: flip leaked through CRC: %v != %v", ep,
				flipped.Epochs[ep].Loss, clean.Epochs[ep].Loss)
		}
	}
}

func TestElasticDeterminism(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	opts := testOpts([]int{12, 10, 6}, 0)
	eo := func() ElasticOptions {
		return ElasticOptions{
			Schedule:  mustSched(t, "crash@rank2:epoch2,slow@rank0:1.5x,drop@rank1:epoch1"),
			FaultSeed: 1337,
		}
	}
	a := TrainElastic(4, hw.A6000(), prob, opts, 5, eo())
	b := TrainElastic(4, hw.A6000(), prob, opts, 5, eo())
	if !reflect.DeepEqual(a.Recoveries, b.Recoveries) {
		t.Fatalf("recovery histories differ:\n%+v\n%+v", a.Recoveries, b.Recoveries)
	}
	if !reflect.DeepEqual(a.Epochs, b.Epochs) {
		t.Fatalf("epoch stats differ:\n%+v\n%+v", a.Epochs, b.Epochs)
	}
	if tensor.MaxAbsDiff(a.Logits, b.Logits) != 0 {
		t.Fatal("logits differ between identical seeded runs")
	}
}

func TestElasticCheckpointCadence(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	opts := testOpts([]int{12, 10, 6}, 0)
	eo := elasticOpts(t, "crash@rank1:epoch4")
	eo.CheckpointEvery = 3
	el := TrainElastic(4, hw.A6000(), prob, opts, 6, eo)
	if len(el.Recoveries) != 1 {
		t.Fatalf("want one recovery, got %+v", el.Recoveries)
	}
	// Crash at epoch 4, checkpoints at epoch boundaries 3, 6: rollback
	// must land on 3, replaying epoch 3's completed work.
	if el.Recoveries[0].ResumeEpoch != 3 || el.Recoveries[0].AbortEpoch != 4 {
		t.Fatalf("cadence-3 rollback wrong: %+v", el.Recoveries[0])
	}
}

func mustSched(t *testing.T, s string) *fault.Schedule {
	t.Helper()
	sched, err := fault.ParseSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}
