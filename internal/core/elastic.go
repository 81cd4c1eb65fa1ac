package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/fault"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/member"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
	"gnnrdm/internal/trace"
)

// ElasticOptions configures fault injection and recovery for
// TrainElastic. The zero value trains with no schedule, which is Train.
// Every world runs with CRC armed, the default retry policy and the
// fabric's default collective deadline, and TrainElastic gives up after
// the scheduled crashes + 2 world re-formations.
type ElasticOptions struct {
	// Schedule is the fault schedule to inject (nil = none). Ranks
	// address the ORIGINAL P-rank world.
	Schedule *fault.Schedule
	// FaultSeed seeds the injector's RNG (bit-flip positions). The same
	// seed and schedule reproduce the identical run, trace included.
	FaultSeed int64
	// CheckpointEvery is the number of epochs between durable
	// checkpoints (default 1). Checkpoints pass through the v2 wire
	// format, so recovery exercises the CRC-verified read path.
	CheckpointEvery int
	// Membership switches crash detection from the coordinator-driven
	// path (survivors learn the dead set instantly from the fabric) to
	// the decentralized gossip control plane (internal/member): each
	// crash triggers a SWIM detection episode in which the survivors
	// independently converge on the identical membership view before
	// re-forming the world. The episode's simulated latency is charged
	// to every survivor's clock, its per-round censuses are recorded on
	// the Recovery (priced closed-form by costmodel.GossipRoundBytes),
	// and its rounds are traced as ClassGossip spans. The re-formed
	// world — survivors, reshard traffic, final weights — is
	// byte-identical to the coordinator-driven path; only detection
	// latency and control-plane traffic differ from zero. The config's
	// Seed composes with FaultSeed and the world index so distinct
	// recoveries run distinct (but reproducible) episodes.
	Membership *member.Config
}

// Recovery records one world re-formation: which ranks were lost, where
// training rolled back to, and what the re-shard of the surviving state
// cost — both as metered by the fabric and as predicted by the cost
// model (the two must agree exactly).
type Recovery struct {
	// AbortEpoch is the epoch being attempted when the fault surfaced.
	AbortEpoch int
	// ResumeEpoch is the checkpointed epoch training rolled back to.
	ResumeEpoch int
	// OldP and NewP are the world sizes either side of the shrink
	// (equal when the world re-ran after a non-fatal fault).
	OldP, NewP int
	// Failed lists the crashed ranks, in ORIGINAL rank numbering.
	Failed []int
	// Survivors lists the surviving ranks, in ORIGINAL rank numbering;
	// index = new fabric rank.
	Survivors []int
	// ReshardBytes is the fabric volume metered while redistributing
	// the surviving A-panels and feature tiles onto the new world.
	ReshardBytes int64
	// PredictedReshardBytes is the cost model's prediction for the same
	// redistribution (costmodel.ShrinkTrafficDense + ShrinkTrafficCSR).
	PredictedReshardBytes int64
	// SimTime is the simulated clock at which the new world started
	// (max surviving clock, deadline charges included, plus the gossip
	// detection latency when membership is enabled).
	SimTime float64
	// Detection is the gossip detection episode that triggered this
	// re-formation (nil on the coordinator-driven path and for
	// re-formations with no crash). Its Latency is included in SimTime.
	Detection *member.Report
	// ControlBytes is the control-plane traffic the detection episode
	// metered (sum of encoded gossip message lengths); zero without
	// membership. PredictedControlBytes is the cost model's closed-form
	// price for the same episode census — the two must agree exactly.
	ControlBytes          int64
	PredictedControlBytes int64
}

// ElasticResult is a Result plus the recovery history of an elastic run.
type ElasticResult struct {
	Result
	// Recoveries lists every world re-formation, in order.
	Recoveries []Recovery
	// FinalP is the device count of the world that finished training.
	FinalP int
	// FinalSurvivors maps the final world's fabric ranks to ORIGINAL
	// ranks.
	FinalSurvivors []int
}

// TrainElastic runs distributed RDM training under an injected fault
// schedule with elastic recovery: when a rank crashes, the survivors
// observe typed fault errors (never a deadlock), cooperatively abandon
// the epoch, roll back to the last durable checkpoint, re-form the
// world as P' < P devices, redistribute the surviving A row panels and
// feature tiles over the fabric (metered and traced, rows of dead ranks
// re-read from storage), and continue training. Non-fatal faults
// (transient drops, CRC-caught bit flips) are absorbed by the fabric's
// retry path without re-formation. With no schedule it is Train.
//
// Determinism: with a fixed schedule, seed, and options, two runs
// produce identical losses, metered bytes, and traces. When the
// schedule crashes a rank, opts.RA must be 0 (full replication,
// re-derived per world) or 1, since a fixed replication factor cannot
// divide every shrunken world size.
func TrainElastic(p int, model *hw.Model, prob *Problem, opts Options, epochs int, eo ElasticOptions) *ElasticResult {
	if epochs < 1 {
		panic("core: TrainElastic needs at least one epoch")
	}
	res, _ := train(p, model, prob, opts, epochs, eo, nil)
	return res
}

// train is the one training driver: every world it forms runs the
// epoch loop (epochLog.run) on a fresh fabric. Every device of the first
// world restores from, when non-nil, before its first epoch; a world
// formed after a rollback restores the last durable checkpoint. It
// returns the result and the final world's rank-0 engine. With no
// schedule events nothing can fail, so the injector, the per-epoch
// checkpoints and the world-numbered trace sessions are skipped.
func train(p int, model *hw.Model, prob *Problem, opts Options, epochs int, eo ElasticOptions, from *Checkpoint) (*ElasticResult, *Engine) {
	sched := eo.Schedule
	if sched == nil {
		sched = &fault.Schedule{}
	}
	if opts.RA > 1 && len(sched.Crashes()) > 0 {
		panic(fmt.Sprintf("core: TrainElastic requires RA 0 or 1, got %d", opts.RA))
	}
	opts.withDefaults(p).validate(p, prob) // fail on the caller's goroutine, not a device's
	if err := sched.Validate(p); err != nil {
		panic(err)
	}
	faulty := len(sched.Events) > 0
	inj := fault.NewInjector(sched, eo.FaultSeed, p)
	ckEvery := eo.CheckpointEvery
	if ckEvery < 1 {
		ckEvery = 1
	}
	// World re-formations before TrainElastic gives up.
	maxRec := len(sched.Crashes()) + 2
	label := opts.TraceLabel
	if label == "" {
		label = "rdm"
		if faulty {
			label = "rdm-elastic"
		}
	}

	n, f0 := prob.N(), prob.X.Cols
	orig := make([]int, p) // orig[fabricRank] = original rank
	for i := range orig {
		orig[i] = i
	}
	clocks := make([]float64, p)
	var ckBytes []byte // last durable checkpoint, wire format
	ckEpoch := 0       // epochs it captures (0 = the starting state)
	resume := from

	res := &ElasticResult{}
	epochStats := make([]EpochStats, epochs)
	var pendingShrink *dist.ShrinkSpec // set when this world was formed by a shrink

	for world := 0; ; world++ {
		curP := len(orig)
		fabric := comm.NewFabric(curP, model)
		if opts.Topology != nil {
			// The topology covers the original P and survivor ranks are
			// renumbered contiguously from 0, so reattaching it to every
			// shrunk world is always legal (curP <= P).
			fabric.SetTopology(opts.Topology)
		}
		if opts.Tracer != nil {
			session := label
			if faulty {
				session = fmt.Sprintf("%s/w%d", label, world)
			}
			fabric.SetTracer(opts.Tracer, session)
		}
		fabric.SeedClocks(clocks)
		fabric.SetRetryPolicy(comm.DefaultRetryPolicy())
		fabric.EnableCRC(true)
		if faulty {
			inj.Remap(orig)
			inj.Arm(fabric)
		}

		if ckBytes != nil {
			cp, err := ReadCheckpoint(bytes.NewReader(ckBytes))
			if err != nil {
				// The durable snapshot itself is damaged; nothing sound
				// to roll back to.
				panic(fmt.Errorf("core: restoring checkpoint for world %d: %w", world, err))
			}
			resume = cp
		}
		startEpoch := ckEpoch

		var rec *Recovery
		if world > 0 {
			rec = &res.Recoveries[len(res.Recoveries)-1]
		}

		engines := make([]*Engine, curP)
		crashed := make([]bool, curP)
		aborted := make([]error, curP)
		log := newEpochLog(curP, startEpoch)
		ckCandidate := make(map[int][]byte) // completed-epoch count -> snapshot bytes

		fabric.Run(func(d *comm.Device) {
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if _, ok := r.(comm.Killed); ok {
					crashed[d.Rank] = true
					panic(r) // fabric suppresses Killed and marks the rank dead
				}
				if err, ok := r.(error); ok {
					var fe *comm.FaultError
					if errors.As(err, &fe) {
						aborted[d.Rank] = err // cooperative abort; exiting wakes blocked peers
						return
					}
				}
				panic(r) // genuine bug (or a bad resume checkpoint): let the fabric re-raise it
			}()

			eng := NewEngine(d, prob, opts)
			engines[d.Rank] = eng
			if resume != nil {
				if err := eng.Restore(resume); err != nil {
					panic(err)
				}
			}

			if pendingShrink != nil {
				// Recovery traffic: move the surviving H row panels of A
				// and tiles of X onto the new partition. Injected round
				// faults are suppressed — this is the recovery path itself.
				d.SetFaultEpoch(-1)
				d.TraceBeginPhase("recovery")
				sp := *pendingShrink
				oldLo, oldHi := dist.PartRange(n, sp.OldP, sp.Survivors[d.Rank])
				oldX := tensor.NewDense(oldHi-oldLo, f0)
				copy(oldX.Data, prob.X.Data[oldLo*f0:oldHi*f0])
				dist.ShrinkReshard(d, sp, n, f0, oldX, func(lo, hi int) *tensor.Dense {
					blk := tensor.NewDense(hi-lo, f0)
					copy(blk.Data, prob.X.Data[lo*f0:hi*f0])
					return blk
				})
				dist.ShrinkReshardCSR(d, sp, n, prob.A.RowPanel(oldLo, oldHi),
					func(lo, hi int) *sparse.CSR { return prob.A.RowPanel(lo, hi) })
				d.TraceEndPhase()
				d.Barrier(d.World())
				if d.Rank == 0 {
					// Peers are parked at the barrier; snapshot is race-free.
					rec.ReshardBytes = fabric.TotalVolume()
				}
			}

			log.run(d, readClocks(d), epochs, func(ep int) (float64, float64) {
				if faulty {
					d.SetFaultEpoch(ep)
					inj.AtEpochStart(d, ep) // may panic Killed
				}
				loss := eng.Epoch()
				acc := 0.0
				if opts.EvalMask != nil {
					acc = eng.EvalAccuracy(opts.EvalMask)
				}
				if faulty && d.Rank == 0 && (ep+1-startEpoch)%ckEvery == 0 {
					// Kept only if every device completes the epoch.
					var buf bytes.Buffer
					if err := eng.Snapshot().Write(&buf); err != nil {
						panic(err)
					}
					ckCandidate[ep+1] = buf.Bytes()
				}
				return loss, acc
			})
		})

		// An epoch's numbers are trustworthy once every device completed
		// it (replayed epochs overwrite, so the final timeline wins).
		var base int64
		if pendingShrink != nil {
			base = rec.ReshardBytes
		}
		completed := log.fold(epochStats, base)

		// Durable checkpoints: every checkpoint rank 0 cut at a completed
		// epoch boundary made it to storage, crash or not.
		for e, b := range ckCandidate {
			if e <= startEpoch+completed && e > ckEpoch {
				ckEpoch, ckBytes = e, b
			}
		}

		var failed []int
		for fr, dead := range crashed {
			if dead {
				failed = append(failed, orig[fr])
			}
		}
		anyAbort := false
		for _, err := range aborted {
			if err != nil {
				anyAbort = true
			}
		}

		if len(failed) == 0 && !anyAbort {
			// Clean finish: assemble the final result from this world.
			res.Epochs = epochStats
			res.Weights = engines[0].Weights()
			if epochs > 0 {
				tiles := make([]*dist.Mat, curP)
				for r := 0; r < curP; r++ {
					tiles[r] = engines[r].LastLogits()
				}
				res.Logits = dist.Assemble(tiles)
			} else {
				// Zero-epoch run: no forward pass produced logits.
				res.Logits = tensor.NewDense(0, 0)
			}
			res.FinalP = curP
			res.FinalSurvivors = orig
			return res, engines[0]
		}

		if len(res.Recoveries) >= maxRec {
			panic(fmt.Sprintf("core: %d recoveries exhausted (failed ranks %v)", maxRec, failed))
		}

		// Re-form the world from the survivors and roll back.
		var survFab []int
		for fr := 0; fr < curP; fr++ {
			if !crashed[fr] {
				survFab = append(survFab, fr)
			}
		}
		if len(survFab) == 0 {
			panic("core: no survivors to re-form the world from")
		}
		maxClock := 0.0
		newOrig := make([]int, len(survFab))
		for i, fr := range survFab {
			newOrig[i] = orig[fr]
			maxClock = math.Max(maxClock, fabric.Device(fr).Clock())
		}

		// Decentralized detection: before the survivors may re-form, each
		// must independently learn the dead set through the gossip control
		// plane. The episode starts at the last survivor's clock and its
		// latency is charged to every survivor (re-formation synchronizes
		// them at maxClock + detection latency).
		var det *member.Report
		if len(failed) > 0 && eo.Membership != nil && curP >= 2 {
			var failedFab []int
			for fr, dead := range crashed {
				if dead {
					failedFab = append(failedFab, fr)
				}
			}
			cfg := eo.Membership.WithDefaults()
			cfg.Seed = cfg.Seed ^ (eo.FaultSeed+1)*0x1000003 ^ int64(world+1)
			det = member.Detect(curP, failedFab, cfg)
			if !det.Converged {
				panic(fmt.Sprintf("core: gossip detection did not converge at P=%d (dead %v)", curP, failedFab))
			}
			if opts.Tracer != nil {
				// Gossip rounds trace on a virtual row (rank curP) like
				// serve's request spans: control-plane time reads alongside
				// — but never interleaves with — device timelines.
				for _, rc := range det.PerRound {
					start := maxClock + float64(float64(rc.Round)*cfg.Period)
					opts.Tracer.Emit(curP, trace.Event{
						Class:     trace.ClassGossip,
						Op:        "gossip-round",
						Seq:       uint64(rc.Round),
						GroupSize: curP,
						Bytes:     rc.Bytes,
						Start:     start,
						End:       start + cfg.Period,
					})
				}
			}
			maxClock += det.Latency
		}

		recNew := Recovery{
			AbortEpoch:  startEpoch + completed,
			ResumeEpoch: ckEpoch,
			OldP:        curP,
			NewP:        len(survFab),
			Failed:      failed,
			Survivors:   newOrig,
			SimTime:     maxClock,
		}
		if det != nil {
			recNew.Detection = det
			recNew.ControlBytes = det.Bytes
			for _, rc := range det.PerRound {
				recNew.PredictedControlBytes += costmodel.GossipRoundBytes(rc.Msgs, rc.Updates)
			}
		}
		if len(failed) > 0 {
			rowNNZ := make([]int, n)
			for r := range rowNNZ {
				rowNNZ[r] = int(prob.A.RowPtr[r+1] - prob.A.RowPtr[r])
			}
			recNew.PredictedReshardBytes = costmodel.ShrinkTrafficDense(n, f0, curP, survFab) +
				costmodel.ShrinkTrafficCSR(n, curP, survFab, rowNNZ)
			pendingShrink = &dist.ShrinkSpec{OldP: curP, Survivors: survFab}
		} else {
			pendingShrink = nil // same world re-runs; nothing to move
		}
		res.Recoveries = append(res.Recoveries, recNew)

		orig = newOrig
		clocks = make([]float64, len(survFab))
		for i := range clocks {
			clocks[i] = maxClock // re-formation synchronizes the survivors
		}
	}
}
