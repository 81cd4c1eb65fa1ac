package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"time"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
	"gnnrdm/internal/trace"
	"gnnrdm/internal/verify"
)

// trainSpec is a live training workload: one op is one Engine.Epoch on
// every device of a flat fabric.
type trainSpec struct {
	recipe graph.Recipe
	dims   []int
	p      int
	config int
	budget time.Duration // per replayed call, set by sized
}

// trainWarmup is both the warm-up length and the number of leading epochs
// compared against core.ReferenceTrain.
const trainWarmup = 3

func (s trainSpec) sized(smoke bool) trainSpec {
	s.budget = budgetFor(smoke)
	if smoke {
		s.recipe = s.recipe.Scaled(64)
		s.p = min(s.p, 4)
	}
	return s
}

// trainInst keeps the P device goroutines of one fabric.Run parked between
// ops; op releases them for one epoch and waits for all of them, which is
// the barrier either side of the epoch.
type trainInst struct {
	spec    trainSpec
	prob    *core.Problem
	opts    core.Options
	fab     *comm.Fabric
	engines []*core.Engine
	cmds    []chan struct{}
	done    chan struct{} // one send per device per epoch
	stopped chan struct{} // closed when fabric.Run has returned

	priceBytes int64 // Schedule.Price's bytes for one epoch

	// Written by the devices between an epoch's two fabric barriers, read
	// by the harness after every device has reported done.
	loss   float64
	clocks []float64
	volume int64
	calls  int64

	prevClocks  []float64
	prevVolume  int64
	prevCalls   int64
	lastBytes   int64 // the last epoch's metered bytes
	lastCalls   int64 // and collective rounds
	epochs      int
	warmLosses  []float64
	fingerprint string // loss bits and weight CRC after the warm-up epochs
}

func buildProblem(rec graph.Recipe, seed int64, sp *spans) *core.Problem {
	rec.Seed = seed
	id := sp.begin("graph.Recipe.Build", -1)
	g := rec.Build()
	sp.end(id)
	id = sp.begin("sparse.GCNNormalize", -1)
	a := sparse.GCNNormalize(g.Adj)
	sp.end(id)
	return &core.Problem{A: a, X: g.Features, Labels: g.Labels, TrainMask: g.TrainMask}
}

func setupTrain(spec trainSpec, seed int64, sp *spans) instance {
	t := &trainInst{
		spec: spec,
		prob: buildProblem(spec.recipe, seed, sp),
		opts: core.Options{
			Dims: spec.dims, Config: costmodel.ConfigFromID(spec.config, len(spec.dims)-1),
			Memoize: true, Seed: seed,
		},
		engines:    make([]*core.Engine, spec.p),
		cmds:       make([]chan struct{}, spec.p),
		done:       make(chan struct{}, spec.p),
		stopped:    make(chan struct{}),
		clocks:     make([]float64, spec.p),
		prevClocks: make([]float64, spec.p),
	}
	for r := range t.cmds {
		t.cmds[r] = make(chan struct{})
	}
	id := sp.begin("core.NewEngine", -1)
	t.fab = comm.NewFabric(spec.p, model)
	go func() {
		defer close(t.stopped)
		t.fab.Run(t.device)
	}()
	t.await()
	sp.end(id)
	t.priceBytes = priceBytes(t.engines[0], t.prob)
	for i := 0; i < trainWarmup; i++ {
		t.op(i-trainWarmup, sp)
		t.warmLosses = append(t.warmLosses, t.loss)
	}
	t.fingerprint = fmt.Sprintf("%016x-%08x", math.Float64bits(t.loss), weightsCRC(t.engines[0].Weights()))
	return t
}

// priceBytes is what the planner says one epoch moves, side channel
// included: the figure the fabric's meters must reproduce.
func priceBytes(eng *core.Engine, prob *core.Problem) int64 {
	c := eng.Schedule().Price(prob.A.NNZ(), model)
	return c.AllToAll + c.AllGather + c.AllReduce + c.Side
}

// device is one device's life: build the engine, then run an epoch per
// command, following core.TrainResumable's barrier and snapshot protocol so
// that simulated epoch times mean what core.EpochStats.Time means.
func (t *trainInst) device(d *comm.Device) {
	eng := core.NewEngine(d, t.prob, t.opts)
	t.engines[d.Rank] = eng
	t.done <- struct{}{}
	for range t.cmds[d.Rank] {
		loss := eng.Epoch()
		d.Barrier(d.World())
		t.clocks[d.Rank] = d.Clock()
		if d.Rank == 0 {
			// Every other device is between the two barriers too and
			// issues nothing metered there, so the meters are still.
			t.loss = loss
			t.volume = t.fab.TotalVolume()
			t.calls = fabricCalls(t.fab)
		}
		d.Barrier(d.World())
		t.done <- struct{}{}
	}
}

func fabricCalls(f *comm.Fabric) int64 {
	var n int64
	for k := hw.CollectiveKind(0); k < hw.NumCollectiveKinds; k++ {
		n += f.Calls(k)
	}
	return n
}

func (t *trainInst) await() {
	for range t.cmds {
		<-t.done
	}
}

func (t *trainInst) op(i int, sp *spans) opResult {
	id := sp.begin("core.Engine.Epoch", i)
	t0 := time.Now()
	for _, c := range t.cmds {
		c <- struct{}{}
	}
	t.await()
	wall := time.Since(t0)
	sp.end(id)

	var sim float64
	for r, c := range t.clocks {
		sim = max(sim, c-t.prevClocks[r])
	}
	copy(t.prevClocks, t.clocks)
	t.lastBytes, t.prevVolume = t.volume-t.prevVolume, t.volume
	t.lastCalls, t.prevCalls = t.calls-t.prevCalls, t.calls
	t.epochs++

	res := opResult{wall: wall, simMs: sim * 1e3, bytes: t.lastBytes}
	if math.IsNaN(t.loss) || math.IsInf(t.loss, 0) {
		fmt.Fprintf(os.Stderr, "check failed: epoch %d loss %v is not finite\n", t.epochs, t.loss)
		res.failed = true
	}
	if t.lastBytes != t.priceBytes {
		fmt.Fprintf(os.Stderr, "check failed: epoch %d metered %d bytes, Schedule.Price says %d\n",
			t.epochs, t.lastBytes, t.priceBytes)
		res.failed = true
	}
	return res
}

// verify compares the warm-up epochs' losses with the single-device
// reference trainer, within the float32 tolerance internal/verify
// documents. The fingerprint is taken after the same fixed number of
// epochs on every run, so it is comparable across runs and commits.
func (t *trainInst) verify() (attempted, failed int, fingerprint string) {
	ref := core.ReferenceTrain(t.prob, t.opts, trainWarmup)
	for ep, want := range ref.Losses {
		attempted++
		if got := t.warmLosses[ep]; !(math.Abs(got-want) <= verify.LossTol) {
			fmt.Fprintf(os.Stderr, "check failed: epoch %d loss %.9g, reference %.9g (tolerance %g)\n",
				ep, got, want, verify.LossTol)
			failed++
		}
	}
	return attempted, failed, t.fingerprint
}

// weightsCRC hashes the bit patterns of a replicated weight set.
func weightsCRC(ws []*tensor.Dense) uint32 {
	h := crc32.NewIEEE()
	var b [4]byte
	for _, w := range ws {
		for _, v := range w.Data {
			bits := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
			h.Write(b[:])
		}
	}
	return h.Sum32()
}

func (t *trainInst) close() {
	for _, c := range t.cmds {
		close(c)
	}
	<-t.stopped
}

// layers decomposes the traced epochs. The epoch is one call from outside,
// so its inside is attributed by replaying the schedule's ops shape by
// shape (replay.go); whatever the replayed tensor, sparse, dist and comm
// time leaves of the epoch wall is core's own: the interpreter,
// element-wise kernels, loss, Adam and the goroutines each kernel call
// spawns.
func (t *trainInst) layers(sp *spans, opWallMs float64, out map[string]float64) (attempted, failed int) {
	out["graph.build_ms"] = sp.perCall("graph.Recipe.Build")
	out["sparse.gcn_normalize_ms"] = sp.perCall("sparse.GCNNormalize")
	out["core.new_engine_ms"] = sp.perCall("core.NewEngine")

	sched := t.engines[0].Schedule()
	rp := newReplay(sched, t.prob.A, t.spec.budget)
	rp.extraBarriers = 2 // the protocol's two fabric barriers per epoch
	rp.run()
	rp.fill(out)
	out["plan.ops_per_schedule"] = float64(sched.Ops())
	out["core.epoch_self_ms"] = opWallMs - busyMs(out)
	out["core.epoch_self_frac"] = out["core.epoch_self_ms"] / opWallMs

	// Counts and bytes three ways: the replay (schedule shapes on a fresh
	// fabric), the workload fabric's meters, and internal/trace's op
	// inventory of one more epoch. They must agree exactly.
	inv := t.inventory()
	check := func(what string, replayed int64, others ...int64) {
		attempted++
		for _, v := range others {
			if v != replayed {
				fmt.Fprintf(os.Stderr, "check failed: %s per epoch: replay %d, trace inventory and fabric meters %d\n",
					what, replayed, others)
				failed++
				return
			}
		}
	}
	check("collective calls", rp.commCalls, inv.collectives, t.lastCalls)
	check("collective bytes", rp.commBytes, inv.bytes, t.lastBytes)
	// The fabric keeps no kernel meters; the inventory stands alone there.
	check("dense kernel calls", rp.denseCalls, inv.gemms)
	check("SpMM calls", rp.spmmCalls, inv.spmms)
	return attempted, failed
}

// inventory is one epoch's op census as internal/trace records it on rank
// 0 (kernels) and across the fabric (collectives are recorded once per
// participant, so their counts and bytes are divided by P).
type inventory struct {
	gemms, spmms, collectives, bytes int64
}

func (t *trainInst) inventory() inventory {
	tr := trace.NewTracer(0)
	fab := comm.NewFabric(t.spec.p, model)
	fab.SetTracer(tr, "inventory")
	fab.Run(func(d *comm.Device) {
		core.NewEngine(d, t.prob, t.opts).Epoch()
	})
	var inv inventory
	for _, st := range trace.SummarizeSession(tr.Sessions()[0]).Ops {
		switch {
		case st.Class == trace.ClassKernel && st.Op == "gemm":
			inv.gemms = st.Count / int64(t.spec.p)
		case st.Class == trace.ClassKernel && st.Op == "spmm":
			inv.spmms = st.Count / int64(t.spec.p)
		case st.Class == trace.ClassCollective && st.Op != "barrier":
			inv.collectives += st.Count / int64(t.spec.p)
			inv.bytes += st.Bytes / int64(t.spec.p)
		}
	}
	return inv
}
