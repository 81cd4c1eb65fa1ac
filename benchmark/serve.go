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
	"gnnrdm/internal/dist"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/serve"
	"gnnrdm/internal/verify"
)

// serveSpec is a request-path workload: one op is a fresh serve.Session
// answering one generated query stream (Session.Serve then Report). The
// stream is open-loop inside the library's simulated clock; on the host the
// harness is a single caller that waits for each Serve to return.
type serveSpec struct {
	recipe   graph.Recipe
	dims     []int
	p        int
	config   int
	maxBatch int
	deadline float64
	cacheCap int
	queries  int
	users    int64
	skew     float64
	rate     float64
	budget   time.Duration // per replayed call, set by sized
}

// serveSamples is how many served answers verify compares with
// serve.Reference.
const serveSamples = 64

func (s serveSpec) sized(smoke bool) serveSpec {
	s.budget = budgetFor(smoke)
	if smoke {
		s.recipe = s.recipe.Scaled(64)
		s.queries /= 64
		s.cacheCap /= 64
	}
	return s
}

type serveInst struct {
	spec serveSpec
	seed int64
	prob *core.Problem
	cfg  serve.Config

	// The warm-up op's session and stream, kept for verify and layers.
	warm        *serve.Session
	warmQueries []serve.Query
}

func setupServe(spec serveSpec, seed int64, sp *spans) instance {
	s := &serveInst{
		spec: spec, seed: seed,
		prob: buildProblem(spec.recipe, seed, sp),
		cfg: serve.Config{
			HW: model, Dims: spec.dims, ConfigID: spec.config, Seed: seed,
			MaxBatch: spec.maxBatch, Deadline: spec.deadline, CacheCap: spec.cacheCap,
		},
	}
	s.prob.TrainMask = nil
	s.op(-1, sp)
	return s
}

func (s *serveInst) traffic(i int) serve.TrafficSpec {
	return serve.TrafficSpec{
		Queries: s.spec.queries, Users: s.spec.users, Skew: s.spec.skew,
		Rate: s.spec.rate, Seed: s.seed + int64(i),
	}
}

func (s *serveInst) op(i int, sp *spans) opResult {
	id := sp.begin("serve.NewSession", i)
	ses := serve.NewSession(s.prob, s.cfg)
	sp.end(id)
	id = sp.begin("serve.TrafficSpec.Generate", i)
	queries := s.traffic(i).Generate(s.prob.N())
	sp.end(id)

	t0 := time.Now()
	id = sp.begin("serve.Session.Serve", i)
	ses.Serve(s.spec.p, queries)
	sp.end(id)
	id = sp.begin("serve.Session.Report", i)
	rep := ses.Report()
	sp.end(id)
	// The simulated p99 latency is the admission deadline plus one full
	// batch's service on every stream, to the last digit; the mean moves
	// with the traffic.
	res := opResult{wall: time.Since(t0), simMs: rep.MeanLatency * 1e3, bytes: rep.BytesTotal}

	if ses.Metered() != ses.Predicted() {
		fmt.Fprintf(os.Stderr, "check failed: serve op %d metered %+v, predicted %+v\n",
			i, ses.Metered(), ses.Predicted())
		res.failed = true
	}
	if i < 0 {
		s.warm, s.warmQueries = ses, queries
	}
	return res
}

// verify compares evenly spaced answers of the warm-up stream with the
// single-device, uncached oracle.
func (s *serveInst) verify() (attempted, failed int, fingerprint string) {
	step := max(len(s.warmQueries)/serveSamples, 1)
	var sample []int32
	for i := 0; i < len(s.warmQueries) && len(sample) < serveSamples; i += step {
		sample = append(sample, s.warmQueries[i].Vertex)
	}
	ref := serve.Reference(s.prob, s.cfg, sample)
	h := crc32.NewIEEE()
	h.Write([]byte(s.warm.HitMiss()))
	bad := 0
	for _, v := range sample {
		got, want := s.warm.Answer(v), ref[v]
		if len(got) != len(want) {
			bad++
			continue
		}
		for j := range got {
			if !(math.Abs(float64(got[j])-float64(want[j])) <= verify.LogitsTol) {
				bad++
				break
			}
			bits := math.Float32bits(got[j])
			h.Write([]byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)})
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "check failed: %d of %d sampled answers differ from serve.Reference by more than %g\n",
			bad, len(sample), verify.LogitsTol)
		failed = 1
	}
	return 1, failed, fmt.Sprintf("%08x", h.Sum32())
}

func (s *serveInst) close() {}

// cacheOp is one call of the answer cache, in the order Session.Serve's
// planning makes them.
type cacheOp struct {
	vertex int32
	batch  int
	insert bool
}

// planMisses repeats Serve's host-side planning over the coalesced batches:
// per query a Lookup unless an earlier query of the batch asked for the same
// vertex, then an Insert per miss. It returns each batch's miss list and the
// cache calls made.
func planMisses(batches []serve.Batch, cacheCap int) (misses [][]int32, ops []cacheOp) {
	cache := serve.NewCache(cacheCap)
	misses = make([][]int32, len(batches))
	for b, batch := range batches {
		seen := make(map[int32]bool, len(batch.Queries))
		for _, q := range batch.Queries {
			if seen[q.Vertex] {
				continue
			}
			ops = append(ops, cacheOp{vertex: q.Vertex, batch: b})
			if !cache.Lookup(q.Vertex, b, 0) {
				seen[q.Vertex] = true
				misses[b] = append(misses[b], q.Vertex)
			}
		}
		for _, v := range misses[b] {
			ops = append(ops, cacheOp{vertex: v, batch: b, insert: true})
			cache.Insert(v, b)
		}
	}
	return misses, ops
}

// layers decomposes the Serve call the same way train decomposes an epoch:
// its forward pass is replayed from the inference schedule, its gathers
// with real miss lists, and its host-side planning by calling serve.Coalesce
// and serve.Cache directly.
func (s *serveInst) layers(sp *spans, opWallMs float64, out map[string]float64) (attempted, failed int) {
	out["graph.build_ms"] = sp.perCall("graph.Recipe.Build")
	out["sparse.gcn_normalize_ms"] = sp.perCall("sparse.GCNNormalize")
	out["serve.generate_ms"] = sp.perCall("serve.TrafficSpec.Generate")
	out["serve.report_ms"] = sp.perCall("serve.Session.Report")
	rep := s.warm.Report()
	out["serve.batches_per_call"] = float64(rep.Batches)
	out["serve.hit_rate"] = rep.HitRate

	var batches []serve.Batch
	out["serve.coalesce_ms"] = timeCall(s.spec.budget, func() {
		batches = serve.Coalesce(s.warmQueries, s.spec.maxBatch, s.spec.deadline)
	}) * 1e3
	misses, ops := planMisses(batches, s.spec.cacheCap)
	lookups := 0
	for _, op := range ops {
		if !op.insert {
			lookups++
		}
	}
	out["serve.cache_ns_per_lookup"] = timeCall(s.spec.budget, func() {
		cache := serve.NewCache(s.spec.cacheCap)
		for _, op := range ops {
			if op.insert {
				cache.Insert(op.vertex, op.batch)
			} else {
				cache.Lookup(op.vertex, op.batch, 0)
			}
		}
	}) * 1e9 / float64(lookups)

	// The forward pass, once per Serve call.
	p := s.spec.p
	opts := core.Options{
		Dims: s.spec.dims, Config: costmodel.ConfigFromID(s.spec.config, len(s.spec.dims)-1),
		RA: p, Seed: s.seed,
	}
	var build, infer time.Duration
	fab := comm.NewFabric(p, model)
	fab.Run(func(d *comm.Device) {
		d.Barrier(d.World())
		t0 := time.Now()
		eng := core.NewInferenceEngine(d, s.prob, opts, nil)
		d.Barrier(d.World())
		t1 := time.Now()
		eng.RunInference(0)
		d.Barrier(d.World())
		if d.Rank == 0 {
			build, infer = t1.Sub(t0), time.Since(t1)
		}
	})
	out["core.new_engine_ms"] = float64(build) / 1e6
	inferMs := float64(infer) / 1e6
	out["core.run_inference_ms"] = inferMs

	sched := plan.CompileInference(plan.Spec{
		N: s.prob.N(), Dims: s.spec.dims, Config: opts.Config, P: p, RA: p,
	}).Optimize()
	rp := newReplay(sched, s.prob.A, s.spec.budget)
	rp.run()
	rp.fill(out)
	out["plan.ops_per_schedule"] = float64(sched.Ops())
	out["core.epoch_self_ms"] = inferMs - busyMs(out)
	out["core.epoch_self_frac"] = out["core.epoch_self_ms"] / opWallMs

	gathers, gather, alone := s.replayGathers(misses)
	gatherMs, aloneMs := float64(gathers)*gather.wall*1e3, float64(gathers)*alone.wall*1e3
	out["dist.gather_rows_us_per_call"] = gather.wall * 1e6
	out["comm.alltoall_us_per_call"] = alone.wall * 1e6
	out["comm.allocs_per_call"] = alone.allocs / float64(p)
	out["dist.busy_ms_per_epoch"] += gatherMs - aloneMs
	out["dist.calls_per_epoch"] += float64(gathers)
	out["comm.busy_ms_per_epoch"] += aloneMs
	out["comm.calls_per_epoch"] += float64(gathers)
	out["comm.bytes_per_epoch"] = float64(rep.BytesTotal)
	out["serve.serve_self_ms"] = sp.perCall("serve.Session.Serve") - inferMs - gatherMs

	// The replayed forward pass and the counted gathers must reproduce the
	// session's own ledger: collective rounds are not in the Report, bytes
	// are.
	attempted = 1
	gatherBytes := rep.BytesTotal - rp.commBytes
	width := s.spec.dims[len(s.spec.dims)-1]
	if want := 4 * int64(width) * rowsOffRoot(misses, p, s.prob.N()); gatherBytes != want {
		fmt.Fprintf(os.Stderr, "check failed: session metered %d gather bytes, miss lists imply %d\n", gatherBytes, want)
		failed = 1
	}
	return attempted, failed
}

// replayGathers counts the gathers one Serve call makes — one rooted
// GatherRows per microbatch with a miss — and replays the first 2000 of them
// with their real miss lists, then the all-to-all alone with the part sizes
// those lists produce. Both measurements are per gather.
func (s *serveInst) replayGathers(misses [][]int32) (gathers int, gather, alone measurement) {
	const replayed = 2000
	var lists [][]int32
	for _, m := range misses {
		if len(m) == 0 {
			continue
		}
		gathers++
		if len(lists) < replayed {
			lists = append(lists, m)
		}
	}
	p, n, width := s.spec.p, s.prob.N(), s.spec.dims[len(s.spec.dims)-1]
	gather = timeSPMD(p, s.spec.budget, func(d *comm.Device) func() {
		logits := dist.NewMat(d, dist.H, n, width)
		return func() {
			for _, rows := range lists {
				logits.GatherRows(0, rows)
			}
		}
	})
	alone = timeSPMD(p, s.spec.budget, func(d *comm.Device) func() {
		rlo, rhi := dist.RowRange(dist.H, p, d.Rank, n)
		parts := make([][][]float32, len(lists))
		for i, rows := range lists {
			owned := 0
			for _, v := range rows {
				if int(v) >= rlo && int(v) < rhi {
					owned++
				}
			}
			parts[i] = make([][]float32, p)
			parts[i][0] = make([]float32, width*owned)
		}
		return func() {
			for _, ps := range parts {
				d.AllToAll(d.World(), ps)
			}
		}
	})
	per := float64(len(lists))
	gather.wall, alone.wall, alone.allocs = gather.wall/per, alone.wall/per, alone.allocs/per
	return gathers, gather, alone
}

// rowsOffRoot counts the requested rows rank 0 does not own: what the
// gathers move across the fabric.
func rowsOffRoot(misses [][]int32, p, n int) int64 {
	_, rootHi := dist.RowRange(dist.H, p, 0, n)
	var rows int64
	for _, m := range misses {
		for _, v := range m {
			if int(v) >= rootHi {
				rows++
			}
		}
	}
	return rows
}
