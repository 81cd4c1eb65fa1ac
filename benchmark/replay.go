package main

import (
	"math/rand"
	"time"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
)

// SPMD shape replay. Engine.Epoch and RunInference are single calls from
// outside, so their inside is attributed by walking the compiled schedule
// and, for each distinct (op kind, shape), making the exported call the
// interpreter makes for it — tensor.MatMul/MatMulTA/MatMulTB, CSR.SpMM on
// the device's real row panel, Mat.Redistribute, Device.AllToAll with the
// same part sizes, AllReduceSumInto — on all P devices of a fresh fabric at
// once, as the engine issues it, timing the wall between two barriers.
// Busy time per epoch is then the sum of count × replayed wall.
//
// Inputs are synthetic: standard normal, or its ReLU where the schedule
// says the operand went through a ReLU or a ReLU-gradient mask, because
// tensor.Gemm and MatMulTA skip zero entries of their left operand.

const (
	// replayBudget bounds the timed repetitions of one shape. Short calls
	// repeat up to replayMaxReps times within it; a call that does not fit
	// three times is repeated three times anyway. Smoke runs get the
	// shorter budget.
	replayBudget      = 250 * time.Millisecond
	smokeReplayBudget = 2 * time.Millisecond
	replayMinReps     = 3
	replayMaxReps     = 2000
)

// budgetFor returns the per-shape replay budget of a full or smoke run.
func budgetFor(smoke bool) time.Duration {
	if smoke {
		return smokeReplayBudget
	}
	return replayBudget
}

// repsWithin sizes a repetition count from the duration of one call.
func repsWithin(budget, one time.Duration) int {
	return min(max(int(budget/max(one, time.Microsecond)), replayMinReps), replayMaxReps)
}

// measurement is what one replayed call costs with all P devices making it
// at once. allocs and allocBytes are summed over the devices.
type measurement struct {
	wall       float64 // seconds per call
	allocs     float64 // heap objects per call
	allocBytes float64 // heap bytes per call
	volume     int64   // fabric bytes per call, side channel included
	rounds     int64   // collective rounds per call, barriers excluded
}

// timeSPMD runs prep on every device of a fresh p-device fabric, then the
// call prep returned: once to warm up and size the repetition count, then
// that many times between two fabric barriers, timed by rank 0.
func timeSPMD(p int, budget time.Duration, prep func(d *comm.Device) func()) measurement {
	fab := comm.NewFabric(p, model)
	var (
		m      measurement
		reps   int
		t0     time.Time
		u0     usage
		vol0   int64
		calls0 int64
	)
	fab.Run(func(d *comm.Device) {
		call := prep(d)
		d.Barrier(d.World())
		if d.Rank == 0 {
			t0 = time.Now()
		}
		call()
		d.Barrier(d.World())
		if d.Rank == 0 {
			// Everyone else is parked at the next barrier, which also
			// publishes reps to them.
			reps = repsWithin(budget, time.Since(t0))
			vol0, calls0 = fab.TotalVolume(), fabricCalls(fab)
			u0 = readUsage()
		}
		d.Barrier(d.World())
		if d.Rank == 0 {
			t0 = time.Now()
		}
		for i := 0; i < reps; i++ {
			call()
		}
		d.Barrier(d.World())
		if d.Rank == 0 {
			wall := time.Since(t0)
			u1 := readUsage()
			n := float64(reps)
			m = measurement{
				wall:       wall.Seconds() / n,
				allocs:     float64(u1.mallocs-u0.mallocs) / n,
				allocBytes: float64(u1.alloc-u0.alloc) / n,
				volume:     (fab.TotalVolume() - vol0) / int64(reps),
				rounds:     (fabricCalls(fab) - calls0) / int64(reps),
			}
		}
	})
	return m
}

// timeCall returns the seconds one call of fn takes on the harness
// goroutine, repeating it within the budget like timeSPMD does.
func timeCall(budget time.Duration, fn func()) float64 {
	t0 := time.Now()
	fn()
	reps := repsWithin(budget, time.Since(t0))
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(t0).Seconds() / float64(reps)
}

// replayKey identifies one distinct call: its kind and the global shape it
// works on (tile shapes follow from the layouts and P).
type replayKey struct {
	kind     string // gemm, gemm_tb, gemm_ta, spmm, redist, maskredist, allreduce, allreduce_loss
	rows     int    // global rows of the distributed operand
	k, n     int    // inner and output width (n alone for redist/spmm/allreduce)
	from, to dist.Layout
	halfZero bool
}

type replayItem struct {
	key   replayKey
	count int         // occurrences per epoch
	call  measurement // the call the interpreter makes
	coll  measurement // for redist/maskredist: its all-to-all alone
}

type replay struct {
	sched  *plan.Schedule
	a      *sparse.CSR
	budget time.Duration // per distinct call
	// extraBarriers is the number of fabric barriers the harness itself
	// adds around each op; their replayed cost is comm's.
	extraBarriers int

	items []*replayItem
	index map[replayKey]*replayItem

	barrier, allgather measurement

	// Totals per epoch, filled by run: what the replay's own fabric
	// metered and how many kernel calls the schedule holds.
	commCalls, commBytes  int64
	denseCalls, spmmCalls int64
}

// newReplay walks the schedule and groups its ops by call and shape. a is
// the propagation matrix the SpMMs run on.
func newReplay(sched *plan.Schedule, a *sparse.CSR, budget time.Duration) *replay {
	if sched.RA != sched.P {
		panic("benchmark: the replay covers full adjacency replication (R_A = P) only")
	}
	rp := &replay{sched: sched, a: a, budget: budget, index: map[replayKey]*replayItem{}}
	// halfZero[r]: register r holds roughly half zeros (post-ReLU data).
	halfZero := make([]bool, sched.NumRegs)
	for i := range sched.Sections {
		for j := range sched.Sections[i].Ops {
			op := &sched.Sections[i].Ops[j]
			switch op.Kind {
			case plan.KGEMM:
				l := op.Weight
				if sched.SAGE {
					l /= 2
				}
				key := replayKey{kind: "gemm", rows: op.Rows, k: sched.Dims[l], n: op.Cols, halfZero: halfZero[op.A]}
				if op.TransW {
					key.kind, key.k = "gemm_tb", sched.Dims[l+1]
				}
				rp.add(key)
			case plan.KGradGEMM:
				rp.add(replayKey{kind: "gemm_ta", rows: sched.N, k: op.Rows, n: op.Cols, halfZero: halfZero[op.A]})
			case plan.KSpMM:
				rp.add(replayKey{kind: "spmm", rows: op.Rows, n: op.Cols})
			case plan.KRedist:
				rp.add(replayKey{kind: "redist", rows: op.Rows, n: op.Cols, from: op.From, to: op.To})
				halfZero[op.Dst] = halfZero[op.A]
			case plan.KReLUGrad:
				if op.From != op.To {
					rp.add(replayKey{kind: "maskredist", rows: op.Rows, n: op.Cols, from: op.From, to: op.To})
				}
				halfZero[op.A] = true
			case plan.KReLU:
				halfZero[op.A] = true
			case plan.KMemoize, plan.KReuse:
				halfZero[op.Dst] = halfZero[op.A]
			case plan.KAllReduceGrad:
				rp.add(replayKey{kind: "allreduce", n: op.Rows * op.Cols})
			case plan.KLoss:
				rp.add(replayKey{kind: "allreduce_loss", n: 2})
			}
		}
	}
	return rp
}

func (rp *replay) add(key replayKey) {
	it := rp.index[key]
	if it == nil {
		it = &replayItem{key: key}
		rp.index[key] = it
		rp.items = append(rp.items, it)
	}
	it.count++
}

// randDense returns an r×c matrix of standard normals, or of their ReLU.
func randDense(rng *rand.Rand, r, c int, halfZero bool) *tensor.Dense {
	m := tensor.NewDense(r, c)
	m.Randomize(rng, 1)
	if halfZero {
		m.ReLU()
	}
	return m
}

// run measures every distinct call and totals what the replay's fabrics
// metered.
func (rp *replay) run() {
	p, n := rp.sched.P, rp.sched.N
	var reduceLen int
	for _, it := range rp.items {
		key := it.key
		switch key.kind {
		case "gemm", "gemm_tb", "gemm_ta":
			it.call = timeSPMD(p, rp.budget, func(d *comm.Device) func() {
				rng := rand.New(rand.NewSource(int64(d.Rank) + 1))
				rows, _ := dist.TileShape(dist.H, p, d.Rank, key.rows, key.k)
				a := randDense(rng, rows, key.k, key.halfZero)
				switch key.kind {
				case "gemm":
					w := randDense(rng, key.k, key.n, false)
					return func() { tensor.MatMul(a, w) }
				case "gemm_tb":
					w := randDense(rng, key.n, key.k, false)
					return func() { tensor.MatMulTB(a, w) }
				default:
					b := randDense(rng, rows, key.n, false)
					return func() { tensor.MatMulTA(a, b) }
				}
			})
			rp.denseCalls += int64(it.count)
		case "spmm":
			it.call = timeSPMD(p, rp.budget, func(d *comm.Device) func() {
				rng := rand.New(rand.NewSource(int64(d.Rank) + 1))
				rlo, rhi := dist.RowRange(rp.sched.GridL, p, d.Rank, n)
				panel := rp.a.RowPanel(rlo, rhi)
				_, w := dist.TileShape(rp.sched.GridL, p, d.Rank, key.rows, key.n)
				in := randDense(rng, key.rows, w, false)
				return func() { panel.SpMM(in) }
			})
			rp.spmmCalls += int64(it.count)
		case "redist", "maskredist":
			it.call = timeSPMD(p, rp.budget, func(d *comm.Device) func() {
				m := dist.NewMat(d, key.from, key.rows, key.n)
				m.Local.Randomize(rand.New(rand.NewSource(int64(d.Rank)+1)), 1)
				if key.kind == "maskredist" {
					m.Local.ReLU()
					for i, v := range m.Local.Data {
						if v > 0 {
							m.Local.Data[i] = 1
						}
					}
					return func() { m.RedistributeMask(key.to) }
				}
				return func() { m.Redistribute(key.to) }
			})
			it.coll = timeSPMD(p, rp.budget, func(d *comm.Device) func() {
				parts := make([][]float32, p)
				for s := range parts {
					elems := dist.TileOverlap(key.from, d.Rank, key.to, s, p, key.rows, key.n)
					if key.kind == "maskredist" {
						elems = (elems + 3) / 4 // four mask bytes per float32
					}
					if elems > 0 {
						parts[s] = make([]float32, elems)
					}
				}
				return func() { d.AllToAll(d.World(), parts) }
			})
		case "allreduce":
			it.call = timeSPMD(p, rp.budget, func(d *comm.Device) func() {
				local, dst := make([]float32, key.n), make([]float32, key.n)
				return func() { d.AllReduceSumInto(d.World(), local, dst) }
			})
			reduceLen = max(reduceLen, key.n)
		case "allreduce_loss":
			it.call = timeSPMD(p, rp.budget, func(d *comm.Device) func() {
				return func() { d.AllReduceSum(d.World(), []float32{1, 2}) }
			})
		}
		rp.commCalls += int64(it.count) * it.call.rounds
		rp.commBytes += int64(it.count) * it.call.volume
	}
	rp.barrier = timeSPMD(p, rp.budget, func(d *comm.Device) func() {
		return func() { d.Barrier(d.World()) }
	})
	// No schedule issues an allgather at R_A = P, so this one is a probe
	// and counts towards nothing: every device contributes a buffer the
	// size of the largest gradient all-reduce.
	if reduceLen > 0 {
		rp.allgather = timeSPMD(p, rp.budget, func(d *comm.Device) func() {
			local := make([]float32, reduceLen)
			var buf []float32
			return func() { buf = d.AllGatherFlat(d.World(), local, buf) }
		})
	}
}

// acc totals one group of replayed calls per epoch: wall, call count, and
// the flops or bytes they stand for.
type acc struct{ ms, calls, work float64 }

func (a *acc) add(ms, calls, work float64) {
	a.ms += ms
	a.calls += calls
	a.work += work
}

// busyMs is the replayed time of the four layers under core, per epoch.
func busyMs(out map[string]float64) float64 {
	return out["tensor.busy_ms_per_epoch"] + out["sparse.busy_ms_per_epoch"] +
		out["dist.busy_ms_per_epoch"] + out["comm.busy_ms_per_epoch"]
}

// fill writes the tensor, sparse, dist and comm metrics. Rates are
// aggregate over the P devices sharing the host's cores: nominal flops, or
// bytes, of all devices over the wall of the concurrent call.
func (rp *replay) fill(out map[string]float64) {
	p := float64(rp.sched.P)
	nnz := float64(rp.a.NNZ())
	var gemm, ta, tb, spmm, h2v, v2h, a2a, reduce acc
	var spmmBytes, redistBytes, distSelfMs float64
	var denseAllocs, collAllocs, distAllocs, distAllocBytes float64
	for _, it := range rp.items {
		c := float64(it.count)
		ms := c * it.call.wall * 1e3
		key := it.key
		flops := c * 2 * float64(key.rows) * float64(key.k) * float64(key.n)
		switch key.kind {
		case "gemm":
			gemm.add(ms, c, flops)
		case "gemm_tb":
			tb.add(ms, c, flops)
		case "gemm_ta":
			ta.add(ms, c, flops)
		case "spmm":
			// Each device multiplies the whole adjacency by its column
			// slice; the slices add up to key.n columns.
			spmm.add(ms, c, c*2*nnz*float64(key.n))
			// Computed bytes, no cache reuse assumed: values and column
			// indices on every device, one gathered input row per stored
			// entry, the output tile, and the row pointers.
			spmmBytes += c * (p*nnz*8 + nnz*float64(key.n)*4 + float64(key.rows)*float64(key.n)*4 + p*float64(key.rows+1)*8)
		case "redist", "maskredist":
			dir := &v2h
			if key.from.Kind == dist.Horizontal {
				dir = &h2v
			}
			dir.add(ms, c, 0)
			collMs := c * it.coll.wall * 1e3
			a2a.add(collMs, c, 0)
			distSelfMs += ms - collMs
			redistBytes += c * float64(it.call.volume)
			distAllocs += c * it.call.allocs
			distAllocBytes += c * it.call.allocBytes
			collAllocs += c * it.coll.allocs
		case "allreduce", "allreduce_loss":
			reduce.add(ms, c, 0)
			collAllocs += c * it.call.allocs
		}
		if key.kind == "gemm" || key.kind == "gemm_tb" || key.kind == "gemm_ta" {
			denseAllocs += c * it.call.allocs
		}
	}
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	dense := acc{gemm.ms + ta.ms + tb.ms, gemm.calls + ta.calls + tb.calls, gemm.work + ta.work + tb.work}
	redist := acc{h2v.ms + v2h.ms, h2v.calls + v2h.calls, 0}
	barrierMs := float64(rp.extraBarriers) * rp.barrier.wall * 1e3

	out["tensor.gemm_gflops"] = per(gemm.work, gemm.ms*1e6)
	out["tensor.matmul_ta_gflops"] = per(ta.work, ta.ms*1e6)
	out["tensor.matmul_tb_gflops"] = per(tb.work, tb.ms*1e6)
	out["tensor.gemm_roofline_frac"] = per(per(dense.work, dense.ms*1e6), out["host.fma_gflops"])
	out["tensor.busy_ms_per_epoch"] = dense.ms
	out["tensor.calls_per_epoch"] = dense.calls
	out["tensor.allocs_per_call"] = per(denseAllocs, dense.calls*p)

	out["sparse.spmm_ms_per_call"] = per(spmm.ms, spmm.calls)
	out["sparse.spmm_gflops"] = per(spmm.work, spmm.ms*1e6)
	out["sparse.spmm_gbps"] = per(spmmBytes, spmm.ms*1e6)
	out["sparse.spmm_roofline_frac"] = per(out["sparse.spmm_gbps"], out["host.copy_gbps"])
	out["sparse.busy_ms_per_epoch"] = spmm.ms
	out["sparse.calls_per_epoch"] = spmm.calls

	out["dist.h2v_ms_per_call"] = per(h2v.ms, h2v.calls)
	out["dist.v2h_ms_per_call"] = per(v2h.ms, v2h.calls)
	out["dist.redistribute_gbps"] = per(redistBytes, redist.ms*1e6)
	out["dist.busy_ms_per_epoch"] = distSelfMs
	out["dist.calls_per_epoch"] = redist.calls
	out["dist.allocs_per_call"] = per(distAllocs, redist.calls*p)
	out["dist.alloc_mb_per_call"] = per(distAllocBytes/1e6, redist.calls*p)

	out["comm.alltoall_us_per_call"] = per(a2a.ms*1e3, a2a.calls)
	out["comm.allreduce_us_per_call"] = per(reduce.ms*1e3, reduce.calls)
	out["comm.allgather_us_per_call"] = rp.allgather.wall * 1e6
	out["comm.barrier_us_per_call"] = rp.barrier.wall * 1e6
	out["comm.busy_ms_per_epoch"] = a2a.ms + reduce.ms + barrierMs
	out["comm.calls_per_epoch"] = float64(rp.commCalls)
	out["comm.bytes_per_epoch"] = float64(rp.commBytes)
	out["comm.allocs_per_call"] = per(collAllocs, (a2a.calls+reduce.calls)*p)
}
