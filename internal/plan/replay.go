package plan

import (
	"strconv"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
	"gnnrdm/internal/trace"
)

// This file is the one replay of a schedule's per-op charges onto
// per-device clocks: the discrete-event engine behind sim.Run (clocks,
// comm/compute accumulators, the byte census, optional trace),
// PriceDAG* (the same clocks, overlapped and sequential) and
// Schedule.PriceOn (one sequential epoch, read off op by op). Every
// device gets one occupancy cursor per resource (hw.Occupancy), every
// op replays the interpreter's charge sequence — core.execOp's kernel
// charges, in order, with each rank's own tile shapes — and every
// collective synchronizes its group to max(member deposits) + the price
// comm.Meter computes on the live fabric for the same group and byte
// census (PriceCache asks the same Meter, once per distinct round) and
// books that price into a comm.Meters, the live fabric's census type.
// The walk is core's: each op starts at max(its lane's cursor, its
// dependencies' finishes), advances only its lane, and the lanes rejoin
// at each epoch boundary. The two executors differ only in the lane
// map: overlapped, each (node, rank) runs on DAG.OpResource's lane;
// sequential, every op runs on the compute lane, where no dependency
// edge could move a clock. Because the charges, the rendezvous rule
// and the walk are the executor's own, the clocks equal the live
// fabric's device clocks, and the two censuses compare with ==
// (verify.CheckSimMatchesFabric, CheckOverlapEquivalence).

// ReplayResult is everything one replayed run measured.
type ReplayResult struct {
	P int
	// Clocks is each device's final simulated clock (the occupancy
	// makespan), equal to Device.Clock after the same live run.
	Clocks []float64
	// CommTime and ComputeTime are the per-rank accumulators, equal to
	// Device.CommTime / Device.ComputeTime after the same live run
	// (including the overlap executor's lane-merge accumulation order).
	CommTime    []float64
	ComputeTime []float64
	// Meters is the final byte census.
	Meters comm.Meters
	// EpochClock/EpochComm/EpochCompute are cumulative per-rank
	// snapshots at each epoch's snapshot point ([epoch][rank]);
	// EpochBytes is the cumulative total metered volume (including
	// side-channel) there. Deltas between consecutive epochs reproduce
	// core.EpochStats exactly when run with two epoch barriers.
	EpochClock   [][]float64
	EpochComm    [][]float64
	EpochCompute [][]float64
	EpochBytes   []int64
}

// MaxClock returns the maximum final clock across devices.
func (r *ReplayResult) MaxClock() float64 {
	m := 0.0
	for _, c := range r.Clocks {
		if c > m {
			m = c
		}
	}
	return m
}

// Replay runs the engine once over the DAG: epochs replays of the
// schedule with per-device clocks carried across epoch boundaries,
// under the overlap executor's lane map or the sequential executor's
// (overlap selects), with barriers world barriers after each epoch
// (0 = a bare Engine.Epoch loop, 2 = the barrier/snapshot protocol of
// core's one training driver, under Train and TrainElastic). A nil
// cache prices with a private one; a non-nil tracer records the
// synthesized timeline into a virtual session named label. sim.Run is
// the validated entry point — Replay trusts its arguments.
func (d *DAG) Replay(cen Census, h *hw.Model, tp *topo.Topology, epochs int, overlap bool, barriers int, pc *PriceCache, tr *trace.Tracer, label string) *ReplayResult {
	e := newEngine(d.Sched, d, cen, h, tp, epochs, pc)
	e.keep = true
	e.run(overlap, barriers, tr, label)
	return e.result()
}

// engine is the replay state of one (schedule, census, hardware,
// topology) context: per-device occupancy cursors, the clock scratch
// the rendezvous rule operates on, per-resource time accumulators
// (index 0 is the base device; 1 and 2 are the overlap executor's link
// lanes, folded into the base at each epoch join in the executor's
// merge order), the byte meters, and per-group round counters for trace
// attribution. Every PriceCache owns one engine, and newEngine resets
// it rather than building one: the scratch keeps its storage and only
// grows, so a sweep that prices many schedules on one cache allocates
// only the results it returns. The walk itself allocates nothing, so
// PriceDAG* runs both executors on one engine.
type engine struct {
	d   *DAG // the schedule's DAG; nil when only the sequential executor runs
	s   *Schedule
	cen Census
	h   *hw.Model
	tp  *topo.Topology
	pc  *PriceCache

	p      int
	epochs int
	nbarr  int

	occ    []hw.Occupancy
	clk    []float64
	finish []float64 // [node*p + rank] finish times, rewritten each epoch
	regs   []regShape

	// The run's lane map: each (node, rank)'s resource and the
	// dependency edges the walk honours. Overlapped, the DAG's resource
	// table and nodes; sequential, seqTab (every node on compute) and
	// no edges.
	resTab *resourceTable
	deps   []DAGNode
	seqTab resourceTable

	// comm/compute accumulators per resource lane: each op charges its
	// resource's lane, and lanes 1..N-1 fold into 0 at the epoch join,
	// replicating Device.MergeLane's accumulation order bit-for-bit.
	comm    [hw.NumResources][]float64
	compute [hw.NumResources][]float64
	resCur  []hw.Resource // current op's resource per rank

	meters comm.Meters

	world     []int
	colGroups [][]int // nil when every column group is a single rank
	wBytes    int64

	// The KSpMMABC structural census and its exchange per operand width,
	// built when the first ABC node replays.
	abc  *abcCensus
	abcX map[int]*SparseExchangeCensus

	// Per-group rendezvous round counters (the fabric's groupComm.gen):
	// index 0 is the world group, 1+j is column group j.
	gens []uint64

	// The op being replayed and its section; nil outside the op walk
	// (epoch barriers).
	sec *Section
	op  *Op

	// Per-op pricing (PriceOn; nil perOp otherwise): the ops priced so
	// far, and the meters and latest clock as the last of them left them.
	perOp    []OpCost
	was      comm.Meters
	wasClock float64

	// Trace state (nil tracer disables all of it).
	tr      *trace.Tracer
	cfgStr  string
	grpKeys []string // group keys by gen index, built only when tracing
	epoch   int

	// keep takes the per-epoch snapshots a ReplayResult reports.
	keep                             bool
	snapClock, snapComm, snapCompute [][]float64
	snapBytes                        []int64
}

// regShape mirrors the executor's live matrix shapes during the walk.
type regShape struct {
	layout     dist.Layout
	rows, cols int
}

// Gen-counter indices: world is 0, column group j is 1+j.
const gidWorld = 0

func gidCol(j int) int { return 1 + j }

// newEngine binds the cache's engine to a schedule and resets it; d is
// the schedule's DAG, nil when only the sequential executor runs. A nil
// cache prices on a private one. Everything that depends on the
// schedule, DAG, census or epoch count is reset here or in begin;
// nothing the engine holds outlives the next newEngine on the cache,
// so results copy what they report (result, clocks).
func newEngine(s *Schedule, d *DAG, cen Census, h *hw.Model, tp *topo.Topology, epochs int, pc *PriceCache) *engine {
	p := s.P
	if pc == nil {
		pc = NewPriceCache()
	}
	pc.Bind(p, h, tp)
	e := &pc.eng
	if e.clk == nil {
		// The cache fixes P, so the per-rank scratch is sized once. The
		// clock scratch and every lane's accumulators share one array.
		f := make([]float64, (1+2*int(hw.NumResources))*p)
		e.clk, f = f[:p:p], f[p:]
		for res := range hw.NumResources {
			e.comm[res], e.compute[res], f = f[:p:p], f[p:2*p:2*p], f[2*p:]
		}
		e.occ = make([]hw.Occupancy, p)
		e.resCur = make([]hw.Resource, p)
	}
	cols := e.colGroups
	if p/s.RA < 2 {
		// Only multi-rank column groups ever rendezvous (KSpMM's
		// allgather); singleton groups need no rank lists, round
		// counters or trace keys.
		cols = nil
	} else if len(cols) != s.RA {
		cols = make([][]int, s.RA)
		for j := range cols {
			cols[j] = dist.ColGroup(s.P, s.RA, j)
		}
	}
	if e.abcX != nil {
		clear(e.abcX)
	}
	nodes := s.Ops()
	seq := resize(e.seqTab.node, nodes)
	clear(seq)
	*e = engine{
		d: d, s: s, cen: cen, h: h, tp: tp, pc: pc,
		p: p, epochs: epochs,
		occ: e.occ, clk: e.clk,
		finish:  resize(e.finish, nodes*p),
		regs:    resize(e.regs, s.NumRegs),
		seqTab:  resourceTable{node: seq},
		comm:    e.comm,
		compute: e.compute,
		resCur:  e.resCur,

		world:     pc.world,
		colGroups: cols,
		wBytes:    s.weightBytes(),
		abcX:      e.abcX,
		gens:      resize(e.gens, 1+len(cols)),
	}
	return e
}

// resize returns s with length n, keeping its storage when it is long
// enough. The contents are stale.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// groupKey renders a sorted rank list the way the fabric names its
// rendezvous groups ("0,2,4"), so (Group, Seq) pairs in virtual traces
// line up with live ones.
func groupKey(ranks []int) string {
	b := make([]byte, 0, 4*len(ranks))
	for i, r := range ranks {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(r), 10)
	}
	return string(b)
}

// begin resets the engine for one run under the lane map overlap
// selects. Stale finish times and register shapes are overwritten
// before they are read (dependencies point backwards in node order).
func (e *engine) begin(overlap bool, nbarr int, tr *trace.Tracer, label string) {
	e.nbarr, e.tr = nbarr, tr
	e.resTab, e.deps = &e.seqTab, nil
	if overlap {
		e.resTab, e.deps = e.d.resources(e.tp), e.d.Nodes
	}
	clear(e.occ)
	clear(e.resCur)
	clear(e.gens)
	for res := range hw.NumResources {
		clear(e.comm[res])
		clear(e.compute[res])
	}
	e.meters = comm.Meters{}
	if e.keep {
		// The snapshots are the result's: fresh storage every run.
		e.snapClock = e.snapRows()
		e.snapComm = e.snapRows()
		e.snapCompute = e.snapRows()
		e.snapBytes = make([]int64, e.epochs)
	}
	if tr != nil {
		if label == "" {
			label = "sim"
		}
		tr.StartVirtualSession(label, e.p)
		e.cfgStr = e.s.Config.String()
		e.grpKeys = make([]string, len(e.gens))
		e.grpKeys[gidWorld] = groupKey(e.world)
		for j, grp := range e.colGroups {
			e.grpKeys[gidCol(j)] = groupKey(grp)
		}
	}
}

func (e *engine) run(overlap bool, nbarr int, tr *trace.Tracer, label string) {
	e.begin(overlap, nbarr, tr, label)
	for ep := 0; ep < e.epochs; ep++ {
		e.epoch = ep
		if e.tr != nil {
			for r := 0; r < e.p; r++ {
				e.tr.SetEpochAt(r, 0, ep)
				e.tr.BeginPhaseAt(r, 0, "epoch", e.occ[r].Makespan())
			}
		}
		i := 0 // node index: schedule order
		for si := range e.s.Sections {
			e.sec = &e.s.Sections[si]
			for j := range e.sec.Ops {
				e.op = &e.sec.Ops[j]
				e.position(i)
				e.execOp()
				copy(e.finish[i*e.p:(i+1)*e.p], e.clk)
				for r := 0; r < e.p; r++ {
					e.occ[r].Advance(e.resCur[r], e.clk[r])
				}
				if e.perOp != nil {
					e.priceOp()
				}
				i++
			}
		}
		e.sec, e.op = nil, nil
		// Epoch boundary: the executor merges its lanes back into the
		// base device (occupancy Join; clock = max over lanes) and adds
		// each lane's accumulated comm/compute time onto the base's,
		// link lanes in resource order. A lane no op ran on adds +0.
		for r := 0; r < e.p; r++ {
			e.occ[r].Join()
		}
		for res := hw.ResCompute + 1; res < hw.NumResources; res++ {
			bc, bk := e.comm[hw.ResCompute], e.compute[hw.ResCompute]
			lc, lk := e.comm[res], e.compute[res]
			for r := 0; r < e.p; r++ {
				bc[r] += lc[r]
				bk[r] += lk[r]
				lc[r], lk[r] = 0, 0
			}
		}
		// The training driver's protocol: barrier, stats snapshot, barrier.
		// With no barriers (a bare Epoch loop) the snapshot lands at the
		// epoch join.
		if e.nbarr == 0 {
			e.snapshot(ep)
		}
		for b := 0; b < e.nbarr; b++ {
			e.barrier()
			if b == 0 {
				e.snapshot(ep)
			}
		}
		if e.tr != nil {
			for r := 0; r < e.p; r++ {
				e.tr.EndPhaseAt(r, 0, e.occ[r].Makespan())
			}
		}
	}
}

// position places each rank's clock where node i starts on it — at
// max(its lane's cursor, its dependencies' finishes) — and records the
// op's lane per rank. The dependencies fold in one contiguous finish
// row at a time, each rank taking them in dependency order.
func (e *engine) position(i int) {
	clk := e.clk
	for r := range clk {
		res := e.resTab.at(i, r)
		e.resCur[r] = res
		clk[r] = e.occ[r].Free(res)
	}
	if e.deps == nil {
		return
	}
	for _, m := range e.deps[i].Deps {
		for r, f := range e.finish[m*e.p : (m+1)*e.p] {
			clk[r] = max(clk[r], f)
		}
	}
}

// snapRows returns epochs zeroed per-rank rows over one array.
func (e *engine) snapRows() [][]float64 {
	buf := make([]float64, e.epochs*e.p)
	rows := make([][]float64, e.epochs)
	for ep := range rows {
		rows[ep] = buf[ep*e.p : (ep+1)*e.p : (ep+1)*e.p]
	}
	return rows
}

// clocks returns each device's clock (its occupancy makespan) in fresh
// storage.
func (e *engine) clocks() []float64 {
	c := make([]float64, e.p)
	for r := range c {
		c[r] = e.occ[r].Makespan()
	}
	return c
}

// result reports the run. The accumulators are the cache's scratch, so
// the result gets copies: it must read the same after the next replay
// on the cache.
func (e *engine) result() *ReplayResult {
	f := make([]float64, 2*e.p)
	r := &ReplayResult{
		P:            e.p,
		Clocks:       e.clocks(),
		CommTime:     f[:e.p:e.p],
		ComputeTime:  f[e.p:],
		Meters:       e.meters,
		EpochClock:   e.snapClock,
		EpochComm:    e.snapComm,
		EpochCompute: e.snapCompute,
		EpochBytes:   e.snapBytes,
	}
	copy(r.CommTime, e.comm[hw.ResCompute])
	copy(r.ComputeTime, e.compute[hw.ResCompute])
	return r
}

func (e *engine) snapshot(ep int) {
	if !e.keep {
		return
	}
	for r := 0; r < e.p; r++ {
		e.snapClock[ep][r] = e.occ[r].Makespan()
	}
	copy(e.snapComm[ep], e.comm[hw.ResCompute])
	copy(e.snapCompute[ep], e.compute[hw.ResCompute])
	e.snapBytes[ep] = e.meters.TotalVolume()
}

// setScope stamps the (rank, track) timeline's scope tags the way the
// live engine's Trace* setters would before this op's events.
func (e *engine) setScope(r, track int) {
	layer, step := 0, 0
	dir := ""
	if e.op != nil {
		step = e.op.Step
		switch e.sec.Phase {
		case "init", "loss":
			dir = "fwd"
		case "fwd":
			dir, layer = "fwd", e.sec.Layer
		case "bwd":
			dir, layer = "bwd", e.sec.Layer
		}
	}
	e.tr.SetEpochAt(r, track, e.epoch)
	e.tr.SetLayerAt(r, track, layer)
	e.tr.SetDirAt(r, track, dir)
	e.tr.SetStepAt(r, track, step)
	e.tr.SetConfigAt(r, track, e.cfgStr)
}

// kernel charges one compute kernel on rank r: clock and the current
// lane's compute accumulator advance by t, exactly Device.chargeKernel.
func (e *engine) kernel(r int, opName string, t float64, bytes, flops int64) {
	start := e.clk[r]
	e.clk[r] += t
	res := e.resCur[r]
	e.compute[res][r] += t
	if e.tr != nil {
		e.setScope(r, int(res))
		e.tr.Emit(r, trace.Event{
			Class: trace.ClassKernel, Op: opName,
			Bytes: bytes, Flops: flops,
			Start: start, End: e.clk[r], Track: int(res),
		})
	}
}

func (e *engine) mem(r int, bytes int64) {
	e.kernel(r, "mem", e.h.MemTime(bytes), bytes, 0)
}

// collective synchronizes the group at max(member clocks) + c.Time —
// the fabric's rendezvous rule — charging each member's comm
// accumulator with its own skew-inclusive delta. Callers guarantee
// len(group) >= 2 (smaller groups never reach the live fabric either).
func (e *engine) collective(group []int, gid int, opName string, c topo.Cost) {
	var m float64
	for _, r := range group {
		m = max(m, e.clk[r])
	}
	nc := m + c.Time
	e.gens[gid]++
	seq := e.gens[gid]
	for _, r := range group {
		before := e.clk[r]
		res := e.resCur[r]
		e.comm[res][r] += nc - before
		if e.tr != nil {
			e.setScope(r, int(res))
			e.tr.Emit(r, trace.Event{
				Class: trace.ClassCollective, Op: opName,
				Group: e.grpKeys[gid], Seq: seq, GroupSize: len(group),
				Bytes: c.Bytes(), Tier1: c.Tier[topo.TierInter],
				Start: before, End: nc, Track: int(res),
			})
		}
		e.clk[r] = nc
	}
}

// round replays one metered collective round from its cached price and
// books it once.
func (e *engine) round(group []int, gid int, opName string, kind hw.CollectiveKind, c topo.Cost, side bool) {
	e.collective(group, gid, opName, c)
	e.meters.Add(kind, c, side)
}

// barrier replays one world Barrier on the base timeline: latency-only,
// never metered, but it does consume a world rendezvous round and its
// skew lands in comm time, exactly as live.
func (e *engine) barrier() {
	if e.p < 2 {
		return
	}
	for r := 0; r < e.p; r++ {
		e.clk[r] = e.occ[r].Free(hw.ResCompute)
		e.resCur[r] = hw.ResCompute
	}
	e.collective(e.world, gidWorld, "barrier", topo.Cost{Time: e.pc.meter.Barrier(e.world)})
	for r := 0; r < e.p; r++ {
		e.occ[r].Advance(hw.ResCompute, e.clk[r])
		e.occ[r].Join()
	}
}

// exchange replays one all-to-all round's charge order on every rank —
// divide memcpy, metered world all-to-all, merge memcpy — from its
// census: dist.regrid's sequence, and each of the two rounds of
// dist.RedistributeSparse and of the KSpMMABC result exchange. side
// routes the round to the side-channel meters (byte-packed ReLU masks,
// sparse metadata adverts).
func (e *engine) exchange(x *ExchangeCensus, side bool) {
	for _, r := range e.world {
		e.mem(r, x.Div[r])
	}
	if e.p >= 2 {
		e.round(e.world, gidWorld, "alltoall", hw.OpAllToAll, x.A2A, side)
	}
	for _, r := range e.world {
		e.mem(r, x.Mer[r])
	}
}

// sparseExchange replays a two-round exchange: the metadata advert
// round on the side channel, then the variable-volume payload round.
func (e *engine) sparseExchange(x *SparseExchangeCensus) {
	e.exchange(&x.Meta, true)
	e.exchange(&x.Pay, false)
}

// abcExchange returns the KSpMMABC census and its width-column result
// exchange, built once per engine: an explicit Census.ABCPairs table
// (every receiver its own class), else the O(P) estimate from the
// census's exact stored-entry count.
func (e *engine) abcExchange(width int) (*abcCensus, *SparseExchangeCensus) {
	if e.abc == nil {
		var a abcCensus
		if pairs := e.cen.ABCPairs; pairs != nil {
			bounds := make([]int, e.p+1)
			for i := range bounds {
				bounds[i] = i
			}
			a = abcCensus{bounds: bounds, at: func(r, q int) int64 { return pairs[r][q] }, nnz: e.cen.NNZABC}
		} else {
			a = e.s.approxABC(e.cen.NNZ, e.pc.LiveFor(e.s))
		}
		e.abc = &a
		if e.abcX == nil {
			e.abcX = make(map[int]*SparseExchangeCensus)
		}
	}
	x, ok := e.abcX[width]
	if !ok {
		x = e.abc.exchange(e.pc, width)
		e.abcX[width] = x
	}
	return e.abc, x
}

// tile returns rank r's tile bytes under a layout, the executor's
// Local.Bytes().
func (e *engine) tile(l dist.Layout, r, rows, cols int) int64 {
	tr, tc := dist.TileShape(l, e.p, r, rows, cols)
	return int64(tr) * int64(tc) * 4
}

// execOp replays the current op's exact charge sequence on every rank.
func (e *engine) execOp() {
	op := e.op
	s, p := e.s, e.p
	switch op.Kind {
	case KInput:
		e.regs[op.Dst] = regShape{op.Layout.Normalize(p), op.Rows, op.Cols}
	case KRedist:
		a := e.regs[op.A]
		from, to := a.layout, op.To.Normalize(p)
		switch {
		case from == to:
			// Pointer alias, free.
		case to == dist.R:
			// replicate: world allgather of ragged source tiles, then
			// the full-matrix assembly memcpy.
			if p >= 2 {
				e.round(e.world, gidWorld, "allgather", hw.OpAllGather,
					e.pc.AllGatherCost(from, e.world, -1, a.rows, a.cols), false)
			}
			for _, r := range e.world {
				e.mem(r, int64(a.rows)*int64(a.cols)*4)
			}
		case from == dist.R:
			// Distribute from a replicated local copy: free.
		default:
			if op.Sparse && s.SparseEligible(from, to) {
				e.sparseExchange(e.pc.SparseExchange(s, from, to, a.rows, a.cols))
			} else {
				e.exchange(e.pc.Exchange(from, to, a.rows, a.cols, false), false)
			}
		}
		e.regs[op.Dst] = regShape{to, op.Rows, op.Cols}
	case KSpMM:
		a := e.regs[op.A]
		if p/s.RA > 1 {
			// Each column group allgathers its ragged feature slice
			// concurrently; rank r participates in its own group only.
			for j, grp := range e.colGroups {
				e.round(grp, gidCol(j), "allgather", hw.OpAllGather,
					e.pc.AllGatherCost(s.GridL, grp, j, a.rows, a.cols), false)
			}
			for r := 0; r < p; r++ {
				_, pcols := dist.TileShape(s.GridL, p, r, a.rows, a.cols)
				e.mem(r, int64(a.rows)*int64(pcols)*4)
			}
		}
		for r := 0; r < p; r++ {
			_, pcols := dist.TileShape(s.GridL, p, r, a.rows, a.cols)
			nnz := int64(0)
			src := e.cen.NNZBwd
			if op.Forward {
				src = e.cen.NNZFwd
			}
			if r < len(src) {
				nnz = src[r]
			}
			e.kernel(r, "spmm", e.h.SpMMTime(nnz, pcols), 0, nnz*int64(pcols))
		}
		e.regs[op.Dst] = regShape{s.GridL, op.Rows, op.Cols}
	case KSpMMABC:
		a := e.regs[op.A]
		abc, x := e.abcExchange(a.cols)
		for r := 0; r < p; r++ {
			nnz := int64(0)
			if r < len(abc.nnz) {
				nnz = abc.nnz[r]
			}
			e.kernel(r, "spmm", e.h.SpMMTime(nnz, a.cols), 0, nnz*int64(a.cols))
		}
		e.sparseExchange(x)
		e.regs[op.Dst] = regShape{dist.H, op.Rows, op.Cols}
	case KGEMM:
		a := e.regs[op.A]
		for r := 0; r < p; r++ {
			arows, _ := dist.TileShape(dist.H, p, r, a.rows, a.cols)
			e.kernel(r, "gemm", e.h.GemmTime(arows, a.cols, op.Cols),
				0, int64(arows)*int64(a.cols)*int64(op.Cols))
		}
		e.regs[op.Dst] = regShape{dist.H, op.Rows, op.Cols}
	case KGradGEMM:
		a, bb := e.regs[op.A], e.regs[op.B]
		for r := 0; r < p; r++ {
			arows, _ := dist.TileShape(dist.H, p, r, a.rows, a.cols)
			e.kernel(r, "gemm", e.h.GemmTime(a.cols, arows, bb.cols),
				0, int64(a.cols)*int64(arows)*int64(bb.cols))
		}
		e.regs[op.Dst] = regShape{dist.R, op.Rows, op.Cols}
	case KAllReduceGrad:
		if p >= 2 {
			e.round(e.world, gidWorld, "allreduce", hw.OpAllReduce,
				e.pc.AllReduceCost(int64(op.Rows)*int64(op.Cols)*4), false)
		}
	case KReLU:
		a := e.regs[op.A]
		for r := 0; r < p; r++ {
			e.mem(r, e.tile(a.layout, r, a.rows, a.cols))
		}
	case KReLUGrad:
		u, src := e.regs[op.A], e.regs[op.B]
		if src.layout != u.layout {
			for r := 0; r < p; r++ {
				e.mem(r, e.tile(src.layout, r, src.rows, src.cols))
			}
			e.exchange(e.pc.Exchange(src.layout, u.layout, src.rows, src.cols, true), true)
		}
		for r := 0; r < p; r++ {
			e.mem(r, e.tile(u.layout, r, u.rows, u.cols))
		}
	case KAdd:
		a := e.regs[op.A]
		for r := 0; r < p; r++ {
			e.mem(r, e.tile(a.layout, r, a.rows, a.cols))
		}
	case KMemoize, KReuse:
		e.regs[op.Dst] = e.regs[op.A]
	case KLoss:
		a := e.regs[op.A]
		for r := 0; r < p; r++ {
			e.mem(r, 2*e.tile(dist.H, r, a.rows, a.cols))
		}
		if p >= 2 {
			e.round(e.world, gidWorld, "allreduce", hw.OpAllReduce, e.pc.AllReduceCost(8), false)
		}
		e.regs[op.Dst] = regShape{dist.H, op.Rows, op.Cols}
	case KMemWrite:
		a := e.regs[op.A]
		for r := 0; r < p; r++ {
			e.mem(r, e.tile(a.layout, r, a.rows, a.cols))
		}
	case KUpdate:
		for r := 0; r < p; r++ {
			e.mem(r, 4*e.wBytes)
		}
	}
}
