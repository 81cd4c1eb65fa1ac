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
// comm/compute accumulators, the meter census, optional trace),
// PriceDAG* (the same clocks, overlapped and sequential) and
// Schedule.PriceOn (one sequential epoch, read off op by op). Every
// device gets one occupancy cursor per resource (hw.Occupancy), every
// op replays the interpreter's charge sequence — core.execOp's kernel
// charges, in order, with each rank's own tile shapes — and every
// collective synchronizes its group to max(member deposits) + the price
// comm.Meter computes on the live fabric for the same group and byte
// census (PriceCache evaluates the same topo costers and flat closed
// forms, once per distinct round).
// Because the charges and the rendezvous rule are the executor's own,
// the clocks equal the live fabric's device clocks exactly: overlapped
// when each op starts at max(resource free, dependency finishes),
// sequential when ops run back to back on one joined timeline
// (verify.CheckSimMatchesFabric, CheckOverlapEquivalence).

// Meters is the replayed fabric's byte census, field-for-field the
// live fabric's accounting (comm.Fabric addVolume): primary and
// side-channel volume, call counts, and per-link-tier splits, all by
// collective kind.
type Meters struct {
	Volume         [hw.NumCollectiveKinds]int64
	SideVolume     [hw.NumCollectiveKinds]int64
	Calls          [hw.NumCollectiveKinds]int64
	TierVolume     [topo.NumTiers][hw.NumCollectiveKinds]int64
	SideTierVolume [topo.NumTiers][hw.NumCollectiveKinds]int64
}

// add replicates Fabric.addVolume: primary or side routing, intra/inter
// tier split, and the per-kind call counter.
func (m *Meters) add(kind hw.CollectiveKind, vol comm.Volume, side bool) {
	if side {
		m.SideVolume[kind] += vol.Bytes
		m.SideTierVolume[topo.TierIntra][kind] += vol.Bytes - vol.Tier1
		m.SideTierVolume[topo.TierInter][kind] += vol.Tier1
	} else {
		m.Volume[kind] += vol.Bytes
		m.TierVolume[topo.TierIntra][kind] += vol.Bytes - vol.Tier1
		m.TierVolume[topo.TierInter][kind] += vol.Tier1
	}
	m.Calls[kind]++
}

// TotalVolume returns all bytes moved including side-channel traffic,
// matching Fabric.TotalVolume.
func (m *Meters) TotalVolume() int64 {
	var s int64
	for k := range m.Volume {
		s += m.Volume[k] + m.SideVolume[k]
	}
	return s
}

// TotalSideVolume returns the side-channel bytes across all kinds.
func (m *Meters) TotalSideVolume() int64 {
	var s int64
	for k := range m.SideVolume {
		s += m.SideVolume[k]
	}
	return s
}

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
	Meters Meters
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
// under the overlap executor's lane model or the sequential
// interpreter's single timeline, with barriers world barriers after
// each epoch (0 = a bare Engine.Epoch loop, 2 = core.TrainResumable's
// barrier/snapshot protocol). A nil cache prices with a private one; a
// non-nil tracer records the synthesized timeline into a virtual
// session named label. sim.Run is the validated entry point — Replay
// trusts its arguments.
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
// attribution. newEngine allocates the scratch the sequential walk
// needs; the overlap executor's dependency finishes, link lanes and
// resource table come with its first run, and the epoch snapshots only
// when a ReplayResult reports them. The walk itself allocates nothing,
// so PriceDAG* runs both executors on one engine.
type engine struct {
	d   *DAG // dependency edges, read only by the overlap executor
	s   *Schedule
	cen Census
	h   *hw.Model
	tp  *topo.Topology
	pc  *PriceCache

	p       int
	epochs  int
	overlap bool
	nbarr   int

	occ    []hw.Occupancy
	clk    []float64
	finish []float64 // overlap executor: [node*p + rank] finish times, rewritten each epoch
	regs   []regShape

	// comm/compute accumulators per resource lane. Seq mode charges
	// everything to lane 0; overlap mode charges each op to its
	// resource's lane and folds lanes 1..N-1 into 0 at the epoch join,
	// replicating Device.MergeLane's accumulation order bit-for-bit.
	comm    [hw.NumResources][]float64
	compute [hw.NumResources][]float64
	resCur  []hw.Resource // current op's resource per rank (ResCompute in seq mode)
	resTab  *resourceTable

	meters Meters

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
	was      Meters
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

// newEngine binds an engine to a schedule; d is the schedule's DAG, nil
// when only the sequential executor runs.
func newEngine(s *Schedule, d *DAG, cen Census, h *hw.Model, tp *topo.Topology, epochs int, pc *PriceCache) *engine {
	p := s.P
	if pc == nil {
		pc = NewPriceCache()
	}
	pc.Bind(p, h, tp)
	e := &engine{
		d: d, s: s, cen: cen, h: h, tp: tp, pc: pc,
		p: p, epochs: epochs,
		occ:    make([]hw.Occupancy, p),
		regs:   make([]regShape, s.NumRegs),
		resCur: make([]hw.Resource, p),
		world:  pc.world,
		wBytes: s.weightBytes(),
	}
	// The clock scratch and the base lane's accumulators share one array.
	f := make([]float64, 3*p)
	e.clk, e.comm[hw.ResCompute], e.compute[hw.ResCompute] = f[:p:p], f[p:2*p:2*p], f[2*p:]
	if p/s.RA > 1 {
		// Only multi-rank column groups ever rendezvous (KSpMM's
		// allgather); singleton groups need no rank lists, round
		// counters or trace keys.
		e.colGroups = make([][]int, s.RA)
		for j := range e.colGroups {
			e.colGroups[j] = s.colGroup(j)
		}
	}
	e.gens = make([]uint64, 1+len(e.colGroups))
	return e
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

// begin resets the engine for one run. The link-lane accumulators need
// no reset: every epoch join leaves them zero. Stale finish times and
// register shapes are overwritten before they are read (dependencies
// point backwards in node order).
func (e *engine) begin(overlap bool, nbarr int, tr *trace.Tracer, label string) {
	e.overlap, e.nbarr, e.tr = overlap, nbarr, tr
	clear(e.occ)
	clear(e.resCur)
	clear(e.gens)
	clear(e.comm[hw.ResCompute])
	clear(e.compute[hw.ResCompute])
	e.meters = Meters{}
	if overlap && e.resTab == nil {
		e.finish = make([]float64, len(e.d.Nodes)*e.p)
		for res := hw.ResCompute + 1; res < hw.NumResources; res++ {
			e.comm[res] = make([]float64, e.p)
			e.compute[res] = make([]float64, e.p)
		}
		e.resTab = e.d.resources(e.tp)
	}
	if e.keep {
		e.snapClock = make([][]float64, e.epochs)
		e.snapComm = make([][]float64, e.epochs)
		e.snapCompute = make([][]float64, e.epochs)
		e.snapBytes = make([]int64, e.epochs)
		for ep := range e.snapClock {
			e.snapClock[ep] = make([]float64, e.p)
			e.snapComm[ep] = make([]float64, e.p)
			e.snapCompute[ep] = make([]float64, e.p)
		}
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
				if e.overlap {
					copy(e.finish[i*e.p:(i+1)*e.p], e.clk)
					for r := 0; r < e.p; r++ {
						e.occ[r].Advance(e.resCur[r], e.clk[r])
					}
				} else {
					for r := 0; r < e.p; r++ {
						e.occ[r].Advance(hw.ResCompute, e.clk[r])
						e.occ[r].Join()
					}
					if e.perOp != nil {
						e.priceOp()
					}
				}
				i++
			}
		}
		e.sec, e.op = nil, nil
		if e.overlap {
			// Epoch boundary: the executor merges its lanes back into the
			// base device (occupancy Join; clock = max over lanes) and
			// adds each lane's accumulated comm/compute time onto the
			// base's, link lanes in resource order.
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
		}
		// TrainResumable's protocol: barrier, stats snapshot, barrier.
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

// position places each rank's clock where node i starts on it and
// records the op's resource per rank: overlapped ops start at max(their
// resource's cursor, their DAG dependencies' finishes); sequential ops
// run back to back on the joined compute timeline.
func (e *engine) position(i int) {
	if !e.overlap {
		for r := 0; r < e.p; r++ {
			e.clk[r] = e.occ[r].Free(hw.ResCompute)
		}
		return
	}
	deps := e.d.Nodes[i].Deps
	for r := 0; r < e.p; r++ {
		res := e.resTab.at(i, r)
		e.resCur[r] = res
		start := e.occ[r].Free(res)
		for _, m := range deps {
			start = max(start, e.finish[m*e.p+r])
		}
		e.clk[r] = start
	}
}

// clocks returns each device's clock (its occupancy makespan).
func (e *engine) clocks() []float64 {
	c := make([]float64, e.p)
	for r := range c {
		c[r] = e.occ[r].Makespan()
	}
	return c
}

func (e *engine) result() *ReplayResult {
	return &ReplayResult{
		P:            e.p,
		Clocks:       e.clocks(),
		CommTime:     e.comm[hw.ResCompute],
		ComputeTime:  e.compute[hw.ResCompute],
		Meters:       e.meters,
		EpochClock:   e.snapClock,
		EpochComm:    e.snapComm,
		EpochCompute: e.snapCompute,
		EpochBytes:   e.snapBytes,
	}
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
// lane's compute accumulator advance by t (straggler-multiplied),
// exactly Device.chargeKernel.
func (e *engine) kernel(r int, opName string, t float64, bytes, flops int64) {
	if e.cen.Slow != nil && r < len(e.cen.Slow) && e.cen.Slow[r] > 1 {
		t *= e.cen.Slow[r]
	}
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

// collective synchronizes the group at max(member clocks) + t — the
// fabric's rendezvous rule — charging each member's comm accumulator
// with its own skew-inclusive delta and metering the round once.
// Callers guarantee len(group) >= 2 (smaller groups never reach the
// live fabric either).
func (e *engine) collective(group []int, gid int, opName string, kind hw.CollectiveKind, t float64, vol comm.Volume, metered, side bool) {
	var m float64
	for _, r := range group {
		m = max(m, e.clk[r])
	}
	nc := m + t
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
				Bytes: vol.Bytes, Tier1: vol.Tier1,
				Start: before, End: nc, Track: int(res),
			})
		}
		e.clk[r] = nc
	}
	if metered {
		e.meters.add(kind, vol, side)
	}
}

// round replays one metered collective round from its cached price.
func (e *engine) round(group []int, gid int, opName string, kind hw.CollectiveKind, cst topo.Cost, side bool) {
	vol := comm.Volume{Bytes: cst.Bytes(), Tier1: cst.Tier[topo.TierInter]}
	e.collective(group, gid, opName, kind, cst.Time, vol, true, side)
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
	t := e.h.LinkLatency
	if e.tp != nil {
		t = e.tp.Barrier(e.h, e.world)
	}
	e.collective(e.world, gidWorld, "barrier", hw.OpSendRecv, t, comm.Volume{}, false, false)
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
		e.abc, e.abcX = &a, make(map[int]*SparseExchangeCensus)
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
