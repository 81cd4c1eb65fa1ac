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
// device gets one busy-until cursor per resource (hw.Resource), every
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
//
// An op is replayed in two steps. describe, the one switch on the op's
// kind, writes its charges into a fixed-size descriptor (opDesc): the
// kernels each rank runs before, between and after the op's rendezvous
// rounds, each as a census or nnz row or as a value per tile class.
// step then walks the ranks once per segment: the first pass starts
// each rank at max(lane free, dependency finishes), applies the charges
// before the first round and folds that round's maximum; the round's
// arithmetic happens once per group; every later pass settles a round
// on each rank, applies the charges after it, and either folds the next
// round's maximum or writes the finish row and advances the lane.

// ReplayResult is everything one replayed run measured.
type ReplayResult struct {
	P int
	// Clocks is each device's final simulated clock (its latest
	// cursor), equal to Device.Clock after the same live run.
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

	// busy[res][rank] is when the rank's resource is next free: each
	// resource is a serial timeline, so an op starts at max(its lane's
	// cursor, its dependencies' finishes) and advances only its lane.
	busy   [hw.NumResources][]float64
	clk    []float64 // each rank's clock between an op's passes
	grp    []float64 // column group j's maximum, then its finish (nil: no groups)
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

	meters comm.Meters

	// desc is the op being replayed, as describe wrote it; nc is its
	// current world round's finish time.
	desc opDesc
	nc   float64

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

// gidCol is column group j's counter index. At R_A = 1 the one column
// group is the world, and the fabric counts a rank set's rounds on one
// counter whichever op meets on it.
func (e *engine) gidCol(j int) int {
	if len(e.colGroups) == 1 {
		return gidWorld
	}
	return 1 + j
}

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
		// clock row and every lane's cursors and accumulators share one
		// array.
		f := make([]float64, (1+3*int(hw.NumResources))*p)
		e.clk, f = f[:p:p], f[p:]
		for res := range hw.NumResources {
			row := func() []float64 {
				r := f[:p:p]
				f = f[p:]
				return r
			}
			e.busy[res], e.comm[res], e.compute[res] = row(), row(), row()
		}
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
		busy: e.busy, clk: e.clk,
		grp:     resize(e.grp, len(cols)),
		finish:  resize(e.finish, nodes*p),
		regs:    resize(e.regs, s.NumRegs),
		seqTab:  resourceTable{node: seq},
		comm:    e.comm,
		compute: e.compute,

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
	clear(e.gens)
	for res := range hw.NumResources {
		clear(e.busy[res])
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
			e.grpKeys[e.gidCol(j)] = groupKey(grp)
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
				e.tr.BeginPhaseAt(r, 0, "epoch", e.clock(r))
			}
		}
		i := 0 // node index: schedule order
		for si := range e.s.Sections {
			e.sec = &e.s.Sections[si]
			for j := range e.sec.Ops {
				e.op = &e.sec.Ops[j]
				e.describe()
				e.step(i)
				if e.perOp != nil {
					e.priceOp()
				}
				i++
			}
		}
		e.sec, e.op = nil, nil
		// The training driver's protocol: barrier, stats snapshot, barrier.
		// With no barriers (a bare Epoch loop) the snapshot lands at the
		// epoch join.
		m := e.join()
		if e.nbarr == 0 {
			e.snapshot(ep)
		}
		for b := 0; b < e.nbarr; b++ {
			if e.p >= 2 {
				m = e.barrier(m)
			}
			if b == 0 {
				e.snapshot(ep)
			}
		}
		if e.tr != nil {
			for r := 0; r < e.p; r++ {
				e.tr.EndPhaseAt(r, 0, e.clock(r))
			}
		}
	}
}

// join is the epoch boundary, in one pass over the ranks: the executor
// merges its lanes back into the base device (every cursor moves to the
// rank's clock, the latest of them) and adds each lane's accumulated
// comm/compute time onto the base's, link lanes in resource order; a
// lane no op ran on adds +0. It returns the latest clock, the maximum
// the first epoch barrier synchronizes to.
func (e *engine) join() float64 {
	var m float64
	bc, bk := e.comm[hw.ResCompute], e.compute[hw.ResCompute]
	for r := range bc {
		c := e.clock(r)
		for res := range hw.NumResources {
			e.busy[res][r] = c
		}
		for res := hw.ResCompute + 1; res < hw.NumResources; res++ {
			bc[r] += e.comm[res][r]
			bk[r] += e.compute[res][r]
			e.comm[res][r], e.compute[res][r] = 0, 0
		}
		m = later(m, c)
	}
	return m
}

// barrier replays one world Barrier on the base timeline, given the
// latest of the ranks' clocks: latency-only, never metered, but it does
// consume a world rendezvous round and its skew lands in comm time,
// exactly as live. It follows a join, so every rank's lanes agree and
// each leaves with all of them at the round's finish time, which it
// returns: the next barrier's maximum.
func (e *engine) barrier(m float64) float64 {
	c := topo.Cost{Time: e.pc.meter.Barrier(e.world)}
	nc := m + c.Time
	e.gens[gidWorld]++
	bc := e.comm[hw.ResCompute]
	for r := range bc {
		before := e.busy[hw.ResCompute][r]
		bc[r] += nc - before
		if e.tr != nil {
			e.emitRound(r, hw.ResCompute, "barrier", gidWorld, e.p, c, before, nc)
		}
		for res := range hw.NumResources {
			e.busy[res][r] = nc
		}
	}
	return nc
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

// clock returns rank r's clock: its latest resource cursor.
func (e *engine) clock(r int) float64 {
	m := e.busy[hw.ResCompute][r]
	for res := hw.ResCompute + 1; res < hw.NumResources; res++ {
		m = later(m, e.busy[res][r])
	}
	return m
}

// clocks returns each device's clock in fresh storage.
func (e *engine) clocks() []float64 {
	c := make([]float64, e.p)
	for r := range c {
		c[r] = e.clock(r)
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
		e.snapClock[ep][r] = e.clock(r)
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

// maxCharges and maxRounds bound one op's descriptor: the sparse
// exchange's two rounds with two charges between them, and two charges
// on either side (KReLUGrad across layouts, KSpMMABC).
const (
	maxCharges = 6
	maxRounds  = 2
)

// opDesc is one op's charge sequence in rank-independent form: the
// kernels ch[:at[0]] run before round 0, ch[at[k-1]:at[k]] between
// rounds k-1 and k, and ch[at[rounds-1]:n] after the last round.
type opDesc struct {
	n, rounds int
	at        [maxRounds]int
	ch        [maxCharges]charge
	rd        [maxRounds]round
}

// kernel names a charge's kernel, indexing kernelNames.
type kernel uint8

const (
	kMem kernel = iota
	kGemm
	kSpMM
)

var kernelNames = [...]string{kMem: "mem", kGemm: "gemm", kSpMM: "spmm"}

// charge is one compute kernel every rank runs, Device.chargeKernel's
// charge: the clock and the lane's compute accumulator advance by its
// time. A charge over a row takes each rank's bytes (kMem, a census
// row) or stored entries (kSpMM, an nnz row, over its tile's columns
// under split) from it. Otherwise the charge depends on the rank only
// through its tile class under split, and t, bytes and flops hold each
// class's time and trace figures.
type charge struct {
	kern  kernel
	split dist.TileSplit
	row   []int64
	t     [4]float64
	bytes [4]int64
	flops [4]int64
}

// round is one rendezvous: a world collective priced c, or (col) every
// column group all-gathering its members' tiles of a rows×cols matrix
// under the schedule's grid layout, concurrently.
type round struct {
	name       string
	kind       hw.CollectiveKind
	side       bool
	c          topo.Cost
	col        bool
	rows, cols int
}

// add appends a charge of kernel k under split and returns it for the
// caller to fill: its row, or every class's time and trace figures.
func (d *opDesc) add(k kernel, split dist.TileSplit) *charge {
	c := &d.ch[d.n]
	d.n++
	*c = charge{kern: k, split: split}
	return c
}

// memTile charges mul passes over each rank's tile of a rows×cols
// matrix under l.
func (e *engine) memTile(l dist.Layout, rows, cols int, mul int64) {
	sp := dist.Split(l, e.p, rows, cols)
	c := e.desc.add(kMem, sp)
	for k := range c.t {
		b := mul * (int64(sp.Rows[k>>1]) * int64(sp.Cols[k&1]) * 4)
		c.t[k], c.bytes[k] = e.h.MemTime(b), b
	}
}

// memRow charges each rank a pass over row[rank] bytes.
func (e *engine) memRow(row []int64) {
	c := e.desc.add(kMem, dist.TileSplit{})
	c.row = clip(row)
}

// clip caps a per-rank row at its length, so a row shorter than P
// fails its pass's slice rather than lending the ranks past its end
// whatever lies in its spare capacity.
func clip(row []int64) []int64 { return row[:len(row):len(row)] }

// spmm charges each rank an SpMM over its nnz[rank] stored entries and
// its tile's columns under sp; an empty nnz row charges zero entries.
func (e *engine) spmm(nnz []int64, sp dist.TileSplit) {
	c := e.desc.add(kSpMM, sp)
	if len(nnz) > 0 {
		c.row = clip(nnz)
	} else {
		for k := range c.t {
			c.t[k] = e.h.SpMMTime(0, sp.Cols[k&1])
		}
	}
}

// gemm charges each rank an (m×k)·(k×n) product whose dimension tall
// (0 = m, 1 = k) is the rank's H row count of a rows×cols matrix.
func (e *engine) gemm(rows, cols, m, k, n, tall int) {
	sp := dist.Split(dist.H, e.p, rows, cols)
	c := e.desc.add(kGemm, sp)
	for i := range c.t {
		dims := [3]int{m, k, n}
		dims[tall] = sp.Rows[i>>1]
		c.t[i] = e.h.GemmTime(dims[0], dims[1], dims[2])
		c.flops[i] = int64(dims[0]) * int64(dims[1]) * int64(dims[2])
	}
}

// worldRound appends a metered world collective; a single rank has no
// peer to meet and skips it, as live.
func (e *engine) worldRound(name string, kind hw.CollectiveKind, c topo.Cost, side bool) {
	if e.p < 2 {
		return
	}
	d := &e.desc
	d.at[d.rounds] = d.n
	d.rd[d.rounds] = round{name: name, kind: kind, side: side, c: c}
	d.rounds++
}

// exchange appends one all-to-all round's charge order — divide
// memcpy, metered world all-to-all, merge memcpy — from its census:
// dist.regrid's sequence, and each of the two rounds of
// dist.RedistributeSparse and of the KSpMMABC result exchange. side
// routes the round to the side-channel meters (byte-packed ReLU masks,
// sparse metadata adverts).
func (e *engine) exchange(x *ExchangeCensus, side bool) {
	e.memRow(x.Div)
	e.worldRound("alltoall", hw.OpAllToAll, x.A2A, side)
	e.memRow(x.Mer)
}

// sparseExchange appends a two-round exchange: the metadata advert
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

// describe writes the current op's exact charge sequence into the
// descriptor and moves the register shapes as the op does.
func (e *engine) describe() {
	op := e.op
	s, p := e.s, e.p
	e.desc.n, e.desc.rounds = 0, 0
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
			e.worldRound("allgather", hw.OpAllGather, e.pc.AllGatherCost(from, e.world, -1, a.rows, a.cols), false)
			e.memTile(dist.R, a.rows, a.cols, 1)
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
		sp := dist.Split(s.GridL, p, a.rows, a.cols)
		if e.colGroups != nil {
			// Each column group allgathers its ragged feature slice
			// concurrently (rank r in its own group only), then
			// assembles its full-height slice.
			d := &e.desc
			d.at[0], d.rd[0], d.rounds = 0, round{name: "allgather", kind: hw.OpAllGather, col: true, rows: a.rows, cols: a.cols}, 1
			c := d.add(kMem, sp)
			for k := range c.t {
				b := int64(a.rows) * int64(sp.Cols[k&1]) * 4
				c.t[k], c.bytes[k] = e.h.MemTime(b), b
			}
		}
		nnz := e.cen.NNZBwd
		if op.Forward {
			nnz = e.cen.NNZFwd
		}
		e.spmm(nnz, sp)
		e.regs[op.Dst] = regShape{s.GridL, op.Rows, op.Cols}
	case KSpMMABC:
		a := e.regs[op.A]
		abc, x := e.abcExchange(a.cols)
		e.spmm(abc.nnz, dist.Split(dist.R, p, a.rows, a.cols))
		e.sparseExchange(x)
		e.regs[op.Dst] = regShape{dist.H, op.Rows, op.Cols}
	case KGEMM:
		a := e.regs[op.A]
		e.gemm(a.rows, a.cols, 0, a.cols, op.Cols, 0)
		e.regs[op.Dst] = regShape{dist.H, op.Rows, op.Cols}
	case KGradGEMM:
		a, bb := e.regs[op.A], e.regs[op.B]
		e.gemm(a.rows, a.cols, a.cols, 0, bb.cols, 1)
		e.regs[op.Dst] = regShape{dist.R, op.Rows, op.Cols}
	case KAllReduceGrad:
		e.worldRound("allreduce", hw.OpAllReduce, e.pc.AllReduceCost(int64(op.Rows)*int64(op.Cols)*4), false)
	case KReLU, KAdd, KMemWrite:
		a := e.regs[op.A]
		e.memTile(a.layout, a.rows, a.cols, 1)
	case KReLUGrad:
		u, src := e.regs[op.A], e.regs[op.B]
		if src.layout != u.layout {
			e.memTile(src.layout, src.rows, src.cols, 1)
			e.exchange(e.pc.Exchange(src.layout, u.layout, src.rows, src.cols, true), true)
		}
		e.memTile(u.layout, u.rows, u.cols, 1)
	case KMemoize, KReuse:
		e.regs[op.Dst] = e.regs[op.A]
	case KLoss:
		a := e.regs[op.A]
		e.memTile(dist.H, a.rows, a.cols, 2)
		e.worldRound("allreduce", hw.OpAllReduce, e.pc.AllReduceCost(8), false)
		e.regs[op.Dst] = regShape{dist.H, op.Rows, op.Cols}
	case KUpdate:
		e.memTile(dist.R, 1, 1, e.wBytes)
	}
}

// blk is how many ranks a pass carries through its stages at a time:
// one block's clocks, cursors and accumulators stay in L1 from the
// start to the fold, and each stage is a short loop over them.
const blk = 64

// step replays node i from the descriptor: one pass over the ranks per
// segment of charges, with each round's arithmetic between two passes.
func (e *engine) step(i int) {
	d := &e.desc
	var deps []int
	var fin []float64
	if e.deps != nil {
		deps, fin = e.deps[i].Deps, e.finish[i*e.p:(i+1)*e.p]
	}
	lo := 0
	for k := 0; k <= d.rounds; k++ {
		hi := d.n
		if k < d.rounds {
			hi = d.at[k]
		}
		m := e.pass(i, k, d.ch[lo:hi], deps, fin)
		if k < d.rounds {
			e.rendezvous(&d.rd[k], m)
		}
		lo = hi
	}
}

// pass is segment k's walk over the ranks, a block at a time. Each rank
// starts (k = 0) at max(its lane's cursor, its dependencies' finishes),
// or settles round k-1 on its comm accumulator with its own
// skew-inclusive delta; it applies the segment's charges in order, and
// then either folds round k's maximum — returned for a world round,
// kept per group in grp for a column round — or, after the last
// segment, writes the finish row (overlapped) and advances its lane.
// The clock row holds each rank's clock through all of it.
func (e *engine) pass(i, k int, ch []charge, deps []int, fin []float64) float64 {
	d := &e.desc
	var settle, next *round
	if k > 0 {
		settle = &d.rd[k-1]
	}
	if k < d.rounds {
		next = &d.rd[k]
		if next.col {
			clear(e.grp)
		}
	}
	// A node's lane is one resource on every rank, except a KSpMM whose
	// lane is each rank's column group's link.
	res, lanes := e.resTab.node[i], []hw.Resource(nil)
	if res == colRes {
		lanes = e.resTab.col
	}
	tr := e.tr != nil
	var was [blk]float64 // a traced block's clocks before a stage
	var m float64
	p := e.p
	for r0 := 0; r0 < p; {
		r1 := min(r0+blk, p)
		if lanes != nil {
			// A block runs on one lane: it ends where the lane changes.
			res = lanes[r0]
			for r := r0 + 1; r < r1; r++ {
				if lanes[r] != res {
					r1 = r
					break
				}
			}
		}
		c := e.clk[r0:r1]
		free, comm, comp := e.busy[res][r0:r1], e.comm[res][r0:r1], e.compute[res][r0:r1]
		before := was[:len(c)]
		if tr {
			copy(before, c)
		}
		switch {
		case settle == nil:
			copy(c, free)
			for _, dep := range deps {
				fold(c, e.finish[dep*p+r0:dep*p+r1])
			}
		case settle.col:
			e.settleCol(c, comm, r0)
		default:
			settleWorld(c, comm, e.nc)
		}
		if tr && settle != nil {
			for x := range c {
				e.emitSettle(r0+x, res, (r0+x)%e.s.RA, settle, before[x], c[x])
			}
		}
		for x := range ch {
			q := &ch[x]
			if tr {
				copy(before, c)
			}
			e.charge(q, c, comp, r0)
			if tr {
				for x := range c {
					e.emitKernel(r0+x, res, q, before[x], c[x])
				}
			}
		}
		switch {
		case next == nil:
			if fin != nil {
				copy(fin[r0:r1], c)
			}
			fold(free, c)
		case next.col:
			e.foldCol(c, r0)
		default:
			m = foldMax(m, c)
		}
		r0 = r1
	}
	return m
}

// charge applies charge q to a block of clocks c, and of the lane's
// compute accumulators comp, that starts at rank r0. Outside a grid
// only one tile dimension varies, so the block splits at one rank into
// a run that takes the larger tile and a run that takes the smaller.
func (e *engine) charge(q *charge, c, comp []float64, r0 int) {
	h, sp := e.h, &q.split
	switch {
	case q.row != nil && q.kern == kSpMM:
		for x, nnz := range q.row[r0 : r0+len(c)] {
			t := h.SpMMTime(nnz, sp.Cols[sp.Class(r0+x)&1])
			c[x] += t
			comp[x] += t
		}
	case q.row != nil:
		for x, b := range q.row[r0 : r0+len(c)] {
			t := h.MemTime(b)
			c[x] += t
			comp[x] += t
		}
	case sp.ColMod == 0 && (sp.RowCut == 0 || sp.ColCut == 0):
		cut, hi := sp.RowCut, q.t[2]
		if sp.ColCut != 0 {
			cut, hi = sp.ColCut, q.t[1]
		}
		cut = min(max(cut-r0, 0), len(c))
		addEach(c[:cut], comp[:cut], hi)
		addEach(c[cut:], comp[cut:], q.t[0])
	default:
		for x := range c {
			t := q.t[sp.Class(r0+x)]
			c[x] += t
			comp[x] += t
		}
	}
}

// addEach charges every rank of a block the same time t.
func addEach(c, comp []float64, t float64) {
	comp = comp[:len(c)]
	for x := range c {
		c[x] += t
		comp[x] += t
	}
}

// settleWorld settles a block on a world round that finishes at nc.
func settleWorld(c, comm []float64, nc float64) {
	comm = comm[:len(c)]
	for x, before := range c {
		comm[x] += nc - before
		c[x] = nc
	}
}

// settleCol settles a block that starts at rank r0 on its column
// groups' rounds, each finishing at its grp entry.
func (e *engine) settleCol(c, comm []float64, r0 int) {
	comm = comm[:len(c)]
	grp, ra := e.grp, e.s.RA
	j := r0 % ra
	for x, before := range c {
		nc := grp[j]
		comm[x] += nc - before
		c[x] = nc
		if j++; j == ra {
			j = 0
		}
	}
}

// foldCol folds a block that starts at rank r0 into its column groups'
// maxima.
func (e *engine) foldCol(c []float64, r0 int) {
	grp, ra := e.grp, e.s.RA
	j := r0 % ra
	for _, v := range c {
		grp[j] = later(grp[j], v)
		if j++; j == ra {
			j = 0
		}
	}
}

// fold raises each dst entry to its src entry where that is later.
func fold(dst, src []float64) {
	src = src[:len(dst)]
	for x, v := range src {
		dst[x] = later(dst[x], v)
	}
}

// foldMax returns the latest of m and c's entries.
func foldMax(m float64, c []float64) float64 {
	for _, v := range c {
		m = later(m, v)
	}
	return m
}

// later is max for clocks, which are never NaN or −0 (where the two
// would differ): a compare and a branch, which the ranks of one op
// mostly take alike, where the built-in max is a sign- and NaN-safe
// sequence of six instructions — one a rank's start waits on, and one
// a round's maximum chains from rank to rank.
func later(m, c float64) float64 {
	if c > m {
		return c
	}
	return m
}

// rendezvous is a round's arithmetic, once per group: the group's
// finish time max(member clocks) + price, its round counter, and one
// meter booking. A world round's finish is nc; column group j's
// replaces its maximum in grp[j].
func (e *engine) rendezvous(rd *round, m float64) {
	if !rd.col {
		e.nc = m + rd.c.Time
		e.gens[gidWorld]++
		e.meters.Add(rd.kind, rd.c, rd.side)
		return
	}
	for j, grp := range e.colGroups {
		c := e.pc.AllGatherCost(e.s.GridL, grp, j, rd.rows, rd.cols)
		e.grp[j] += c.Time
		e.gens[e.gidCol(j)]++
		e.meters.Add(rd.kind, c, rd.side)
	}
}

// emitKernel records charge q's kernel on rank r.
func (e *engine) emitKernel(r int, res hw.Resource, q *charge, start, end float64) {
	cl := q.split.Class(r)
	bytes, flops := q.bytes[cl], q.flops[cl]
	if q.row != nil {
		if q.kern == kSpMM {
			flops = q.row[r] * int64(q.split.Cols[cl&1])
		} else {
			bytes = q.row[r]
		}
	}
	e.setScope(r, int(res))
	e.tr.Emit(r, trace.Event{
		Class: trace.ClassKernel, Op: kernelNames[q.kern],
		Bytes: bytes, Flops: flops,
		Start: start, End: end, Track: int(res),
	})
}

// emitSettle records rank r's part in round rd, which it belongs to as
// a member of column group j or of the world.
func (e *engine) emitSettle(r int, res hw.Resource, j int, rd *round, before, nc float64) {
	if rd.col {
		grp := e.colGroups[j]
		e.emitRound(r, res, rd.name, e.gidCol(j), len(grp),
			e.pc.AllGatherCost(e.s.GridL, grp, j, rd.rows, rd.cols), before, nc)
		return
	}
	e.emitRound(r, res, rd.name, gidWorld, e.p, rd.c, before, nc)
}

// emitRound records one collective round on rank r, from its clock
// before the rendezvous to the group's finish.
func (e *engine) emitRound(r int, res hw.Resource, name string, gid, size int, c topo.Cost, before, nc float64) {
	e.setScope(r, int(res))
	e.tr.Emit(r, trace.Event{
		Class: trace.ClassCollective, Op: name,
		Group: e.grpKeys[gid], Seq: e.gens[gid], GroupSize: size,
		Bytes: c.Bytes(), Tier1: c.Tier[topo.TierInter],
		Start: before, End: nc, Track: int(res),
	})
}
