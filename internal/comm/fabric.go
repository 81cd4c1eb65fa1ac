// Package comm implements the simulated multi-device fabric on which the
// GNN-RDM reproduction runs. Each simulated device is a goroutine with
// private buffers; collectives move real bytes between device memories
// (data is copied, never shared), meter the exact communicated volume,
// and advance per-device simulated clocks through the hw.Model.
//
// Clock semantics follow how distributed GPU time is measured in the
// paper: a collective synchronizes all participants to
// max(participant clocks) + modelled collective time, and the elapsed
// time (including skew wait) is charged to each participant's
// communication time. Compute kernels charge their modelled duration to
// compute time.
//
// Stat lifecycle: Fabric.ResetVolumes zeroes the volume/call counters
// only; Fabric.ResetStats additionally zeroes every device's
// clock/commTime/computeTime, so warm-up work can be excluded from both
// volume and time accounting. All stat readers (MaxClock, Volume,
// Device.Clock/CommTime/ComputeTime) and both resets are only safe when
// no Run is in flight.
//
// Tracing: attach an internal/trace Tracer with Fabric.SetTracer before
// Run and every kernel charge and collective is recorded as a trace
// event (collectives carry their exact metered volume). A nil tracer
// keeps the hot paths allocation-free.
//
// Error handling: every collective has a Try* variant returning an
// error; the short names are panicking wrappers for SPMD code where a
// collective failure is unrecoverable. See CollectiveError in errors.go
// for the cooperative delivery contract that keeps data errors (nil
// buffers, cross-rank length disagreement) from deadlocking the group.
package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"gnnrdm/internal/hw"
	"gnnrdm/internal/tensor"
	"gnnrdm/internal/topo"
	"gnnrdm/internal/trace"
)

// Fabric is a set of P simulated devices sharing a communication fabric.
type Fabric struct {
	P  int
	HW *hw.Model

	devices []*Device
	world   []int // [0, 1, ..., P-1], handed out read-only by Device.World

	mu     sync.Mutex
	groups map[string]*groupComm

	volumes [hw.NumCollectiveKinds]atomic.Int64 // bytes moved, indexed by hw.CollectiveKind
	calls   [hw.NumCollectiveKinds]atomic.Int64
	// sideVolumes meters collectives issued while a device's side-channel
	// flag is set (Device.SetSideChannel): mechanical traffic such as
	// byte-packed ReLU masks that the paper's §IV cost model deliberately
	// omits. Keeping it out of `volumes` lets model-versus-meter
	// comparisons stay byte-exact.
	sideVolumes [hw.NumCollectiveKinds]atomic.Int64

	// tierVol/tierSide split the same bytes by link tier when a topology
	// is attached (SetTopology): tierVol[topo.TierInter] is the share
	// that crossed inter-node links. Without a topology everything
	// meters on tier 0, so tierVol[0] == volumes for every kind.
	tierVol  [topo.NumTiers][hw.NumCollectiveKinds]atomic.Int64
	tierSide [topo.NumTiers][hw.NumCollectiveKinds]atomic.Int64

	// rankSent is the per-rank injection census of the variable-volume
	// collectives (TryAllToAllV / TryAllGatherV): the logical bytes each
	// rank contributed to V-rounds, independent of how the topology
	// routed them. Dense collectives do not touch it. See RankSent.
	rankSent []atomic.Int64

	// topology, when non-nil, switches every collective's time and byte
	// accounting from the flat linkModel path to the topology-aware
	// algorithm library (internal/topo); algs holds the per-kind
	// algorithm selection (default topo.Auto). Set before Run.
	topology *topo.Topology
	algs     [hw.NumCollectiveKinds]topo.Algorithm

	// tracer, when non-nil, records every kernel charge and collective
	// as a trace event. Set before Run via SetTracer; nil keeps tracing
	// disabled at zero cost.
	tracer *trace.Tracer

	// Fault-injection state (see RESILIENCE.md). deadMu guards dead and
	// is never held together with the fabric mu or a group mu, so
	// dead-marking can wake rendezvous groups without ordering hazards.
	deadMu sync.Mutex
	dead   map[int]string // rank -> cause, for crashed or exited devices

	hook     FaultHook
	retry    RetryPolicy
	crc      bool
	deadline float64 // simulated seconds charged per abandoned collective
	// linkAlpha/linkBeta hold per-rank link degradation multipliers
	// (nil = clean fabric); a collective runs at the worst multipliers
	// among its participants.
	linkAlpha, linkBeta []float64
}

// FaultHook lets a fault injector (internal/fault) observe and perturb
// fabric activity deterministically. Both methods are driven purely by
// simulated state, never wall time.
type FaultHook interface {
	// BeforeCollective runs on every device entering a collective,
	// before the rendezvous. It may panic with Killed to crash the
	// device at a scheduled simulated time; Fabric.Run contains the
	// crash and fails the victim's peers with ErrPeerDead.
	BeforeCollective(d *Device, op string)
	// OnRound runs once per rendezvous round, on whichever device
	// finalizes it, under the group lock, after cooperative data errors
	// are scanned and before the operation's own finalizer. slots holds
	// every participant's deposited payload ([]float32 or [][]float32,
	// indexed by group position); the hook may flip bits in them to
	// model wire corruption, and may return an error wrapping
	// ErrTransient to fail the round for every participant (retried
	// under the fabric's RetryPolicy). It must not call back into the
	// fabric, and it must tolerate concurrent calls from the finalizers
	// of disjoint groups.
	OnRound(d *Device, op string, group []int, seq uint64, slots []any) error
}

// RetryPolicy bounds the fabric's automatic retry of transient collective
// failures (rounds failed with ErrTransient or ErrCorrupt). Backoff is
// charged to the simulated clock, never wall time: retry k (1-based)
// waits Backoff·Multiplier^(k-1) simulated seconds before re-entering
// the rendezvous. The zero policy disables retries.
type RetryPolicy struct {
	Max        int     // retries after the first attempt; 0 disables
	Backoff    float64 // simulated seconds before the first retry
	Multiplier float64 // backoff growth per retry (values < 1 read as 1)
}

// DefaultRetryPolicy is the policy the elastic driver installs when none
// is configured: three retries starting at 100 simulated microseconds,
// doubling each time.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Max: 3, Backoff: 100e-6, Multiplier: 2}
}

// DefaultCollectiveDeadline is the simulated time a survivor waits
// before abandoning a rendezvous with a dead peer when no explicit
// deadline is configured (SetCollectiveDeadline): one simulated
// millisecond, far beyond any clean collective in the modelled regime.
const DefaultCollectiveDeadline = 1e-3

// NewFabric creates a fabric with p devices using the given hardware model.
func NewFabric(p int, model *hw.Model) *Fabric {
	if p < 1 {
		panic("comm: need at least one device")
	}
	f := &Fabric{P: p, HW: model, groups: make(map[string]*groupComm)}
	f.rankSent = make([]atomic.Int64, p)
	f.devices = make([]*Device, p)
	f.world = make([]int, p)
	for r := 0; r < p; r++ {
		f.devices[r] = &Device{Rank: r, F: f, stages: new([hw.NumResources]Stage)}
		f.world[r] = r
	}
	return f
}

// Device returns the device with the given rank.
func (f *Fabric) Device(rank int) *Device { return f.devices[rank] }

// Run executes fn concurrently on every device and waits for completion.
//
// Fault containment: a device goroutine that panics with Killed (a
// scheduled crash from a fault injector) is marked dead, which fails any
// rendezvous its peers are blocked in with ErrPeerDead instead of
// hanging the fabric forever; the Killed value is then swallowed — the
// crash is the experiment, not a bug. Any other panic likewise marks the
// device dead so the survivors unblock and drain, but is re-raised
// (lowest rank first) once every goroutine has stopped. A device whose
// fn returns normally while peers are still communicating counts as
// departed the same way, so no rendezvous ever waits on a rank that can
// no longer arrive.
func (f *Fabric) Run(fn func(d *Device)) {
	f.deadMu.Lock()
	f.dead = nil // fabric reuse across Runs starts with a clean world
	f.deadMu.Unlock()
	panics := make([]any, f.P)
	var wg sync.WaitGroup
	for r := 0; r < f.P; r++ {
		wg.Add(1)
		go func(d *Device) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					panics[d.Rank] = rec
					cause := "panic"
					if k, ok := rec.(Killed); ok {
						cause = "killed: " + k.Reason
					}
					f.markDead(d.Rank, cause)
					return
				}
				f.markDead(d.Rank, "exited")
			}()
			fn(d)
		}(f.devices[r])
	}
	wg.Wait()
	for _, rec := range panics {
		if rec == nil {
			continue
		}
		if _, ok := rec.(Killed); ok {
			continue
		}
		panic(rec)
	}
}

// markDead records rank as unable to ever rejoin a rendezvous and wakes
// every group so blocked participants observe the death.
func (f *Fabric) markDead(rank int, cause string) {
	f.deadMu.Lock()
	if f.dead == nil {
		f.dead = make(map[int]string)
	}
	f.dead[rank] = cause
	f.deadMu.Unlock()
	f.mu.Lock()
	groups := make([]*groupComm, 0, len(f.groups))
	for _, g := range f.groups {
		groups = append(groups, g)
	}
	f.mu.Unlock()
	for _, g := range groups {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// deadIn returns a peer-dead error naming the first dead member of
// group, or nil when every member is live.
func (f *Fabric) deadIn(group []int) error {
	f.deadMu.Lock()
	defer f.deadMu.Unlock()
	if len(f.dead) == 0 {
		return nil
	}
	for _, r := range group {
		if cause, ok := f.dead[r]; ok {
			return fmt.Errorf("rank %d (%s): %w", r, cause, ErrPeerDead)
		}
	}
	return nil
}

// SetFaultHook attaches a fault injector's hook (nil detaches). Call
// before Run.
func (f *Fabric) SetFaultHook(h FaultHook) { f.hook = h }

// SetRetryPolicy configures automatic retry of transient/corrupt
// collective rounds. The zero policy (the default) disables retries, so
// the first transient failure surfaces as a *FaultError.
func (f *Fabric) SetRetryPolicy(rp RetryPolicy) { f.retry = rp }

// EnableCRC arms the CRC32 side-channel: each collective round's
// payloads are checksummed before the fault hook runs and verified
// after it, so injected wire corruption surfaces as an ErrCorrupt round
// (retried under the RetryPolicy) instead of silently poisoning
// training. The checksums ride the existing rendezvous and move no
// extra metered bytes; with no hook attached the channel costs nothing.
// Disabled by default.
func (f *Fabric) EnableCRC(on bool) { f.crc = on }

// SetCollectiveDeadline sets the simulated-time deadline a survivor is
// charged when abandoning a rendezvous with a dead peer; seconds <= 0
// restores DefaultCollectiveDeadline.
func (f *Fabric) SetCollectiveDeadline(seconds float64) { f.deadline = seconds }

func (f *Fabric) collectiveDeadline() float64 {
	if f.deadline > 0 {
		return f.deadline
	}
	return DefaultCollectiveDeadline
}

// SetLinkFault degrades one device's link: subsequent collectives
// involving rank pay alphaMul× the latency and 1/betaMul× the bandwidth
// of the base model (a collective runs at the worst multipliers among
// its participants). Multipliers <= 1 mark the link clean. Call before
// Run.
func (f *Fabric) SetLinkFault(rank int, alphaMul, betaMul float64) {
	if f.linkAlpha == nil {
		f.linkAlpha = make([]float64, f.P)
		f.linkBeta = make([]float64, f.P)
		for i := range f.linkAlpha {
			f.linkAlpha[i], f.linkBeta[i] = 1, 1
		}
	}
	if alphaMul < 1 {
		alphaMul = 1
	}
	if betaMul < 1 {
		betaMul = 1
	}
	f.linkAlpha[rank], f.linkBeta[rank] = alphaMul, betaMul
}

// linkModel returns the hw model a collective over group runs at: the
// base model degraded by the worst per-rank link-fault multipliers among
// the participants. Clean fabrics return the base model unchanged.
func (f *Fabric) linkModel(group []int) *hw.Model {
	if f.linkAlpha == nil {
		return f.HW
	}
	alpha, beta := 1.0, 1.0
	for _, r := range group {
		if f.linkAlpha[r] > alpha {
			alpha = f.linkAlpha[r]
		}
		if f.linkBeta[r] > beta {
			beta = f.linkBeta[r]
		}
	}
	if alpha == 1 && beta == 1 {
		return f.HW
	}
	return f.HW.Degraded(alpha, beta)
}

// SeedClocks presets every device's simulated clock (one entry per
// rank). The elastic driver uses it to carry survivors' clocks across
// fabric re-formation so recovery time accrues on a continuous
// timeline. Call before Run.
func (f *Fabric) SeedClocks(clocks []float64) {
	if len(clocks) != f.P {
		panic("comm: SeedClocks needs exactly one clock per device")
	}
	for i, d := range f.devices {
		d.clock = clocks[i]
	}
}

// Run creates a fabric of p devices, executes fn on each, and returns the
// fabric for metric inspection.
func Run(p int, model *hw.Model, fn func(d *Device)) *Fabric {
	f := NewFabric(p, model)
	f.Run(fn)
	return f
}

// Volume returns the total bytes moved across device boundaries by
// collectives of the given kind since fabric creation (or the last
// ResetVolumes), excluding side-channel traffic (see SideVolume).
func (f *Fabric) Volume(kind hw.CollectiveKind) int64 { return f.volumes[kind].Load() }

// SideVolume returns the bytes moved by collectives of the given kind
// while the issuing devices had their side-channel flag set
// (Device.SetSideChannel) — e.g. the byte-packed ReLU masks of
// dist.RedistributeMask.
func (f *Fabric) SideVolume(kind hw.CollectiveKind) int64 { return f.sideVolumes[kind].Load() }

// TotalVolume returns the total bytes moved across device boundaries by
// all collectives, including side-channel traffic.
func (f *Fabric) TotalVolume() int64 {
	var s int64
	for i := range f.volumes {
		s += f.volumes[i].Load() + f.sideVolumes[i].Load()
	}
	return s
}

// TotalSideVolume returns the total side-channel bytes across all kinds.
func (f *Fabric) TotalSideVolume() int64 {
	var s int64
	for i := range f.sideVolumes {
		s += f.sideVolumes[i].Load()
	}
	return s
}

// Calls returns the number of collectives of the given kind executed.
func (f *Fabric) Calls(kind hw.CollectiveKind) int64 { return f.calls[kind].Load() }

// RankSent returns the bytes rank injected into variable-volume
// collectives (TryAllToAllV: the rank's cross-pair part bytes;
// TryAllGatherV: the rank's chunk replicated to each peer). The census
// is logical — defined by what each rank contributed, not by how a
// topology routed the bytes — so it is identical under flat and
// hierarchical pricing, and on a flat fabric the ranks sum to the
// V-collectives' metered volume (primary plus side channel).
func (f *Fabric) RankSent(rank int) int64 { return f.rankSent[rank].Load() }

// TierVolume returns the bytes of the given kind that crossed links of
// the given tier (topo.TierIntra or topo.TierInter), excluding
// side-channel traffic. Summed over tiers it equals Volume(kind); on a
// fabric without a topology everything lands on tier 0.
func (f *Fabric) TierVolume(kind hw.CollectiveKind, tier int) int64 {
	return f.tierVol[tier][kind].Load()
}

// SideTierVolume is TierVolume for side-channel traffic.
func (f *Fabric) SideTierVolume(kind hw.CollectiveKind, tier int) int64 {
	return f.tierSide[tier][kind].Load()
}

// ResetVolumes zeroes the volume and call counters (e.g. after warmup).
// Must not race with in-flight collectives.
func (f *Fabric) ResetVolumes() {
	for i := range f.volumes {
		f.volumes[i].Store(0)
		f.sideVolumes[i].Store(0)
		f.calls[i].Store(0)
		for t := 0; t < topo.NumTiers; t++ {
			f.tierVol[t][i].Store(0)
			f.tierSide[t][i].Store(0)
		}
	}
	for i := range f.rankSent {
		f.rankSent[i].Store(0)
	}
}

// ResetStats zeroes every fabric-level counter (volumes and calls, like
// ResetVolumes) AND every device's clock/commTime/computeTime
// accumulator, so warm-up epochs can be excluded from both volume and
// time accounting. It must only be called when no Run is in flight: the
// per-device stats are written without synchronization by the device
// goroutines, so resetting mid-run is a data race (the same restriction
// applies to reading MaxClock, Device.Clock, Device.CommTime, and
// Device.ComputeTime).
func (f *Fabric) ResetStats() {
	f.ResetVolumes()
	for _, d := range f.devices {
		d.clock, d.commTime, d.computeTime = 0, 0, 0
	}
}

// SetTracer attaches an event tracer and opens one trace session for
// this fabric, labelled label. Call before Run; passing a nil tracer is
// a no-op. Each fabric should get exactly one session, so attach a fresh
// fabric for every traced run.
func (f *Fabric) SetTracer(t *trace.Tracer, label string) {
	if t == nil {
		return
	}
	t.StartSession(label, f.P)
	f.tracer = t
}

// Tracer returns the attached tracer (nil when tracing is disabled).
func (f *Fabric) Tracer() *trace.Tracer { return f.tracer }

// MaxClock returns the maximum simulated clock across devices. Like all
// stat readers it is only safe when no Run is in flight.
func (f *Fabric) MaxClock() float64 {
	m := 0.0
	for _, d := range f.devices {
		if d.clock > m {
			m = d.clock
		}
	}
	return m
}

func (f *Fabric) addVolume(kind hw.CollectiveKind, vol Volume, side bool) {
	if side {
		f.sideVolumes[kind].Add(vol.Bytes)
		f.tierSide[topo.TierIntra][kind].Add(vol.Bytes - vol.Tier1)
		f.tierSide[topo.TierInter][kind].Add(vol.Tier1)
	} else {
		f.volumes[kind].Add(vol.Bytes)
		f.tierVol[topo.TierIntra][kind].Add(vol.Bytes - vol.Tier1)
		f.tierVol[topo.TierInter][kind].Add(vol.Tier1)
	}
	f.calls[kind].Add(1)
}

// groupComm is a reusable two-phase rendezvous for one device group.
type groupComm struct {
	key      string // the group's rank list, "0,1,2", as trace events name it
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	arrived  int
	readers  int
	gen      uint64
	slots    []any
	clocks   []float64
	newClock float64
	vol      Volume // round's metered volume, shared with every member
	aux      any    // round-scoped value passed from finalize to extract
	err      error  // round's failure, delivered to every member

	// red is the group's reduction scratch (see reduceBuf).
	red []float32
}

// groupFor returns the rendezvous of a rank list, creating it on first
// use. The lookup builds the key on the stack and allocates nothing once
// the group exists.
func (f *Fabric) groupFor(ranks []int) *groupComm {
	var buf [128]byte
	b := buf[:0]
	for i, r := range ranks {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(r), 10)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	g, ok := f.groups[string(b)]
	if !ok {
		g = &groupComm{key: string(b), n: len(ranks), slots: make([]any, len(ranks)), clocks: make([]float64, len(ranks))}
		g.cond = sync.NewCond(&g.mu)
		f.groups[g.key] = g
	}
	return g
}

// reduceBuf returns the group's reduction scratch, zeroed, at length n:
// the buffer a finalizer sums every deposit into and each member copies
// its result out of. Only a finalizer may call it. It runs under the
// group lock after the previous round has drained, so no member can still
// be reading the buffer it reuses; the members of this round read it
// until their own drain, before which no finalizer runs again.
func (g *groupComm) reduceBuf(n int) []float32 {
	if cap(g.red) < n {
		g.red = make([]float32, n)
	} else {
		g.red = g.red[:n]
		clear(g.red)
	}
	return g.red
}

// exchange runs one rendezvous round: every group member deposits a
// contribution; the last arriver runs finalize (which computes the new
// synchronized clock, does volume accounting, and reports the round's
// metered volume, or fails the round with an error); every member then
// runs extract over the complete slot array before the slots are
// recycled. finalize runs under the group lock; extract runs outside
// it, on all members side by side: slots and aux are frozen from
// finalize until the last reader leaves, and the next round's entrants
// wait on readers > 0, so an extract may read them freely but must
// write only memory its own caller owns. Neither callback may call
// back into the fabric, and extract must not panic — its peers would
// wait forever on a reader that never leaves. The return values are
// the synchronized clock, the round's metered volume, the round's
// sequence number within this group (for trace attribution), and the
// round's error, identical on every member. extract is skipped on a
// failed round.
//
// dead, when non-nil, is consulted at entry and on every wakeup while
// waiting for peers: a non-nil result abandons the round (withdrawing
// any deposit, so the group stays reusable) and is returned with the
// caller's clock unchanged. Fabric.markDead broadcasts every group's
// cond, so a member blocked on a crashed peer re-checks promptly. A
// round that has already finalized is always drained normally — death
// only aborts rendezvous that can no longer complete.
func (g *groupComm) exchange(idx int, clock float64, in any,
	finalize func(slots []any, clocks []float64) (float64, any, Volume, error),
	extract func(slots []any, aux any),
	dead func() error) (float64, Volume, uint64, error) {

	g.mu.Lock()
	defer g.mu.Unlock()
	for g.readers > 0 { // previous round still draining
		g.cond.Wait()
	}
	if dead != nil {
		if err := dead(); err != nil {
			return clock, Volume{}, g.gen, err
		}
	}
	g.slots[idx] = in
	g.clocks[idx] = clock
	g.arrived++
	if g.arrived == g.n {
		g.newClock, g.aux, g.vol, g.err = finalize(g.slots, g.clocks)
		g.arrived = 0
		g.readers = g.n
		g.gen++
		g.cond.Broadcast()
	} else {
		gen := g.gen
		for g.gen == gen {
			g.cond.Wait()
			if g.gen == gen && dead != nil {
				if err := dead(); err != nil {
					g.slots[idx] = nil
					g.arrived--
					return clock, Volume{}, g.gen, err
				}
			}
		}
	}
	// Capture the round's results before giving up our reader slot: the
	// last reader resets aux/err for the next round, and once we start
	// waiting for the drain a fast next round could overwrite
	// newClock/vol/gen.
	clockOut, volOut, genOut, errOut := g.newClock, g.vol, g.gen, g.err
	if extract != nil && errOut == nil {
		aux := g.aux
		g.mu.Unlock()
		extract(g.slots, aux)
		g.mu.Lock()
	}
	g.readers--
	if g.readers == 0 {
		for i := range g.slots {
			g.slots[i] = nil
		}
		g.aux, g.err = nil, nil
		g.cond.Broadcast()
	} else {
		// Wait for the round to drain completely before returning, so no
		// participant can mutate a deposited buffer while another is
		// still copying from it.
		for g.readers > 0 {
			g.cond.Wait()
		}
	}
	return clockOut, volOut, genOut, errOut
}

// Device is one simulated GPU: a rank, private simulated clock, and
// time/volume accounting.
type Device struct {
	Rank int
	F    *Fabric

	clock       float64
	commTime    float64
	computeTime float64
	side        bool // route collective volume to the side-channel meters

	slow       float64 // straggler multiplier for kernel charges; <= 1 off
	faultEpoch int     // driver-maintained global epoch tag (SetFaultEpoch)
	track      int     // trace track (hw.Resource index); 0 on base devices

	// stages is the base device's staging memory, one Stage per track;
	// its lanes share the pointer and each uses its own track's entry.
	stages *[hw.NumResources]Stage
}

// Stage is host memory a device lends to the code staging its collective
// contributions — packed parts, and the parts slice pointing into them —
// so that a steady-state caller allocates neither. Each track has its
// own Stage, and a lane borrows its base device's for its track, so
// lanes forked afresh every epoch keep the memory. Only the goroutine
// driving the device or lane may use it. What it stages stays valid until
// that goroutine next asks for the same buffer, which is safe across a
// collective: no member returns from a round until every member has
// finished reading it.
type Stage struct {
	buf   []float32
	parts [][]float32
}

// Stage returns the staging memory of this device's track.
func (d *Device) Stage() *Stage { return &d.stages[d.track] }

// Floats returns a length-n buffer with unspecified contents.
func (s *Stage) Floats(n int) []float32 {
	if cap(s.buf) < n {
		s.buf = make([]float32, n)
	}
	return s.buf[:n]
}

// Parts returns a length-n parts slice with every entry nil.
func (s *Stage) Parts(n int) [][]float32 {
	if cap(s.parts) < n {
		s.parts = make([][]float32, n)
	}
	p := s.parts[:n]
	clear(p)
	return p
}

// Lane returns a view of this device bound to one resource timeline
// (track follows hw.Resource numbering: 1 = intra-node link, 2 =
// inter-node link). The overlap executor (core.Options.Overlap) gives
// each resource its own lane so independent ops advance independent
// clocks; charges and collectives on a lane work exactly as on the base
// device but emit trace events on the lane's track. A lane starts at the
// base device's current clock with zeroed time accumulators — merge it
// back with MergeLane at a synchronization point. Only one goroutine may
// drive a given lane, and only one lane per rank may enter any given
// collective round.
func (d *Device) Lane(track int) *Device {
	return &Device{
		Rank: d.Rank, F: d.F,
		clock:      d.clock,
		side:       d.side,
		slow:       d.slow,
		faultEpoch: d.faultEpoch,
		track:      track,
		stages:     d.stages,
	}
}

// MergeLane folds a lane back into this device: the clock advances to
// the lane's (max), and the lane's accumulated comm/compute time — which
// started from zero at Lane() — is added on.
func (d *Device) MergeLane(l *Device) {
	if l.clock > d.clock {
		d.clock = l.clock
	}
	d.commTime += l.commTime
	d.computeTime += l.computeTime
}

// AdvanceClock moves the device's clock forward to t if t is later,
// modelling a wait on a dependency that finished at t on another lane.
// The waiting time is idle, so no accumulator is charged.
func (d *Device) AdvanceClock(t float64) {
	if t > d.clock {
		d.clock = t
	}
}

// Track returns the trace track this device (or lane) emits on.
func (d *Device) Track() int { return d.track }

// SetComputeSlowdown makes this device a straggler: subsequent kernel
// charges take factor× their modelled time. factor <= 1 clears it. Fault
// injectors set it before Run; mid-run only the owning device goroutine
// may call it.
func (d *Device) SetComputeSlowdown(factor float64) {
	if factor <= 1 {
		factor = 0
	}
	d.slow = factor
}

// SetFaultEpoch tags this device with the training driver's global epoch
// number so epoch-addressed fault events (crashes, flips, drops) fire at
// the right point even after checkpoint rollback re-runs earlier epochs
// on a new fabric. Only the owning device goroutine may call it mid-run.
func (d *Device) SetFaultEpoch(epoch int) { d.faultEpoch = epoch }

// FaultEpoch returns the tag set by SetFaultEpoch.
func (d *Device) FaultEpoch() int { return d.faultEpoch }

// SetSideChannel routes this device's subsequent collective volume into
// the fabric's side-channel meters (Fabric.SideVolume) instead of the
// primary ones. Used for mechanical traffic — e.g. the byte-packed ReLU
// masks of dist.RedistributeMask — that the paper's cost model does not
// count, so the primary meters stay byte-comparable to costmodel
// predictions. A round is metered by the device that happens to finalize
// it, so SPMD callers must toggle the flag on every participant around
// the same collectives.
func (d *Device) SetSideChannel(on bool) { d.side = on }

// Clock returns the device's simulated time in seconds.
func (d *Device) Clock() float64 { return d.clock }

// CommTime returns the accumulated simulated communication time
// (including synchronization skew, as NCCL timing would observe).
func (d *Device) CommTime() float64 { return d.commTime }

// ComputeTime returns the accumulated simulated kernel time.
func (d *Device) ComputeTime() float64 { return d.computeTime }

// P returns the fabric size.
func (d *Device) P() int { return d.F.P }

// World returns the all-ranks group [0, 1, ..., P-1]: the fabric's one
// copy, shared by every device, so callers must not write to it. Its
// capacity equals its length, so an append copies rather than writing
// into the shared array.
func (d *Device) World() []int { return d.F.world }

// ChargeGemm advances the clock by the modelled time of an m x k x n GEMM.
func (d *Device) ChargeGemm(m, k, n int) {
	t := d.F.HW.GemmTime(m, k, n)
	d.chargeKernel("gemm", t, 0, int64(m)*int64(k)*int64(n))
}

// ChargeSpMM advances the clock by the modelled time of an SpMM with the
// given stored-entry count and dense width.
func (d *Device) ChargeSpMM(nnz int64, f int) {
	t := d.F.HW.SpMMTime(nnz, f)
	d.chargeKernel("spmm", t, 0, nnz*int64(f))
}

// ChargeMem advances the clock by the modelled time of a memory-bound
// kernel touching the given bytes.
func (d *Device) ChargeMem(bytes int64) {
	t := d.F.HW.MemTime(bytes)
	d.chargeKernel("mem", t, bytes, 0)
}

// chargeKernel advances the clock and compute-time accumulator and, when
// tracing is enabled, records the kernel interval.
func (d *Device) chargeKernel(op string, t float64, bytes, flops int64) {
	if d.slow > 1 {
		t *= d.slow
	}
	start := d.clock
	d.clock += t
	d.computeTime += t
	if tr := d.F.tracer; tr != nil {
		tr.Emit(d.Rank, trace.Event{
			Class: trace.ClassKernel, Op: op,
			Bytes: bytes, Flops: flops,
			Start: start, End: d.clock, Track: d.track,
		})
	}
}

// TraceSetEpoch tags subsequent trace events from this device with the
// epoch number. No-op (and allocation-free) when tracing is disabled,
// like every Trace* method below.
func (d *Device) TraceSetEpoch(epoch int) {
	if tr := d.F.tracer; tr != nil {
		tr.SetEpochAt(d.Rank, d.track, epoch)
	}
}

// TraceSetLayer tags subsequent trace events with the layer number
// (0 = outside any layer).
func (d *Device) TraceSetLayer(layer int) {
	if tr := d.F.tracer; tr != nil {
		tr.SetLayerAt(d.Rank, d.track, layer)
	}
}

// TraceSetStep tags subsequent trace events with a plan-schedule step
// ID (0 = outside any scheduled op).
func (d *Device) TraceSetStep(step int) {
	if tr := d.F.tracer; tr != nil {
		tr.SetStepAt(d.Rank, d.track, step)
	}
}

// TraceSetDir tags subsequent trace events with the pass direction
// ("fwd", "bwd", or "").
func (d *Device) TraceSetDir(dir string) {
	if tr := d.F.tracer; tr != nil {
		tr.SetDirAt(d.Rank, d.track, dir)
	}
}

// TraceSetConfig tags subsequent trace events with the run's ordering
// configuration string.
func (d *Device) TraceSetConfig(cfg string) {
	if tr := d.F.tracer; tr != nil {
		tr.SetConfigAt(d.Rank, d.track, cfg)
	}
}

// TraceBeginPhase opens a named phase interval at the current simulated
// clock. Phases nest; close with TraceEndPhase.
func (d *Device) TraceBeginPhase(name string) {
	if tr := d.F.tracer; tr != nil {
		tr.BeginPhaseAt(d.Rank, d.track, name, d.clock)
	}
}

// TraceEndPhase closes the innermost open phase at the current simulated
// clock.
func (d *Device) TraceEndPhase() {
	if tr := d.F.tracer; tr != nil {
		tr.EndPhaseAt(d.Rank, d.track, d.clock)
	}
}

func validateGroup(ranks []int) error {
	if len(ranks) == 0 {
		return fmt.Errorf("empty group: %w", ErrBadGroup)
	}
	if !sort.IntsAreSorted(ranks) {
		return fmt.Errorf("group must be sorted %v: %w", ranks, ErrBadGroup)
	}
	for i := 1; i < len(ranks); i++ {
		if ranks[i] == ranks[i-1] {
			return fmt.Errorf("duplicate rank in group %v: %w", ranks, ErrBadGroup)
		}
	}
	return nil
}

// groupPos validates group and locates this device in it. Failures are
// structural misuse — necessarily identical on every correctly-written
// SPMD rank — so they are rejected before any rendezvous and surface
// immediately even from a single misbehaving caller.
func (d *Device) groupPos(op string, group []int) (int, error) {
	if err := validateGroup(group); err != nil {
		return 0, &CollectiveError{Op: op, Rank: d.Rank, Err: err}
	}
	idx := indexOf(group, d.Rank)
	if idx < 0 {
		return 0, &CollectiveError{Op: op, Rank: d.Rank,
			Err: fmt.Errorf("rank %d not in group %v: %w", d.Rank, group, ErrBadGroup)}
	}
	return idx, nil
}

// collective runs the common rendezvous pattern, charges comm time, and
// records a trace event carrying the round's metered volume. The caller
// must already have validated its group membership (groupPos). finalize
// additionally returns that volume (it still performs its own addVolume
// accounting, so zero-volume collectives like Barrier can opt out of the
// call counters) or fails the round. Deposited collErr contributions are
// scanned before finalize runs, so per-rank data errors reach every
// participant. On a failed round every participant's clock still
// advances to the synchronized value — the rendezvous happened — but no
// trace event is emitted and the identical cause is returned to all
// ranks, wrapped per-rank in a CollectiveError.
//
// Fault handling (see RESILIENCE.md): a dead peer abandons the
// rendezvous, charges the fabric's collective deadline, and returns a
// *FaultError wrapping ErrPeerDead. A transient or corrupt round is
// retried under the RetryPolicy with exponential backoff charged to the
// simulated clock; exhausted budgets surface as a *FaultError too. Every
// decision in this loop depends only on the deterministic round error,
// identical on all participants, so survivors stay in SPMD lockstep —
// all of them retry, or all of them abort.
func (d *Device) collective(op string, group []int, in any,
	finalize func(slots []any, clocks []float64) (float64, any, Volume, error),
	extract func(slots []any, aux any)) error {
	return d.collectiveIn(d.F.groupFor(group), op, group, in, finalize, extract)
}

// collectiveIn is collective on the already resolved rendezvous of group,
// for callers whose finalizer needs it (reduceBuf).
func (d *Device) collectiveIn(g *groupComm, op string, group []int, in any,
	finalize func(slots []any, clocks []float64) (float64, any, Volume, error),
	extract func(slots []any, aux any)) error {

	f := d.F
	if h := f.hook; h != nil {
		h.BeforeCollective(d, op) // may panic Killed: a scheduled crash
	}
	idx := indexOf(group, d.Rank)
	key := g.key
	deadCheck := func() error { return f.deadIn(group) }
	wrapped := func(slots []any, clocks []float64) (float64, any, Volume, error) {
		if err := slotErr(slots); err != nil {
			return maxClock(clocks), nil, Volume{}, err
		}
		if h := f.hook; h != nil {
			var sums []uint32
			var saved []any
			if f.crc {
				sums = crcPayloads(slots)
				saved = clonePayloads(slots)
			}
			if err := h.OnRound(d, op, group, g.gen, slots); err != nil {
				return maxClock(clocks), nil, Volume{}, err
			}
			if sums != nil {
				if i := crcMismatch(slots, sums); i >= 0 {
					// The flip happened on the wire, not in the senders'
					// memories: restore the deposited buffers so a retry
					// retransmits clean data.
					restorePayloads(slots, saved)
					return maxClock(clocks), nil, Volume{}, fmt.Errorf(
						"checksum mismatch on contribution from group position %d: %w",
						i, ErrCorrupt)
				}
			}
		}
		return finalize(slots, clocks)
	}
	attempt := 0
	for {
		before := d.clock
		newClock, vol, seq, err := g.exchange(idx, d.clock, in, wrapped, extract, deadCheck)
		switch {
		case err == nil:
			d.clock = newClock
			d.commTime += newClock - before
			if tr := f.tracer; tr != nil {
				tr.Emit(d.Rank, trace.Event{
					Class: trace.ClassCollective, Op: op,
					Group: key, Seq: seq, GroupSize: len(group),
					Bytes: vol.Bytes, Tier1: vol.Tier1,
					Start: before, End: newClock, Track: d.track,
				})
			}
			return nil
		case errors.Is(err, ErrPeerDead):
			// The survivor waits out the deadline before concluding the
			// peer is gone; the charge lands on comm time like the skew
			// wait of a live collective would.
			end := before + f.collectiveDeadline()
			d.clock = end
			d.commTime += end - before
			d.emitFault("timeout:"+op, key, len(group), before, end)
			return &FaultError{Op: op, Rank: d.Rank, Err: err}
		case errors.Is(err, ErrTransient) || errors.Is(err, ErrCorrupt):
			d.clock = newClock
			d.commTime += newClock - before
			attempt++
			rp := f.retry
			if attempt > rp.Max {
				d.emitFault("giveup:"+op, key, len(group), before, d.clock)
				return &FaultError{Op: op, Rank: d.Rank, Err: err}
			}
			mult := rp.Multiplier
			if mult < 1 {
				mult = 1
			}
			backoff := rp.Backoff
			for i := 1; i < attempt; i++ {
				backoff *= mult
			}
			d.clock += backoff
			d.commTime += backoff
			d.emitFault("retry:"+op, key, len(group), before, d.clock)
		default:
			d.clock = newClock
			d.commTime += newClock - before
			return &CollectiveError{Op: op, Rank: d.Rank, Err: err}
		}
	}
}

// emitFault records a ClassFault interval (retry backoff, peer-dead
// deadline) on this device's timeline.
func (d *Device) emitFault(op, group string, size int, start, end float64) {
	if tr := d.F.tracer; tr != nil {
		tr.Emit(d.Rank, trace.Event{
			Class: trace.ClassFault, Op: op,
			Group: group, GroupSize: size,
			Start: start, End: end, Track: d.track,
		})
	}
}

// crcPayloads checksums each deposited payload; crcMismatch re-verifies
// after the fault hook ran and returns the first corrupted group
// position (or -1). Together they are the CRC side-channel of
// Fabric.EnableCRC.
func crcPayloads(slots []any) []uint32 {
	sums := make([]uint32, len(slots))
	for i, s := range slots {
		sums[i] = crcOf(s)
	}
	return sums
}

func crcMismatch(slots []any, sums []uint32) int {
	for i, s := range slots {
		if crcOf(s) != sums[i] {
			return i
		}
	}
	return -1
}

// clonePayloads/restorePayloads snapshot the deposited buffers around
// the fault hook so CRC-detected wire corruption can be rolled back
// before the retry redeposits the same (sender-owned) buffers.
func clonePayloads(slots []any) []any {
	out := make([]any, len(slots))
	for i, s := range slots {
		switch v := s.(type) {
		case []float32:
			out[i] = append([]float32(nil), v...)
		case [][]float32:
			cp := make([][]float32, len(v))
			for j, part := range v {
				cp[j] = append([]float32(nil), part...)
			}
			out[i] = cp
		}
	}
	return out
}

func restorePayloads(slots, saved []any) {
	for i, s := range slots {
		switch v := s.(type) {
		case []float32:
			if sv, ok := saved[i].([]float32); ok {
				copy(v, sv)
			}
		case [][]float32:
			if sv, ok := saved[i].([][]float32); ok {
				for j := range v {
					copy(v[j], sv[j])
				}
			}
		}
	}
}

func crcOf(s any) uint32 {
	h := crc32.NewIEEE()
	var word [4]byte
	add := func(buf []float32) {
		for _, v := range buf {
			binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
			h.Write(word[:])
		}
	}
	switch v := s.(type) {
	case []float32:
		add(v)
	case [][]float32:
		for _, part := range v {
			add(part)
		}
	}
	return h.Sum32()
}

// TryBroadcast sends root's buffer to every member of group and returns
// each member's private copy (root returns the original buffer). group
// must be sorted; root is a rank, not an index. A nil root buffer is
// reported cooperatively to every member as ErrNilBuffer.
func (d *Device) TryBroadcast(group []int, root int, data []float32) ([]float32, error) {
	const op = "broadcast"
	if _, err := d.groupPos(op, group); err != nil {
		return nil, err
	}
	rootIdx := indexOf(group, root)
	if rootIdx < 0 {
		return nil, &CollectiveError{Op: op, Rank: d.Rank,
			Err: fmt.Errorf("root %d not in group %v: %w", root, group, ErrBadGroup)}
	}
	if len(group) == 1 {
		if data == nil {
			return nil, &CollectiveError{Op: op, Rank: d.Rank,
				Err: fmt.Errorf("root buffer: %w", ErrNilBuffer)}
		}
		return data, nil
	}
	var out []float32
	f := d.F
	var contribution any
	if d.Rank == root {
		if data == nil {
			contribution = collErr{fmt.Errorf("root buffer on rank %d: %w", d.Rank, ErrNilBuffer)}
		} else {
			contribution = data
		}
	}
	err := d.collective(op, group, contribution,
		func(slots []any, clocks []float64) (float64, any, Volume, error) {
			buf := slots[rootIdx].([]float32)
			t, vol := f.MeterFor(group).Broadcast(group, rootIdx, int64(len(buf))*4)
			f.addVolume(hw.OpBroadcast, vol, d.side)
			return maxClock(clocks) + t, nil, vol, nil
		},
		func(slots []any, _ any) {
			if d.Rank == root {
				out = data
				return
			}
			src := slots[rootIdx].([]float32)
			out = append(make([]float32, 0, len(src)), src...)
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Broadcast is TryBroadcast panicking on failure, for SPMD code where a
// collective error is unrecoverable.
func (d *Device) Broadcast(group []int, root int, data []float32) []float32 {
	out, err := d.TryBroadcast(group, root, data)
	if err != nil {
		panic(err)
	}
	return out
}

// TryAllGather exchanges every member's buffer; the result is indexed by
// group position. Entries for other ranks are private copies. A nil
// local buffer (zero-length non-nil is valid) is reported cooperatively
// to every member as ErrNilBuffer.
func (d *Device) TryAllGather(group []int, local []float32) ([][]float32, error) {
	const op = "allgather"
	myIdx, err := d.groupPos(op, group)
	if err != nil {
		return nil, err
	}
	if len(group) == 1 {
		if local == nil {
			return nil, &CollectiveError{Op: op, Rank: d.Rank,
				Err: fmt.Errorf("local buffer: %w", ErrNilBuffer)}
		}
		return [][]float32{local}, nil
	}
	if nodes, ok := d.F.stagedHier(hw.OpAllGather, group); ok {
		return d.hierAllGather(group, local, nodes)
	}
	out := make([][]float32, len(group))
	var contribution any = local
	if local == nil {
		contribution = collErr{fmt.Errorf("local buffer on rank %d: %w", d.Rank, ErrNilBuffer)}
	}
	cerr := d.collective(op, group, contribution,
		d.allGatherFinalize(group),
		func(slots []any, _ any) {
			for i, s := range slots {
				src := s.([]float32)
				if i == myIdx {
					out[i] = local
					continue
				}
				out[i] = append(make([]float32, 0, len(src)), src...)
			}
		})
	if cerr != nil {
		return nil, cerr
	}
	return out, nil
}

// allGatherFinalize is the shared rendezvous finalizer of TryAllGather
// and TryAllGatherFlat: price + meter the round from the deposited
// chunk lengths.
func (d *Device) allGatherFinalize(group []int) func(slots []any, clocks []float64) (float64, any, Volume, error) {
	f := d.F
	return func(slots []any, clocks []float64) (float64, any, Volume, error) {
		chunks := make([]int64, len(slots))
		for i, s := range slots {
			chunks[i] = int64(len(s.([]float32))) * 4
		}
		t, vol := f.MeterFor(group).AllGather(group, chunks)
		f.addVolume(hw.OpAllGather, vol, d.side)
		return maxClock(clocks) + t, nil, vol, nil
	}
}

// TryAllGatherFlat gathers every member's buffer concatenated in group
// order into dst (grown as needed, so steady-state callers re-use one
// buffer and the gather allocates nothing), returning dst[:total].
// This is the copy-eliminating fast path of the engine's column-group
// feature gather: the per-member private copies TryAllGather hands out
// are skipped entirely — each member's bytes are written once, at
// their final offset. Time, metering and error behavior are identical
// to TryAllGather.
func (d *Device) TryAllGatherFlat(group []int, local, dst []float32) ([]float32, error) {
	const op = "allgather"
	if _, err := d.groupPos(op, group); err != nil {
		return nil, err
	}
	if len(group) == 1 {
		if local == nil {
			return nil, &CollectiveError{Op: op, Rank: d.Rank,
				Err: fmt.Errorf("local buffer: %w", ErrNilBuffer)}
		}
		return append(dst[:0], local...), nil
	}
	if nodes, ok := d.F.stagedHier(hw.OpAllGather, group); ok {
		parts, err := d.hierAllGather(group, local, nodes)
		if err != nil {
			return nil, err
		}
		dst = dst[:0]
		for _, part := range parts {
			dst = append(dst, part...)
		}
		return dst, nil
	}
	var contribution any = local
	if local == nil {
		contribution = collErr{fmt.Errorf("local buffer on rank %d: %w", d.Rank, ErrNilBuffer)}
	}
	cerr := d.collective(op, group, contribution,
		d.allGatherFinalize(group),
		func(slots []any, _ any) {
			total := 0
			for _, s := range slots {
				total += len(s.([]float32))
			}
			if cap(dst) < total {
				dst = make([]float32, total)
			}
			dst = dst[:total]
			at := 0
			for _, s := range slots {
				src := s.([]float32)
				copy(dst[at:], src)
				at += len(src)
			}
		})
	if cerr != nil {
		return nil, cerr
	}
	return dst, nil
}

// AllGatherFlat is TryAllGatherFlat panicking on failure.
func (d *Device) AllGatherFlat(group []int, local, dst []float32) []float32 {
	out, err := d.TryAllGatherFlat(group, local, dst)
	if err != nil {
		panic(err)
	}
	return out
}

// AllGather is TryAllGather panicking on failure.
func (d *Device) AllGather(group []int, local []float32) [][]float32 {
	out, err := d.TryAllGather(group, local)
	if err != nil {
		panic(err)
	}
	return out
}

// TryAllReduceSum element-wise sums every member's buffer and returns a
// private copy of the sum on each member. Buffers must share a length:
// ranks disagreeing is reported to every member as ErrLengthMismatch
// (naming both group positions), and a nil local buffer as ErrNilBuffer.
func (d *Device) TryAllReduceSum(group []int, local []float32) ([]float32, error) {
	const op = "allreduce"
	if _, err := d.groupPos(op, group); err != nil {
		return nil, err
	}
	if len(group) == 1 {
		if local == nil {
			return nil, &CollectiveError{Op: op, Rank: d.Rank,
				Err: fmt.Errorf("local buffer: %w", ErrNilBuffer)}
		}
		return append(make([]float32, 0, len(local)), local...), nil
	}
	if nodes, ok := d.F.stagedHier(hw.OpAllReduce, group); ok {
		return d.hierAllReduceSum(group, local, nodes)
	}
	out := make([]float32, len(local))
	if err := d.allReduceSumInto(group, local, out); err != nil {
		return nil, err
	}
	return out, nil
}

// AllReduceSum is TryAllReduceSum panicking on failure.
func (d *Device) AllReduceSum(group []int, local []float32) []float32 {
	out, err := d.TryAllReduceSum(group, local)
	if err != nil {
		panic(err)
	}
	return out
}

// TryAllReduceSumInto is TryAllReduceSum writing the sum into dst
// (len(dst) must equal len(local)) instead of allocating a result —
// the copy-eliminating path for steady-state consumers that hold a
// persistent destination (the engine's gradient buffers). Time,
// metering and error behavior are identical to TryAllReduceSum.
func (d *Device) TryAllReduceSumInto(group []int, local, dst []float32) error {
	const op = "allreduce"
	if _, err := d.groupPos(op, group); err != nil {
		return err
	}
	if local != nil && len(dst) != len(local) {
		return &CollectiveError{Op: op, Rank: d.Rank,
			Err: fmt.Errorf("dst has %d elements for a %d-element reduce: %w",
				len(dst), len(local), ErrLengthMismatch)}
	}
	if len(group) == 1 {
		if local == nil {
			return &CollectiveError{Op: op, Rank: d.Rank,
				Err: fmt.Errorf("local buffer: %w", ErrNilBuffer)}
		}
		copy(dst, local)
		return nil
	}
	if nodes, ok := d.F.stagedHier(hw.OpAllReduce, group); ok {
		sum, err := d.hierAllReduceSum(group, local, nodes)
		if err != nil {
			return err
		}
		copy(dst, sum)
		return nil
	}
	return d.allReduceSumInto(group, local, dst)
}

// AllReduceSumInto is TryAllReduceSumInto panicking on failure.
func (d *Device) AllReduceSumInto(group []int, local, dst []float32) {
	if err := d.TryAllReduceSumInto(group, local, dst); err != nil {
		panic(err)
	}
}

// allReduceSumInto runs the single-rendezvous allreduce round shared by
// TryAllReduceSum and TryAllReduceSumInto. The finalizer sums every
// deposit into the group's reduction scratch and each member copies its
// private result out during extract.
func (d *Device) allReduceSumInto(group []int, local, dst []float32) error {
	const op = "allreduce"
	f := d.F
	g := f.groupFor(group)
	var contribution any = local
	if local == nil {
		contribution = collErr{fmt.Errorf("local buffer on rank %d: %w", d.Rank, ErrNilBuffer)}
	}
	return d.collectiveIn(g, op, group, contribution,
		func(slots []any, clocks []float64) (float64, any, Volume, error) {
			n := len(slots[0].([]float32))
			if err := sumSlots(g, n, slots); err != nil {
				return maxClock(clocks), nil, Volume{}, err
			}
			t, vol := f.MeterFor(group).AllReduce(group, int64(n)*4)
			f.addVolume(hw.OpAllReduce, vol, d.side)
			return maxClock(clocks) + t, nil, vol, nil
		},
		func([]any, any) { copy(dst, g.red) })
}

// sumSlots sums every deposited []float32 element-wise into the group's
// reduction scratch (g.red afterwards), in group-position order, through
// the kernels' packed tensor.Axpy: y += 1·x adds the same bits as y += x.
// Every deposit must hold n elements; the first that does not fails the
// round with ErrLengthMismatch.
func sumSlots(g *groupComm, n int, slots []any) error {
	sum := g.reduceBuf(n)
	for i, s := range slots {
		buf := s.([]float32)
		if len(buf) != n {
			return fmt.Errorf("group position 0 has %d elements, position %d has %d: %w",
				n, i, len(buf), ErrLengthMismatch)
		}
		tensor.Axpy(1, buf, sum)
	}
	return nil
}

// TryAllToAll performs personalized exchange: parts[j] is sent to
// group[j]; the returned slice holds the buffer received from each group
// member (own part is passed through without copy). This is the
// redistribution primitive of Fig. 7. A parts slice of the wrong length
// is ErrCountMismatch, rejected before the rendezvous; a nil parts
// slice is ErrNilBuffer, delivered cooperatively to every member.
// Individual nil parts are valid "send nothing" entries.
func (d *Device) TryAllToAll(group []int, parts [][]float32) ([][]float32, error) {
	out := make([][]float32, len(group))
	err := d.TryAllToAllRecv(group, parts, func(i int, part []float32) {
		if group[i] != d.Rank {
			part = append(make([]float32, 0, len(part)), part...)
		}
		out[i] = part
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TryAllToAllRecv is TryAllToAll handing the received parts over in
// place: recv is called once per group position, in ascending order
// (own position included), with the part that member addressed to this
// device, while the round still holds the senders' buffers. part is
// only valid — and must only be read — during the call; a receiver
// that merges it straight into its destination saves the private copy
// TryAllToAll makes. recv runs concurrently with the other members'
// and must not panic or call back into the fabric; it is not called at
// all on a failed round, and called after the last retry of one that
// succeeds.
func (d *Device) TryAllToAllRecv(group []int, parts [][]float32, recv func(i int, part []float32)) error {
	const op = "alltoall"
	myIdx, err := d.groupPos(op, group)
	if err != nil {
		return err
	}
	if parts != nil && len(parts) != len(group) {
		return &CollectiveError{Op: op, Rank: d.Rank,
			Err: fmt.Errorf("%d parts for %d-member group: %w", len(parts), len(group), ErrCountMismatch)}
	}
	if len(group) == 1 {
		if parts == nil {
			return &CollectiveError{Op: op, Rank: d.Rank,
				Err: fmt.Errorf("parts: %w", ErrNilBuffer)}
		}
		recv(0, parts[0])
		return nil
	}
	f := d.F
	var contribution any = parts
	if parts == nil {
		contribution = collErr{fmt.Errorf("parts on rank %d: %w", d.Rank, ErrNilBuffer)}
	}
	return d.collective(op, group, contribution,
		func(slots []any, clocks []float64) (float64, any, Volume, error) {
			var maxInject, total int64
			for i, s := range slots {
				ps := s.([][]float32)
				var inject int64
				for j, pt := range ps {
					if i == j {
						continue
					}
					inject += int64(len(pt)) * 4
				}
				total += inject
				if inject > maxInject {
					maxInject = inject
				}
			}
			t, vol := f.MeterFor(group).AllToAll(group, func(i, j int) int64 {
				return int64(len(slots[i].([][]float32)[j])) * 4
			}, maxInject, total)
			f.addVolume(hw.OpAllToAll, vol, d.side)
			return maxClock(clocks) + t, nil, vol, nil
		},
		func(slots []any, _ any) {
			for i, s := range slots {
				recv(i, s.([][]float32)[myIdx])
			}
		})
}

// AllToAll is TryAllToAll panicking on failure.
func (d *Device) AllToAll(group []int, parts [][]float32) [][]float32 {
	out, err := d.TryAllToAll(group, parts)
	if err != nil {
		panic(err)
	}
	return out
}

// TryReduceScatterSum element-wise sums every member's buffer (all the
// same length) and returns to each member its shard: counts[i] elements
// for group position i, with sum(counts) == len(local). Used by the
// CAGNET 1.5D baseline's partial-result reduction. Malformed counts are
// ErrCountMismatch rejected before the rendezvous; a nil local buffer is
// ErrNilBuffer and cross-rank length disagreement is ErrLengthMismatch,
// both delivered cooperatively to every member.
func (d *Device) TryReduceScatterSum(group []int, local []float32, counts []int) ([]float32, error) {
	const op = "reducescatter"
	myIdx, err := d.groupPos(op, group)
	if err != nil {
		return nil, err
	}
	if counts == nil {
		return nil, &CollectiveError{Op: op, Rank: d.Rank,
			Err: fmt.Errorf("counts: %w", ErrNilBuffer)}
	}
	if len(counts) != len(group) {
		return nil, &CollectiveError{Op: op, Rank: d.Rank,
			Err: fmt.Errorf("%d counts for %d-member group: %w", len(counts), len(group), ErrCountMismatch)}
	}
	total := 0
	for i, c := range counts {
		if c < 0 {
			return nil, &CollectiveError{Op: op, Rank: d.Rank,
				Err: fmt.Errorf("negative count %d at group position %d: %w", c, i, ErrCountMismatch)}
		}
		total += c
	}
	if local != nil && total != len(local) {
		return nil, &CollectiveError{Op: op, Rank: d.Rank,
			Err: fmt.Errorf("counts sum %d != buffer length %d: %w", total, len(local), ErrCountMismatch)}
	}
	if len(group) == 1 {
		if local == nil {
			return nil, &CollectiveError{Op: op, Rank: d.Rank,
				Err: fmt.Errorf("local buffer: %w", ErrNilBuffer)}
		}
		return append(make([]float32, 0, len(local)), local...), nil
	}
	offset := 0
	for i := 0; i < myIdx; i++ {
		offset += counts[i]
	}
	out := make([]float32, counts[myIdx])
	f := d.F
	g := f.groupFor(group)
	var contribution any = local
	if local == nil {
		contribution = collErr{fmt.Errorf("local buffer on rank %d: %w", d.Rank, ErrNilBuffer)}
	}
	cerr := d.collectiveIn(g, op, group, contribution,
		func(slots []any, clocks []float64) (float64, any, Volume, error) {
			sum := g.reduceBuf(total)
			for i, s := range slots {
				buf := s.([]float32)
				if len(buf) != total {
					return maxClock(clocks), nil, Volume{}, fmt.Errorf(
						"counts sum to %d but group position %d has %d elements: %w",
						total, i, len(buf), ErrLengthMismatch)
				}
				tensor.Axpy(1, buf, sum)
			}
			cb := make([]int64, len(counts))
			for i, n := range counts {
				cb[i] = int64(n) * 4
			}
			t, vol := f.MeterFor(group).ReduceScatter(group, cb, int64(total)*4)
			f.addVolume(hw.OpReduceScatter, vol, d.side)
			return maxClock(clocks) + t, nil, vol, nil
		},
		func([]any, any) {
			copy(out, g.red[offset:offset+counts[myIdx]])
		})
	if cerr != nil {
		return nil, cerr
	}
	return out, nil
}

// ReduceScatterSum is TryReduceScatterSum panicking on failure.
func (d *Device) ReduceScatterSum(group []int, local []float32, counts []int) []float32 {
	out, err := d.TryReduceScatterSum(group, local, counts)
	if err != nil {
		panic(err)
	}
	return out
}

// TryBarrier synchronizes the group's clocks (latency-only cost).
func (d *Device) TryBarrier(group []int) error {
	const op = "barrier"
	if _, err := d.groupPos(op, group); err != nil {
		return err
	}
	if len(group) == 1 {
		return nil
	}
	f := d.F
	return d.collective(op, group, nil,
		func(slots []any, clocks []float64) (float64, any, Volume, error) {
			return maxClock(clocks) + f.MeterFor(group).Barrier(group), nil, Volume{}, nil
		}, nil)
}

// Barrier is TryBarrier panicking on failure.
func (d *Device) Barrier(group []int) {
	if err := d.TryBarrier(group); err != nil {
		panic(err)
	}
}

func indexOf(ranks []int, r int) int {
	for i, v := range ranks {
		if v == r {
			return i
		}
	}
	return -1
}

func maxClock(clocks []float64) float64 {
	m := clocks[0]
	for _, c := range clocks[1:] {
		if c > m {
			m = c
		}
	}
	return m
}
