// Package trace is the observability layer of the simulated fabric: a
// low-overhead, deterministic event recorder with per-device ring
// buffers, a per-op aggregator (internal/trace/aggregate.go), and a
// Chrome trace-event exporter loadable in Perfetto or chrome://tracing
// (internal/trace/chrome.go).
//
// Every kernel charge and collective executed on internal/comm emits one
// Event; the core engine and the baseline trainers add phase annotations
// (epoch, forward/backward, layer, redistribution) so the recorded
// timeline reproduces the paper's measurement methodology — Fig. 12's
// comm/compute split and Table VIII's per-config epoch times fall out of
// the trace rather than out of ad-hoc counters.
//
// Concurrency and determinism contract: a Tracer is attached to a fabric
// before Run and is written by the device goroutines, each strictly to
// its own rank's buffer, so no locking is needed and two identical runs
// produce byte-identical traces (the simulated clocks depend only on
// shapes and nnz counts, never on wall time or scheduling). Sessions
// must be started between runs, and readers (Summarize, WriteChrome)
// must only be invoked when no Run is in flight.
//
// A nil *Tracer is a valid disabled tracer: every emission point checks
// for nil before building an Event, so disabled tracing costs one
// pointer compare and zero allocations.
package trace

// Class partitions events into the three timeline categories.
type Class uint8

const (
	// ClassKernel is a compute-kernel charge (gemm, spmm, mem).
	ClassKernel Class = iota
	// ClassCollective is a fabric collective (allgather, alltoall, ...).
	ClassCollective
	// ClassPhase is a semantic interval annotation (epoch, forward,
	// layer, redistribute, ...). Phases nest and overlap kernel and
	// collective events; they carry no time of their own.
	ClassPhase
	// ClassFault is a fault-handling interval: a transient-failure retry
	// with its backoff ("retry:allreduce"), a collective abandoned to a
	// dead peer ("timeout:allgather"), or a rank crash marker ("crash").
	// Fault events occupy real simulated time on the device timeline (the
	// backoff or deadline charge), keeping clocks reconcilable with the
	// trace even on faulty runs.
	ClassFault
	// ClassRequest is a serving-tier request span (internal/serve): one
	// microbatch from first arrival to completion, emitted on a virtual
	// front-end row (rank P) rather than a device timeline, so request
	// latency reads alongside — but never interleaves with — device
	// work.
	ClassRequest
	// ClassGossip is a membership control-plane span (internal/member):
	// one gossip protocol round of a failure-detection episode, emitted
	// on a virtual row (rank P of the world being probed) like
	// ClassRequest, carrying the round's exact metered control-plane
	// bytes. Gossip rounds occupy simulated detection time between a
	// crash and the re-formation it triggers.
	ClassGossip
)

func (c Class) String() string {
	switch c {
	case ClassKernel:
		return "kernel"
	case ClassCollective:
		return "collective"
	case ClassPhase:
		return "phase"
	case ClassFault:
		return "fault"
	case ClassRequest:
		return "request"
	case ClassGossip:
		return "gossip"
	}
	return "unknown"
}

// Event is one recorded interval on a device's simulated timeline.
// Start and End are simulated seconds (the device clock of internal/hw).
type Event struct {
	Class Class
	// Op names the event: kernel name ("gemm", "spmm", "mem"),
	// collective kind ("allgather", "alltoall", ...), or phase name
	// ("epoch", "forward", "layer", ...).
	Op string
	// Group is the collective's sorted rank list ("0,2,4"), empty for
	// kernels and phases.
	Group string
	// Seq is the collective round number within Group; together
	// (Group, Seq) identifies one collective occurrence across all its
	// participants, which is how the Chrome exporter draws comm-flow
	// arrows between ranks.
	Seq uint64
	// GroupSize is the participant count of a collective.
	GroupSize int
	// Bytes is the metered volume: for collectives the exact bytes moved
	// across device boundaries (matching the fabric's Meters), for
	// mem kernels the bytes touched.
	Bytes int64
	// Tier1 is the share of Bytes that crossed inter-node (tier-1)
	// links; zero on flat topologies and for kernels. Bytes-Tier1
	// crossed intra-node links.
	Tier1 int64
	// Flops is the modelled FMA count of a compute kernel (m·k·n for
	// gemm, nnz·f for spmm).
	Flops int64
	// Start and End are simulated seconds.
	Start, End float64
	// Scope tags captured at emission time.
	Epoch, Layer int
	// Step is the plan-schedule step ID of the op being executed
	// (internal/plan's Op.Step; 0 = outside any scheduled op), so trace
	// events reconcile against the compiled schedule's per-op prices.
	Step int
	// Dir is "fwd", "bwd", or "".
	Dir string
	// Config is the Table IV ordering of the run ("fwd[sd] bwd[ds]").
	Config string
	// Track is the device resource timeline the event occupies (the
	// hw.Resource index under the overlap executor: 0 = compute, 1 =
	// intra-node link, 2 = inter-node link). Sequential execution emits
	// everything on track 0, which reproduces the pre-overlap trace
	// byte-for-byte. Events are ordered within a track, not across
	// tracks: overlapped spans on different tracks of one rank may
	// interleave freely.
	Track int
}

// Dur returns the event's simulated duration in seconds.
func (e *Event) Dur() float64 { return e.End - e.Start }

// DefaultCapacity is the per-device ring capacity used when NewTracer is
// given capacity <= 0. At roughly 100 events per device per epoch this
// holds hundreds of epochs before wrapping.
const DefaultCapacity = 1 << 16

// Tracer records events across one or more sessions (one session per
// fabric run). The zero-value-less constructor keeps the invariant that
// a non-nil Tracer always has a capacity.
type Tracer struct {
	capacity int
	sessions []*Session
}

// NewTracer creates a tracer whose per-device ring buffers hold capacity
// events each (DefaultCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{capacity: capacity}
}

// Session is the trace of one fabric run: P device timelines under one
// label. Labels name the run ("Reddit/p8/rdm-cfg10") and become process
// names in the Chrome export.
type Session struct {
	Label string
	P     int
	// Virtual marks a session whose events were synthesized by the
	// discrete-event engine (internal/sim) rather than recorded from a
	// live fabric run: the timeline is identical in shape — kernels,
	// collectives, phases on per-resource tracks — but no payload ever
	// moved. Consumers (the Chrome exporter, Summarize) treat both the
	// same; the flag exists so tooling can label the provenance.
	Virtual bool
	ranks   []*rankState
}

// rankState is one device's recording state: one trackState per resource
// timeline. Track 0 always exists; extra tracks materialize lazily when
// the overlap executor emits on them. All of a rank's tracks are written
// only by that rank's device goroutine, which also drives its lanes.
type rankState struct {
	tracks []*trackState
}

// trackState is one (rank, track) timeline's ring buffer, scope tags and
// phase stack.
type trackState struct {
	buf   []Event // ring storage; len grows to capacity then wraps
	next  int     // next write slot once len(buf) == capacity
	total uint64  // events ever emitted (total - len(buf) were dropped)
	scope scope
	stack []openPhase
}

type scope struct {
	epoch, layer int
	step         int
	dir          string
	config       string
}

type openPhase struct {
	name  string
	start float64
}

// StartSession begins a new session for a p-device run. It must not be
// called while a fabric Run is emitting; internal/comm calls it from
// Fabric.SetTracer, which establishes one session per fabric.
func (t *Tracer) StartSession(label string, p int) *Session {
	s := &Session{Label: label, P: p, ranks: make([]*rankState, p)}
	for r := range s.ranks {
		s.ranks[r] = &rankState{tracks: []*trackState{{}}}
	}
	t.sessions = append(t.sessions, s)
	return s
}

// StartVirtualSession is StartSession for a synthesized (simulated)
// timeline: the returned session is marked Virtual. The discrete-event
// engine opens one per sim.Run, keeping virtual and live sessions
// distinguishable in mixed traces.
func (t *Tracer) StartVirtualSession(label string, p int) *Session {
	s := t.StartSession(label, p)
	s.Virtual = true
	return s
}

// Sessions returns all recorded sessions in start order.
func (t *Tracer) Sessions() []*Session { return t.sessions }

func (t *Tracer) cur() *Session {
	if len(t.sessions) == 0 {
		// Emission before any StartSession: synthesize an anonymous
		// session sized to fit the emitting rank lazily. This only
		// happens when a caller bypasses Fabric.SetTracer.
		return t.StartSession("anonymous", 0)
	}
	return t.sessions[len(t.sessions)-1]
}

func (t *Tracer) rank(r int) *rankState {
	s := t.cur()
	for len(s.ranks) <= r {
		s.ranks = append(s.ranks, &rankState{tracks: []*trackState{{}}})
		if s.P < len(s.ranks) {
			s.P = len(s.ranks)
		}
	}
	return s.ranks[r]
}

// state returns the (rank, track) timeline, creating intermediate tracks
// as needed. A rank's tracks are created and written by its one device
// goroutine, so they need no lock.
func (t *Tracer) state(r, track int) *trackState {
	rs := t.rank(r)
	for len(rs.tracks) <= track {
		rs.tracks = append(rs.tracks, &trackState{})
	}
	return rs.tracks[track]
}

// Emit records one event on rank r's timeline — on the track the event
// carries (ev.Track) — stamping it with that track's current scope tags.
// Callers must hold the "one writer per rank" invariant; internal/comm
// guarantees it by construction.
func (t *Tracer) Emit(r int, ev Event) {
	rs := t.state(r, ev.Track)
	ev.Epoch, ev.Layer, ev.Step = rs.scope.epoch, rs.scope.layer, rs.scope.step
	ev.Dir, ev.Config = rs.scope.dir, rs.scope.config
	rs.total++
	if len(rs.buf) < t.capacity {
		rs.buf = append(rs.buf, ev)
		return
	}
	// Ring full: overwrite the oldest event.
	rs.buf[rs.next] = ev
	rs.next++
	if rs.next == len(rs.buf) {
		rs.next = 0
	}
}

// SetEpochAt tags subsequent events on one track of rank r with the
// epoch number.
func (t *Tracer) SetEpochAt(r, track, epoch int) { t.state(r, track).scope.epoch = epoch }

// SetLayerAt tags subsequent events on one track of rank r with the
// layer number (0 = outside any layer).
func (t *Tracer) SetLayerAt(r, track, layer int) { t.state(r, track).scope.layer = layer }

// SetStepAt tags subsequent events on one track of rank r with a
// plan-schedule step ID (0 = outside any scheduled op).
func (t *Tracer) SetStepAt(r, track, step int) { t.state(r, track).scope.step = step }

// SetDirAt tags subsequent events on one track of rank r with the pass
// direction ("fwd", "bwd", or "").
func (t *Tracer) SetDirAt(r, track int, dir string) { t.state(r, track).scope.dir = dir }

// SetConfigAt tags subsequent events on one track of rank r with the
// run's ordering configuration string.
func (t *Tracer) SetConfigAt(r, track int, cfg string) { t.state(r, track).scope.config = cfg }

// BeginPhaseAt opens a named phase on one track of rank r at the given
// simulated time. Phases nest; each BeginPhaseAt must be matched by
// EndPhaseAt.
func (t *Tracer) BeginPhaseAt(r, track int, name string, start float64) {
	rs := t.state(r, track)
	rs.stack = append(rs.stack, openPhase{name: name, start: start})
}

// EndPhaseAt closes the innermost open phase on one track of rank r,
// emitting a ClassPhase event spanning [start, end]. Unbalanced
// EndPhaseAt calls are ignored.
func (t *Tracer) EndPhaseAt(r, track int, end float64) {
	rs := t.state(r, track)
	if len(rs.stack) == 0 {
		return
	}
	ph := rs.stack[len(rs.stack)-1]
	rs.stack = rs.stack[:len(rs.stack)-1]
	t.Emit(r, Event{Class: ClassPhase, Op: ph.name, Start: ph.start, End: end, Track: track})
}

// chrono returns one track's buffered events in emission order,
// unrotating a wrapped ring.
func (rs *trackState) chrono() []Event {
	if rs.total <= uint64(len(rs.buf)) {
		return rs.buf
	}
	out := make([]Event, 0, len(rs.buf))
	out = append(out, rs.buf[rs.next:]...)
	out = append(out, rs.buf[:rs.next]...)
	return out
}

// Events returns rank r's recorded events. On a single-track rank (every
// sequential run) this is the track's buffer in emission order,
// byte-identical to the pre-overlap tracer. Multi-track ranks get a
// deterministic merge: tracks are interleaved by ascending event Start,
// lower track first on ties, preserving each track's own emission order.
// When a ring wrapped, only its most recent capacity events remain.
func (s *Session) Events(r int) []Event {
	rs := s.ranks[r]
	if len(rs.tracks) == 1 {
		return rs.tracks[0].chrono()
	}
	lists := make([][]Event, len(rs.tracks))
	total := 0
	for i, ts := range rs.tracks {
		lists[i] = ts.chrono()
		total += len(lists[i])
	}
	out := make([]Event, 0, total)
	heads := make([]int, len(lists))
	for len(out) < total {
		best := -1
		for i := range lists {
			if heads[i] >= len(lists[i]) {
				continue
			}
			if best < 0 || lists[i][heads[i]].Start < lists[best][heads[best]].Start {
				best = i
			}
		}
		out = append(out, lists[best][heads[best]])
		heads[best]++
	}
	return out
}

// Tracks returns how many resource timelines rank r materialized
// (1 for every sequential run).
func (s *Session) Tracks(r int) int { return len(s.ranks[r].tracks) }

// TrackEvents returns one (rank, track) timeline's events in emission
// order, or nil when the track was never materialized.
func (s *Session) TrackEvents(r, track int) []Event {
	rs := s.ranks[r]
	if track >= len(rs.tracks) {
		return nil
	}
	return rs.tracks[track].chrono()
}

// Dropped returns how many of rank r's events were overwritten by ring
// wraparound, summed over tracks.
func (s *Session) Dropped(r int) uint64 {
	var d uint64
	for _, ts := range s.ranks[r].tracks {
		d += ts.total - uint64(len(ts.buf))
	}
	return d
}

// Total returns how many events rank r ever emitted, summed over tracks.
func (s *Session) Total(r int) uint64 {
	var n uint64
	for _, ts := range s.ranks[r].tracks {
		n += ts.total
	}
	return n
}
