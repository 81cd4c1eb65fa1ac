// Package member is the decentralized control plane of the simulated
// fabric: a seeded, deterministic SWIM-style gossip membership and
// failure-detection layer. Each member periodically probes one peer
// (ping), escalates through k proxies when the probe goes unanswered
// (ping-req), holds unanswered peers in a suspicion window refutable by
// incarnation-numbered alive announcements, and piggybacks
// alive/suspect/dead updates on every probe message so membership state
// disseminates epidemically in O(log P) protocol periods.
//
// The layer follows the same discipline as every data-plane collective
// in this repo: all timers are simulated clocks (protocol periods),
// never wall clocks; every message is materialized through the Msg wire
// format and metered by its encoded length; and the per-round message
// and byte censuses are asserted exactly equal to
// costmodel.GossipRoundBytes, with convergence asserted against the
// closed-form epidemic bound (verify.CheckGossipConvergence). Like
// plan's replay engine (sim.Run, Schedule.PriceOn), the protocol state
// machine is advanced by a discrete-round simulator rather than fabric
// goroutines, which is what makes membership sweeps at P >= 1024
// runnable in CI; the pricing uses the identical alpha-beta model the
// live fabric charges.
//
// core.TrainElastic consumes this layer through Detect: a crash is
// noticed by probes, disseminated epidemically, and the survivors
// independently reach the identical membership view before re-forming
// the world, with the detection latency charged to their simulated
// clocks. See RESILIENCE.md ("Membership & detection").
package member

import (
	"fmt"
	"math"
)

// State is a member's liveness in some member's local view.
type State uint8

const (
	// Alive is the healthy state; refutations re-assert it with a
	// higher incarnation.
	Alive State = iota
	// Suspect is an unanswered probe awaiting refutation or timeout.
	Suspect
	// Dead is terminal: no incarnation refutes it.
	Dead
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return "unknown"
}

// Config fixes one protocol deployment. The zero value is usable:
// WithDefaults fills every field.
type Config struct {
	// Period is the protocol period T in simulated seconds (default
	// 10ms): one probe per member per period, suspicion timers count in
	// periods. It must comfortably exceed the alpha-beta round trip of
	// the largest probe message, which at the default piggyback limit
	// is microseconds on every modelled link.
	Period float64
	// K is the number of ping-req proxies recruited when a direct
	// probe goes unanswered (default 3).
	K int
	// SuspicionPeriods is how many periods a suspect survives without
	// refutation before it is declared dead (default 3).
	SuspicionPeriods int
	// MaxPiggyback bounds the membership updates piggybacked per
	// message (default 8).
	MaxPiggyback int
	// Lambda scales the epidemic retransmit budget: an update rides
	// outgoing messages Lambda*ceil(log2 P) times before it is dropped
	// from the gossip buffer (default 3).
	Lambda int
	// Seed drives every probabilistic choice (probe order shuffles,
	// proxy selection). The same seed reproduces the identical message
	// sequence, census, and event log (default 1).
	Seed int64
}

// WithDefaults returns the config with zero fields replaced by the
// documented defaults.
func (c Config) WithDefaults() Config {
	if c.Period <= 0 {
		c.Period = 0.01
	}
	if c.K <= 0 {
		c.K = 3
	}
	if c.SuspicionPeriods <= 0 {
		c.SuspicionPeriods = 3
	}
	if c.MaxPiggyback <= 0 {
		c.MaxPiggyback = 8
	}
	if c.Lambda <= 0 {
		c.Lambda = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// RetransmitLimit is the per-update gossip budget for a p-member world:
// Lambda*ceil(log2 p) piggybacked sends, minimum 1.
func (c Config) RetransmitLimit(p int) int {
	l := c.Lambda * CeilLog2(p)
	if l < 1 {
		l = 1
	}
	return l
}

// CeilLog2 returns ceil(log2 p) with CeilLog2(1) == 0.
func CeilLog2(p int) int {
	if p <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(p))))
}

// RoundCensus is the metered traffic of one protocol period: message
// counts by type, total piggybacked updates, and the exact wire bytes
// (the sum of every encoded message's length). Bytes must equal
// costmodel.GossipRoundBytes(Msgs, Updates) — verify asserts it.
type RoundCensus struct {
	Round         int   `json:"round"`
	Pings         int   `json:"pings"`
	Acks          int   `json:"acks"`
	PingReqs      int   `json:"ping_reqs"`
	IndirectPings int   `json:"indirect_pings"`
	Msgs          int   `json:"msgs"`
	Updates       int   `json:"updates"`
	Bytes         int64 `json:"bytes"`
}

// EventRec is one entry of the deterministic membership event log: the
// first protocol round at which any member recorded the (rank, state,
// incarnation) transition.
type EventRec struct {
	Round int    `json:"round"`
	Rank  int    `json:"rank"`
	State State  `json:"state"`
	Inc   uint32 `json:"incarnation"`
}

func (e EventRec) String() string {
	return fmt.Sprintf("r%d:%s@rank%d#%d", e.Round, e.State, e.Rank, e.Inc)
}

// Report is the outcome of one detection episode (Detect): how many
// protocol rounds until every survivor's view converged on the dead
// set, the latency those rounds cost on the simulated clock, and the
// full control-plane traffic census.
type Report struct {
	P    int   `json:"p"`
	Dead []int `json:"dead"`
	// Rounds is the number of protocol periods until convergence.
	Rounds int `json:"rounds"`
	// Latency is Rounds*Period: the simulated seconds between the
	// crash and every survivor holding the converged view.
	Latency float64 `json:"latency_sec"`
	// Converged reports whether the run reached the converged view
	// within the hard round cap (it always should; the cap only guards
	// the loop).
	Converged bool `json:"converged"`
	// Msgs / Updates / Bytes are whole-episode totals over PerRound.
	Msgs    int   `json:"msgs"`
	Updates int   `json:"updates"`
	Bytes   int64 `json:"bytes"`
	// PerRound is the per-period census, in order.
	PerRound []RoundCensus `json:"per_round"`
	// Events is the deterministic membership event log.
	Events []EventRec `json:"events"`
}

// EventLog renders the event log as one canonical comma-joined string —
// the byte-identity witness for determinism tests.
func (r *Report) EventLog() string {
	s := ""
	for i, e := range r.Events {
		if i > 0 {
			s += ","
		}
		s += e.String()
	}
	return s
}
