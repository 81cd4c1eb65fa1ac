package member

import (
	"fmt"
	"math/rand"
	"sort"
)

// node is one member's protocol state.
type node struct {
	rank  int
	alive bool   // ground truth: the process is running
	inc   uint32 // own incarnation number

	view      []viewEntry // per-rank local view
	suspectAt []int       // round the local suspicion timer started; -1 when not suspect

	order []int // shuffled round-robin probe order over the other ranks
	idx   int
	seq   uint32
	rng   *rand.Rand

	gossip []bufEntry // pending updates to piggyback, managed sorted by rank
}

type viewEntry struct {
	state State
	inc   uint32
}

// bufEntry is one update in a member's gossip buffer with its remaining
// epidemic retransmit budget.
type bufEntry struct {
	up    Update
	sends int
}

// Sim advances a P-member SWIM deployment one protocol period at a
// time, entirely on simulated clocks. All per-round work runs in rank
// order with synchronous message delivery, so the same Config
// reproduces the identical message sequence, byte census, and event
// log, bit for bit.
type Sim struct {
	cfg   Config
	p     int
	nodes []*node
	round int

	limit int // per-update retransmit budget

	seen   map[eventKey]bool
	events []EventRec

	// census accumulators for the round in flight
	cur RoundCensus
}

type eventKey struct {
	rank  int
	state State
	inc   uint32
}

// NewSim creates a fully-alive deployment of p members. cfg is
// completed by WithDefaults.
func NewSim(p int, cfg Config) *Sim {
	if p < 2 {
		panic("member: a membership group needs p >= 2")
	}
	cfg = cfg.WithDefaults()
	s := &Sim{cfg: cfg, p: p, limit: cfg.RetransmitLimit(p), seen: make(map[eventKey]bool)}
	for r := 0; r < p; r++ {
		n := &node{
			rank:      r,
			alive:     true,
			view:      make([]viewEntry, p),
			suspectAt: make([]int, p),
			rng:       rand.New(rand.NewSource(cfg.Seed ^ int64(r+1)*0x9E3779B9)),
		}
		for i := range n.suspectAt {
			n.suspectAt[i] = -1
		}
		for t := 0; t < p; t++ {
			if t != r {
				n.order = append(n.order, t)
			}
		}
		n.rng.Shuffle(len(n.order), func(i, j int) { n.order[i], n.order[j] = n.order[j], n.order[i] })
		s.nodes = append(s.nodes, n)
	}
	return s
}

// Kill crashes a member (ground truth): it stops sending, receiving,
// and refuting from the next period on.
func (s *Sim) Kill(rank int) {
	if rank < 0 || rank >= s.p {
		panic(fmt.Sprintf("member: Kill(%d) outside world of %d", rank, s.p))
	}
	s.nodes[rank].alive = false
}

// Converged reports whether every ground-truth-alive member's view
// marks exactly the ground-truth-dead members Dead — and no live
// member Suspect or Dead, so a false suspicion must be refuted before
// the sim converges.
func (s *Sim) Converged() bool {
	for _, n := range s.nodes {
		if !n.alive {
			continue
		}
		for t, e := range n.view {
			if t == n.rank {
				continue
			}
			want := Dead
			if s.nodes[t].alive {
				want = Alive
			}
			if e.state != want {
				return false
			}
		}
	}
	return true
}

// Step advances one protocol period: every live member probes one peer
// (escalating through K proxies on silence), suspicion timers advance,
// and updates piggyback on every message. It returns the period's
// metered traffic census.
func (s *Sim) Step() RoundCensus {
	s.round++
	s.cur = RoundCensus{Round: s.round}
	for _, n := range s.nodes {
		if !n.alive {
			continue
		}
		t := n.nextTarget()
		if t < 0 {
			continue
		}
		n.seq++
		if s.deliver(n, t, MsgPing, 0, &s.cur.Pings) {
			s.deliver(s.nodes[t], n.rank, MsgAck, 0, &s.cur.Acks)
			continue
		}
		// No ack: recruit K proxies to probe t indirectly. In this sim
		// links never lose messages, so an unanswered probe means the
		// target is down and the indirect probes stay unanswered too —
		// but their traffic is real and metered.
		for _, proxy := range n.pickProxies(t, s.cfg.K) {
			if s.deliver(n, proxy, MsgPingReq, uint16(t), &s.cur.PingReqs) {
				pn := s.nodes[proxy]
				pn.seq++
				s.deliver(pn, t, MsgPing, 0, &s.cur.IndirectPings)
			}
		}
		if n.view[t].state == Alive {
			n.applyUpdate(Update{Rank: uint16(t), State: Suspect, Inc: n.view[t].inc}, s)
		}
	}
	// Suspicion timeouts: unrefuted suspects become dead.
	for _, n := range s.nodes {
		if !n.alive {
			continue
		}
		for t := range n.view {
			if n.view[t].state == Suspect && n.suspectAt[t] >= 0 &&
				s.round-n.suspectAt[t] >= s.cfg.SuspicionPeriods {
				n.applyUpdate(Update{Rank: uint16(t), State: Dead, Inc: n.view[t].inc}, s)
			}
		}
	}
	s.cur.Msgs = s.cur.Pings + s.cur.Acks + s.cur.PingReqs + s.cur.IndirectPings
	return s.cur
}

// deliver encodes and meters one message from n to rank `to`, applies
// its piggyback at a live destination, and reports whether the
// destination is up (i.e. whether a ping would be answered).
func (s *Sim) deliver(n *node, to int, typ MsgType, target uint16, count *int) bool {
	m := &Msg{Type: typ, From: uint16(n.rank), To: uint16(to), Seq: n.seq, Target: target,
		Updates: n.selectPiggyback(s.cfg.MaxPiggyback, s.limit)}
	*count++
	s.cur.Updates += len(m.Updates)
	s.cur.Bytes += int64(len(m.Encode()))
	dst := s.nodes[to]
	if !dst.alive {
		return false
	}
	for _, u := range m.Updates {
		dst.applyUpdate(u, s)
	}
	return true
}

// nextTarget picks the next probe target in SWIM's shuffled round-robin
// order, skipping members the local view holds dead. Returns -1 when no
// probe-worthy peer remains.
func (n *node) nextTarget() int {
	for tries := 0; tries < len(n.order); tries++ {
		if n.idx >= len(n.order) {
			n.rng.Shuffle(len(n.order), func(i, j int) { n.order[i], n.order[j] = n.order[j], n.order[i] })
			n.idx = 0
		}
		t := n.order[n.idx]
		n.idx++
		if n.view[t].state != Dead {
			return t
		}
	}
	return -1
}

// pickProxies draws up to k distinct proxies from the peers the local
// view does not hold dead, excluding the target.
func (n *node) pickProxies(target, k int) []int {
	var cands []int
	for t, e := range n.view {
		if t != n.rank && t != target && e.state != Dead {
			cands = append(cands, t)
		}
	}
	n.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if k > len(cands) {
		k = len(cands)
	}
	sort.Ints(cands[:k])
	return cands[:k]
}

// selectPiggyback picks up to max updates with the smallest send counts
// (ties by rank), charges their budgets, and evicts exhausted entries.
func (n *node) selectPiggyback(max, limit int) []Update {
	if len(n.gossip) == 0 {
		return nil
	}
	idxs := make([]int, len(n.gossip))
	for i := range idxs {
		idxs[i] = i
	}
	sort.Slice(idxs, func(a, b int) bool {
		ea, eb := &n.gossip[idxs[a]], &n.gossip[idxs[b]]
		if ea.sends != eb.sends {
			return ea.sends < eb.sends
		}
		return ea.up.Rank < eb.up.Rank
	})
	if len(idxs) > max {
		idxs = idxs[:max]
	}
	out := make([]Update, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, n.gossip[i].up)
		n.gossip[i].sends++
	}
	// Evict exhausted entries, preserving rank order.
	kept := n.gossip[:0]
	for _, e := range n.gossip {
		if e.sends < limit {
			kept = append(kept, e)
		}
	}
	n.gossip = kept
	return out
}

// queue inserts or refreshes the gossip-buffer entry for an update (a
// superseding update restarts the retransmit budget).
func (n *node) queue(u Update) {
	for i := range n.gossip {
		if n.gossip[i].up.Rank == u.Rank {
			n.gossip[i] = bufEntry{up: u}
			return
		}
	}
	n.gossip = append(n.gossip, bufEntry{up: u})
	sort.Slice(n.gossip, func(a, b int) bool { return n.gossip[a].up.Rank < n.gossip[b].up.Rank })
}

// supersedes implements SWIM's update precedence: dead beats everything
// (at any incarnation), suspect beats alive at the same or higher
// incarnation, and otherwise strictly higher incarnations win.
func supersedes(st State, inc uint32, cur viewEntry) bool {
	if cur.state == Dead {
		return false
	}
	switch st {
	case Dead:
		return true
	case Suspect:
		if cur.state == Alive {
			return inc >= cur.inc
		}
		return inc > cur.inc // suspect over suspect
	case Alive:
		return inc > cur.inc
	}
	return false
}

// applyUpdate merges one membership assertion into the node's view,
// starting/clearing suspicion timers, auto-refuting assertions about
// the node itself, and re-queueing accepted updates for further
// dissemination.
func (n *node) applyUpdate(u Update, s *Sim) {
	r := int(u.Rank)
	if r >= len(n.view) {
		return // foreign rank: ignore (decoded messages are validated upstream)
	}
	if r == n.rank {
		// Refutation: someone believes this live member suspect/dead.
		// Re-assert with a higher incarnation; dead is terminal only
		// for actually-dead processes, and those never execute this.
		if u.State != Alive && u.Inc >= n.inc {
			n.inc = u.Inc + 1
			n.view[r] = viewEntry{Alive, n.inc}
			alive := Update{Rank: u.Rank, State: Alive, Inc: n.inc}
			n.queue(alive)
			s.record(alive)
		}
		return
	}
	if !supersedes(u.State, u.Inc, n.view[r]) {
		return
	}
	n.view[r] = viewEntry{u.State, u.Inc}
	if u.State == Suspect {
		if n.suspectAt[r] < 0 {
			n.suspectAt[r] = s.round
		}
	} else {
		n.suspectAt[r] = -1
	}
	n.queue(u)
	s.record(u)
}

// record appends a first-appearance transition to the global event log.
func (s *Sim) record(u Update) {
	k := eventKey{rank: int(u.Rank), state: u.State, inc: u.Inc}
	if s.seen[k] {
		return
	}
	s.seen[k] = true
	s.events = append(s.events, EventRec{Round: s.round, Rank: k.rank, State: k.state, Inc: k.inc})
}

// Events returns the deterministic membership event log so far.
func (s *Sim) Events() []EventRec { return s.events }

// MaxRounds is the hard cap Detect runs under: comfortably above the
// closed-form convergence bound, it only guards the loop against a
// protocol bug.
func MaxRounds(p int, cfg Config) int {
	cfg = cfg.WithDefaults()
	return 8*CeilLog2(p) + cfg.SuspicionPeriods + 16
}

// Detect runs a detection episode: a fully-alive converged P-member
// world loses the `dead` ranks at period 0, and the protocol runs
// until every survivor's view converges on exactly that dead set.
// Deterministic in (p, dead, cfg); the episode's traffic census, event
// log, and round count are returned in the Report.
func Detect(p int, dead []int, cfg Config) *Report {
	cfg = cfg.WithDefaults()
	s := NewSim(p, cfg)
	deadSorted := append([]int(nil), dead...)
	sort.Ints(deadSorted)
	for _, d := range deadSorted {
		s.Kill(d)
	}
	rep := &Report{P: p, Dead: deadSorted}
	hardCap := MaxRounds(p, cfg)
	for s.round < hardCap && !s.Converged() {
		rc := s.Step()
		rep.PerRound = append(rep.PerRound, rc)
		rep.Msgs += rc.Msgs
		rep.Updates += rc.Updates
		rep.Bytes += rc.Bytes
	}
	rep.Rounds = s.round
	rep.Latency = float64(s.round) * cfg.Period
	rep.Converged = s.Converged()
	rep.Events = s.Events()
	return rep
}
