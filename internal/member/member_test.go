package member

import (
	"bytes"
	"os"
	"reflect"
	"strconv"
	"testing"

	"gnnrdm/internal/costmodel"
)

func TestMsgRoundTrip(t *testing.T) {
	msgs := []*Msg{
		{Type: MsgPing, From: 0, To: 7, Seq: 1},
		{Type: MsgAck, From: 7, To: 0, Seq: 1,
			Updates: []Update{{Rank: 3, State: Suspect, Inc: 2}}},
		{Type: MsgPingReq, From: 1, To: 2, Seq: 9, Target: 5,
			Updates: []Update{{Rank: 5, State: Dead, Inc: 0}, {Rank: 1, State: Alive, Inc: 4}}},
	}
	for _, m := range msgs {
		b := m.Encode()
		if len(b) != m.Bytes() {
			t.Fatalf("%v: Encode produced %d bytes, Bytes() says %d", m, len(b), m.Bytes())
		}
		if want := int(costmodel.GossipMsgBytes(len(m.Updates))); len(b) != want {
			t.Fatalf("%v: encoded %d bytes, cost model prices %d", m, len(b), want)
		}
		got, err := DecodeMsg(b)
		if err != nil {
			t.Fatalf("decode(%v): %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip changed %+v into %+v", m, got)
		}
		if !bytes.Equal(got.Encode(), b) {
			t.Fatalf("re-encode of %+v is not byte-identical", m)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	valid := (&Msg{Type: MsgPing, From: 1, To: 2, Seq: 3,
		Updates: []Update{{Rank: 0, State: Alive, Inc: 1}}}).Encode()
	cases := map[string][]byte{
		"empty":       nil,
		"short":       valid[:MsgHeaderBytes-1],
		"truncated":   valid[:len(valid)-1],
		"trailing":    append(append([]byte(nil), valid...), 0),
		"bad-type":    append([]byte{9}, valid[1:]...),
		"bad-state":   func() []byte { b := append([]byte(nil), valid...); b[MsgHeaderBytes+2] = 7; return b }(),
		"count-lies":  func() []byte { b := append([]byte(nil), valid...); b[11] = 2; return b }(),
		"count-zero?": func() []byte { b := append([]byte(nil), valid...); b[11] = 0; return b }(),
	}
	for name, b := range cases {
		if _, err := DecodeMsg(b); err == nil {
			t.Errorf("%s: DecodeMsg accepted malformed input", name)
		}
	}
}

// memberSeeds returns the test seed matrix, extended by MEMBER_SEED
// (the CI membership chaos job's matrix variable).
func memberSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 7}
	if env := os.Getenv("MEMBER_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad MEMBER_SEED %q: %v", env, err)
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// TestDetectConvergesWithinBound is the package-local form of the
// epidemic-bound acceptance criterion, across the full P sweep the
// benchmark reports: every detection episode converges, in at most the
// closed-form bound of rounds, and every round's byte meter equals the
// cost model's census price exactly.
func TestDetectConvergesWithinBound(t *testing.T) {
	for _, p := range []int{8, 64, 256, 1024} {
		for _, seed := range memberSeeds(t) {
			for _, dead := range [][]int{{p / 2}, {1, p / 2, p - 1}} {
				cfg := Config{Seed: seed}.WithDefaults()
				rep := Detect(p, dead, cfg)
				if !rep.Converged {
					t.Fatalf("P=%d seed=%d dead=%v: not converged after %d rounds", p, seed, dead, rep.Rounds)
				}
				bound := costmodel.GossipConvergenceBound(p, cfg.SuspicionPeriods)
				if rep.Rounds > bound {
					t.Fatalf("P=%d seed=%d dead=%v: %d rounds exceeds the epidemic bound %d",
						p, seed, dead, rep.Rounds, bound)
				}
				var msgs, updates int
				var metered int64
				for _, rc := range rep.PerRound {
					if rc.Bytes != costmodel.GossipRoundBytes(rc.Msgs, rc.Updates) {
						t.Fatalf("P=%d seed=%d round %d: metered %d bytes, model prices %d",
							p, seed, rc.Round, rc.Bytes, costmodel.GossipRoundBytes(rc.Msgs, rc.Updates))
					}
					if rc.Msgs != rc.Pings+rc.Acks+rc.PingReqs+rc.IndirectPings {
						t.Fatalf("round %d: message census does not sum: %+v", rc.Round, rc)
					}
					msgs += rc.Msgs
					updates += rc.Updates
					metered += rc.Bytes
				}
				if msgs != rep.Msgs || updates != rep.Updates || metered != rep.Bytes {
					t.Fatalf("totals drift from per-round census: %d/%d/%d vs %d/%d/%d",
						rep.Msgs, rep.Updates, rep.Bytes, msgs, updates, metered)
				}
				if rep.Latency != costmodel.GossipDetectLatency(rep.Rounds, cfg.Period) {
					t.Fatalf("latency %v != %d rounds at period %v", rep.Latency, rep.Rounds, cfg.Period)
				}
			}
		}
	}
}

// TestDetectDeterministic: same (P, dead, config) twice ⇒ identical
// event log, identical per-round censuses, identical bytes.
func TestDetectDeterministic(t *testing.T) {
	for _, seed := range memberSeeds(t) {
		a := Detect(64, []int{5, 40}, Config{Seed: seed})
		b := Detect(64, []int{5, 40}, Config{Seed: seed})
		if a.EventLog() != b.EventLog() {
			t.Fatalf("event logs differ:\n%s\n%s", a.EventLog(), b.EventLog())
		}
		if !reflect.DeepEqual(a.PerRound, b.PerRound) {
			t.Fatalf("per-round censuses differ: %+v vs %+v", a.PerRound, b.PerRound)
		}
		if a.Bytes != b.Bytes || a.Rounds != b.Rounds {
			t.Fatalf("totals differ: %d/%d vs %d/%d", a.Rounds, a.Bytes, b.Rounds, b.Bytes)
		}
	}
}

// TestDetectEventLogShape: a single-crash episode's log is exactly the
// suspect transition then the dead transition of the crashed rank, at
// incarnation 0.
func TestDetectEventLogShape(t *testing.T) {
	rep := Detect(16, []int{9}, Config{Seed: 3})
	if len(rep.Events) != 2 {
		t.Fatalf("event log: %s (want suspect then dead of rank 9)", rep.EventLog())
	}
	if e := rep.Events[0]; e.Rank != 9 || e.State != Suspect || e.Inc != 0 {
		t.Fatalf("first event %s, want suspect@rank9#0", e)
	}
	if e := rep.Events[1]; e.Rank != 9 || e.State != Dead || e.Inc != 0 {
		t.Fatalf("second event %s, want dead@rank9#0", e)
	}
	if rep.Events[1].Round < rep.Events[0].Round+3 {
		t.Fatalf("dead declared at round %d, suspect at %d: suspicion window (3) not honored",
			rep.Events[1].Round, rep.Events[0].Round)
	}
}

// TestRefutation: a falsely suspected live member bumps its incarnation
// and re-asserts itself; the world converges back to all-alive and no
// view ever holds it dead.
func TestRefutation(t *testing.T) {
	const p = 8
	cfg := Config{Seed: 11, SuspicionPeriods: 4}.WithDefaults()
	s := NewSim(p, cfg)
	// Plant a false suspicion of rank 5, at its current incarnation, in
	// observer 0's gossip buffer.
	n := s.nodes[0]
	n.applyUpdate(Update{Rank: 5, State: Suspect, Inc: n.view[5].inc}, s)
	if st := s.nodes[0].view[5].state; st != Suspect {
		t.Fatalf("injected suspicion did not take: rank 5 is %v at observer 0", st)
	}
	bound := costmodel.GossipConvergenceBound(p, cfg.SuspicionPeriods)
	for r := 0; r < bound && !s.Converged(); r++ {
		s.Step()
		for obs := 0; obs < p; obs++ {
			if st := s.nodes[obs].view[5].state; st == Dead {
				t.Fatalf("round %d: observer %d declared the refuting rank 5 dead", s.round, obs)
			}
		}
	}
	if !s.Converged() {
		t.Fatalf("world did not reconverge after refutation within %d rounds", bound)
	}
	inc := s.nodes[5].inc
	if inc == 0 {
		t.Fatal("rank 5 never bumped its incarnation to refute the suspicion")
	}
	if e := s.nodes[0].view[5]; e.state != Alive || e.inc != inc {
		t.Fatalf("observer 0 holds rank 5 %v#%d, want alive#%d", e.state, e.inc, inc)
	}
}

// TestGossipDrains: after convergence the gossip buffers exhaust their
// retransmit budgets and steady-state rounds carry zero updates.
func TestGossipDrains(t *testing.T) {
	cfg := Config{Seed: 2}.WithDefaults()
	s := NewSim(32, cfg)
	s.Kill(17)
	for r := 0; r < MaxRounds(32, cfg) && !s.Converged(); r++ {
		s.Step()
	}
	if !s.Converged() {
		t.Fatal("did not converge")
	}
	// The retransmit budget is Lambda*ceil(log2 P) sends per update;
	// within that many further rounds every buffer must drain.
	for r := 0; r < cfg.RetransmitLimit(32); r++ {
		s.Step()
	}
	rc := s.Step()
	if rc.Updates != 0 {
		t.Fatalf("steady-state round still piggybacks %d updates", rc.Updates)
	}
	if rc.Pings == 0 {
		t.Fatal("steady-state round sends no probes")
	}
}

func TestSimPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("NewSim(1)", func() { NewSim(1, Config{}) })
	mustPanic("Kill out of range", func() { NewSim(4, Config{}).Kill(4) })
}

func TestCeilLog2(t *testing.T) {
	for _, c := range []struct{ p, want int }{
		{1, 0}, {2, 1}, {3, 2}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	} {
		if got := CeilLog2(c.p); got != c.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", c.p, got, c.want)
		}
	}
}
