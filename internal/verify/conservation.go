package verify

import (
	"fmt"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
	"gnnrdm/internal/trace"
)

// CheckFabricSession asserts the conservation invariants of one traced
// fabric run:
//
//   - no trace events were dropped (the ring buffers held the run);
//   - every per-resource timeline is monotone: kernels and collectives
//     neither run backwards nor overlap on one device resource track
//     (compute, intra link, inter link). Events on different tracks of
//     the same device may interleave freely — that is the overlap
//     executor working as designed — but a single resource can only do
//     one thing at a time;
//   - bytes sent equal bytes received: every collective round
//     (identified by its (group, seq) pair) was recorded by exactly its
//     GroupSize participants, all agreeing on the op, the metered bytes,
//     and the synchronized end time;
//   - the per-round traced bytes sum exactly to the fabric's volume
//     meters (primary plus side channel) — per link tier too — and the
//     round counts to its call counters;
//   - each device's final clock equals the latest traced event end
//     across its tracks (the lane merge takes the max).
//
// fab may be nil (e.g. baselines that do not expose their fabric), which
// skips the meter and clock cross-checks.
func CheckFabricSession(t testing.TB, fab *comm.Fabric, s *trace.Session) {
	t.Helper()
	if err := checkSession(fab, s); err != nil {
		t.Fatal(err)
	}
}

type roundKey struct {
	group string
	seq   uint64
}

type roundInfo struct {
	op    string
	bytes int64
	tier1 int64
	end   float64
	size  int
	seen  int
}

func checkSession(fab *comm.Fabric, s *trace.Session) error {
	rounds := make(map[roundKey]*roundInfo)
	for r := 0; r < s.P; r++ {
		if d := s.Dropped(r); d > 0 {
			return fmt.Errorf("rank %d dropped %d trace events; raise the tracer capacity", r, d)
		}
		prevEnd := make(map[int]float64)
		lastEnd := 0.0
		seenTimed := false
		for i, ev := range s.Events(r) {
			if ev.Class == trace.ClassPhase || ev.Class == trace.ClassRequest || ev.Class == trace.ClassGossip {
				continue // phase, request, and gossip spans nest and overlap by design
			}
			if ev.End < ev.Start {
				return fmt.Errorf("rank %d event %d (%s): runs backwards [%v, %v]", r, i, ev.Op, ev.Start, ev.End)
			}
			if ev.Start < prevEnd[ev.Track] {
				return fmt.Errorf("rank %d track %d event %d (%s): starts at %v before the track's previous event ended at %v",
					r, ev.Track, i, ev.Op, ev.Start, prevEnd[ev.Track])
			}
			prevEnd[ev.Track] = ev.End
			if ev.End > lastEnd {
				lastEnd = ev.End
			}
			seenTimed = true
			if ev.Class != trace.ClassCollective {
				continue
			}
			k := roundKey{ev.Group, ev.Seq}
			ri := rounds[k]
			if ri == nil {
				rounds[k] = &roundInfo{op: ev.Op, bytes: ev.Bytes, tier1: ev.Tier1, end: ev.End, size: ev.GroupSize, seen: 1}
				continue
			}
			if ri.op != ev.Op || ri.size != ev.GroupSize {
				return fmt.Errorf("round %s#%d: rank %d saw %s/%d, another participant %s/%d",
					k.group, k.seq, r, ev.Op, ev.GroupSize, ri.op, ri.size)
			}
			if ri.bytes != ev.Bytes {
				return fmt.Errorf("round %s#%d (%s): rank %d metered %d bytes, another participant %d — sent != received",
					k.group, k.seq, ev.Op, r, ev.Bytes, ri.bytes)
			}
			if ri.tier1 != ev.Tier1 {
				return fmt.Errorf("round %s#%d (%s): rank %d metered %d tier-1 bytes, another participant %d",
					k.group, k.seq, ev.Op, r, ev.Tier1, ri.tier1)
			}
			if ri.end != ev.End {
				return fmt.Errorf("round %s#%d (%s): rank %d ended at %v, another participant at %v — clocks not synchronized",
					k.group, k.seq, ev.Op, r, ev.End, ri.end)
			}
			ri.seen++
		}
		if fab != nil && seenTimed {
			if c := fab.Device(r).Clock(); c != lastEnd {
				return fmt.Errorf("rank %d clock %v != latest traced event end %v", r, c, lastEnd)
			}
		}
	}
	for k, ri := range rounds {
		if ri.seen != ri.size {
			return fmt.Errorf("round %s#%d (%s): recorded by %d of %d participants — bytes sent != bytes received",
				k.group, k.seq, ri.op, ri.seen, ri.size)
		}
	}
	if fab == nil {
		return nil
	}
	var vol, tier1, calls [hw.NumCollectiveKinds]int64
	for _, ri := range rounds {
		if ri.op == "barrier" {
			continue // latency-only; not metered or counted
		}
		kind, ok := kindForOp(ri.op)
		if !ok {
			return fmt.Errorf("collective op %q has no hw.CollectiveKind", ri.op)
		}
		vol[kind] += ri.bytes
		tier1[kind] += ri.tier1
		calls[kind]++
	}
	m := fab.Meters()
	for i := range vol {
		kind := hw.CollectiveKind(i)
		if metered := m.Volume[i] + m.SideVolume[i]; vol[i] != metered {
			return fmt.Errorf("%s: traced rounds sum to %d bytes, fabric metered %d", kind, vol[i], metered)
		}
		if metered := m.TierVolume[topo.TierInter][i] + m.SideTierVolume[topo.TierInter][i]; tier1[i] != metered {
			return fmt.Errorf("%s: traced rounds sum to %d tier-1 bytes, fabric metered %d", kind, tier1[i], metered)
		}
		intra := vol[i] - tier1[i]
		if metered := m.TierVolume[topo.TierIntra][i] + m.SideTierVolume[topo.TierIntra][i]; intra != metered {
			return fmt.Errorf("%s: traced rounds sum to %d tier-0 bytes, fabric metered %d", kind, intra, metered)
		}
		if c := m.Calls[i]; calls[i] != c {
			return fmt.Errorf("%s: %d traced rounds, fabric counted %d calls", kind, calls[i], c)
		}
	}
	return nil
}

func kindForOp(op string) (hw.CollectiveKind, bool) {
	for k := range hw.NumCollectiveKinds {
		if k.String() == op {
			return k, true
		}
	}
	return 0, false
}
