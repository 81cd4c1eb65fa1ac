package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// HistBuckets is the number of logarithmic duration buckets kept per op:
// bucket i counts durations in [10^(i-9), 10^(i-8)) seconds, so the
// histogram spans 1 ns to 10^7 s with under- and overflow clamped to the
// first and last bucket.
const HistBuckets = 16

// histBucket maps a duration in seconds to its bucket index.
func histBucket(dur float64) int {
	if dur <= 0 {
		return 0
	}
	b := int(math.Floor(math.Log10(dur))) + 9
	if b < 0 {
		return 0
	}
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// OpStat aggregates all events sharing one (class, op) pair.
type OpStat struct {
	Class Class
	Op    string
	Count int64
	// Bytes and Flops are sums of the per-event fields.
	Bytes int64
	Flops int64
	// SimTime is the total simulated duration. For phases this double
	// counts the kernels and collectives they contain; per-class time
	// accounting in RankTotals therefore ignores phases.
	SimTime float64
	MinDur  float64
	MaxDur  float64
	// Hist is the log-scale duration histogram (see HistBuckets).
	Hist [HistBuckets]int64
}

func (s *OpStat) add(ev *Event) {
	d := ev.Dur()
	if s.Count == 0 || d < s.MinDur {
		s.MinDur = d
	}
	if d > s.MaxDur {
		s.MaxDur = d
	}
	s.Count++
	s.Bytes += ev.Bytes
	s.Flops += ev.Flops
	s.SimTime += d
	s.Hist[histBucket(d)]++
}

// RankTotals is one device's per-class time accounting. CommTime and
// ComputeTime are sums over collective and kernel events respectively
// and, when no events were dropped, equal the device's CommTime() and
// ComputeTime() accumulators.
type RankTotals struct {
	Rank                  int
	CommTime, ComputeTime float64
	Events                uint64
	Dropped               uint64
}

// SessionSummary aggregates one session.
type SessionSummary struct {
	Label string
	P     int
	Ranks []RankTotals
	// Ops is sorted by (Class, Op) for deterministic rendering.
	Ops []*OpStat
	// MaxCommTime / MaxComputeTime are maxima over ranks — the quantities
	// the paper's Fig. 12 breakdown reports.
	MaxCommTime, MaxComputeTime float64
	// MaxClock is the largest event end time (the session makespan).
	MaxClock float64
}

// Summary aggregates every session of a tracer.
type Summary struct {
	Sessions []*SessionSummary
}

// Summarize aggregates the tracer's recorded events into per-op counters
// and per-rank time totals. It must not run concurrently with a fabric
// Run that is still emitting.
func Summarize(t *Tracer) *Summary {
	sum := &Summary{}
	if t == nil {
		return sum
	}
	for _, sess := range t.Sessions() {
		ss := SummarizeSession(sess)
		sum.Sessions = append(sum.Sessions, ss)
	}
	return sum
}

// SummarizeSession aggregates one session.
func SummarizeSession(sess *Session) *SessionSummary {
	ss := &SessionSummary{Label: sess.Label, P: sess.P}
	ops := map[string]*OpStat{}
	for r := 0; r < len(sess.ranks); r++ {
		rt := RankTotals{Rank: r, Events: sess.Total(r), Dropped: sess.Dropped(r)}
		for _, ev := range sess.Events(r) {
			ev := ev
			key := ev.Class.String() + "/" + ev.Op
			st, ok := ops[key]
			if !ok {
				st = &OpStat{Class: ev.Class, Op: ev.Op}
				ops[key] = st
			}
			st.add(&ev)
			switch ev.Class {
			case ClassCollective:
				rt.CommTime += ev.Dur()
			case ClassKernel:
				rt.ComputeTime += ev.Dur()
			}
			if ev.End > ss.MaxClock {
				ss.MaxClock = ev.End
			}
		}
		if rt.CommTime > ss.MaxCommTime {
			ss.MaxCommTime = rt.CommTime
		}
		if rt.ComputeTime > ss.MaxComputeTime {
			ss.MaxComputeTime = rt.ComputeTime
		}
		ss.Ranks = append(ss.Ranks, rt)
	}
	for _, st := range ops {
		ss.Ops = append(ss.Ops, st)
	}
	sort.Slice(ss.Ops, func(i, j int) bool {
		if ss.Ops[i].Class != ss.Ops[j].Class {
			return ss.Ops[i].Class < ss.Ops[j].Class
		}
		return ss.Ops[i].Op < ss.Ops[j].Op
	})
	return ss
}

// WriteText renders the summary as human-readable tables, one per
// session: the per-rank comm/compute split followed by the per-op
// counters and duration ranges.
func (s *Summary) WriteText(w io.Writer) error {
	for _, ss := range s.Sessions {
		if _, err := fmt.Fprintf(w, "=== trace session %q (P=%d, makespan %.6fs) ===\n",
			ss.Label, ss.P, ss.MaxClock); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6s %14s %14s %10s %9s\n", "rank", "comm(s)", "compute(s)", "events", "dropped")
		for _, rt := range ss.Ranks {
			fmt.Fprintf(w, "%-6d %14.6f %14.6f %10d %9d\n",
				rt.Rank, rt.CommTime, rt.ComputeTime, rt.Events, rt.Dropped)
		}
		fmt.Fprintf(w, "%-12s %-14s %10s %14s %14s %12s %12s\n",
			"class", "op", "count", "sim-time(s)", "bytes", "min(us)", "max(us)")
		for _, st := range ss.Ops {
			fmt.Fprintf(w, "%-12s %-14s %10d %14.6f %14d %12.2f %12.2f\n",
				st.Class, st.Op, st.Count, st.SimTime, st.Bytes, st.MinDur*1e6, st.MaxDur*1e6)
		}
		fmt.Fprintln(w)
	}
	return nil
}
