package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Field order is fixed by the struct, and json.Marshal emits struct
// fields in declaration order, so the export is byte-deterministic.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`
	Dur  *float64    `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	ID   int         `json:"id,omitempty"`
	BP   string      `json:"bp,omitempty"`
	Args *chromeArgs `json:"args,omitempty"`
}

// chromeArgs carries the event payload shown in the Perfetto details
// pane. Pointer-free zero values are omitted to keep files small.
type chromeArgs struct {
	Bytes  int64  `json:"bytes,omitempty"`
	Tier1  int64  `json:"tier1_bytes,omitempty"`
	Flops  int64  `json:"flops,omitempty"`
	Group  string `json:"group,omitempty"`
	GSize  int    `json:"group_size,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
	Epoch  int    `json:"epoch,omitempty"`
	Layer  int    `json:"layer,omitempty"`
	Step   int    `json:"step,omitempty"`
	Dir    string `json:"dir,omitempty"`
	Config string `json:"config,omitempty"`
	Name   string `json:"name,omitempty"` // metadata payload
	Sort   *int   `json:"sort_index,omitempty"`
	Intra  *int64 `json:"intra_bytes,omitempty"` // counter series
	Inter  *int64 `json:"inter_bytes,omitempty"` // counter series
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// usec converts simulated seconds to the microseconds Chrome expects.
func usec(s float64) float64 { return s * 1e6 }

// collKey identifies one collective occurrence across participants.
type collKey struct {
	group string
	seq   uint64
}

type collOccurrence struct {
	ranks  []int
	starts []float64
	ends   []float64
	bytes  int64
	tier1  int64
}

// WriteChrome exports every session as Chrome trace-event JSON: one
// process per session (named by its label), one thread (track) per
// simulated device, "X" complete events for kernels, collectives, and
// phases, and flow arrows binding each collective's participants — drawn
// from the straggler (the participant whose late arrival set the
// synchronized clock) to every other member, which makes skew waits
// visible at a glance in Perfetto or chrome://tracing.
//
// The export is a pure function of the recorded events, so identical
// runs serialize to identical bytes.
func WriteChrome(w io.Writer, t *Tracer) error {
	file := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	if t == nil {
		return writeJSON(w, &file)
	}
	flowID := 0
	for si, sess := range t.Sessions() {
		pid := si + 1
		sortIdx := si
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: "process_name", Cat: "__metadata", Ph: "M", Pid: pid,
			Args: &chromeArgs{Name: sess.Label},
		}, chromeEvent{
			Name: "process_sort_index", Cat: "__metadata", Ph: "M", Pid: pid,
			Args: &chromeArgs{Sort: &sortIdx},
		})
		// Collect collective occurrences in first-encounter order so the
		// flow pass below is deterministic.
		occ := map[collKey]*collOccurrence{}
		var occOrder []collKey
		rankCount := len(sess.ranks)
		for r := 0; r < rankCount; r++ {
			rSort := r
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: pid, Tid: r,
				Args: &chromeArgs{Name: deviceName(r)},
			}, chromeEvent{
				Name: "thread_sort_index", Cat: "__metadata", Ph: "M", Pid: pid, Tid: r,
				Args: &chromeArgs{Sort: &rSort},
			})
			// Overlapped runs record extra per-resource timelines; give each
			// non-empty one its own thread row grouped under the device.
			// Sequential runs have exactly one track, so this emits nothing
			// and the legacy export stays byte-identical.
			for track := 1; track < sess.Tracks(r); track++ {
				if len(sess.TrackEvents(r, track)) == 0 {
					continue
				}
				tid := track*rankCount + r
				tSort := tid
				file.TraceEvents = append(file.TraceEvents, chromeEvent{
					Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: pid, Tid: tid,
					Args: &chromeArgs{Name: deviceName(r) + " " + trackName(track)},
				}, chromeEvent{
					Name: "thread_sort_index", Cat: "__metadata", Ph: "M", Pid: pid, Tid: tid,
					Args: &chromeArgs{Sort: &tSort},
				})
			}
			for _, ev := range sess.Events(r) {
				dur := float64(usec(ev.End)) - float64(usec(ev.Start))
				ce := chromeEvent{
					Name: ev.Op, Cat: ev.Class.String(), Ph: "X",
					Ts: usec(ev.Start), Dur: &dur, Pid: pid, Tid: ev.Track*rankCount + r,
				}
				args := chromeArgs{
					Bytes: ev.Bytes, Tier1: ev.Tier1, Flops: ev.Flops,
					Group: ev.Group, GSize: ev.GroupSize, Seq: ev.Seq,
					Epoch: ev.Epoch, Layer: ev.Layer, Step: ev.Step, Dir: ev.Dir, Config: ev.Config,
				}
				if args != (chromeArgs{}) {
					ce.Args = &args
				}
				file.TraceEvents = append(file.TraceEvents, ce)
				if ev.Class == ClassCollective && ev.GroupSize > 1 {
					k := collKey{group: ev.Group, seq: ev.Seq}
					o, ok := occ[k]
					if !ok {
						o = &collOccurrence{}
						occ[k] = o
						occOrder = append(occOrder, k)
					}
					o.ranks = append(o.ranks, r)
					o.starts = append(o.starts, ev.Start)
					o.ends = append(o.ends, ev.End)
					o.bytes, o.tier1 = ev.Bytes, ev.Tier1
				}
			}
		}
		// Link-utilization counters: one cumulative-bytes series per
		// tier, stepped at each collective's completion. Occurrences are
		// ordered by end time (group/seq tie-break) so the track is
		// deterministic and monotone.
		byEnd := make([]collKey, len(occOrder))
		copy(byEnd, occOrder)
		sort.SliceStable(byEnd, func(i, j int) bool {
			a, b := occ[byEnd[i]], occ[byEnd[j]]
			ea, eb := a.ends[0], b.ends[0]
			if ea != eb {
				return ea < eb
			}
			if byEnd[i].group != byEnd[j].group {
				return byEnd[i].group < byEnd[j].group
			}
			return byEnd[i].seq < byEnd[j].seq
		})
		var cumIntra, cumInter int64
		for _, k := range byEnd {
			o := occ[k]
			if o.bytes == 0 {
				continue // barriers and zero-work rounds move no bytes
			}
			cumIntra += o.bytes - o.tier1
			cumInter += o.tier1
			intra, inter := cumIntra, cumInter
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: "link bytes", Cat: "comm", Ph: "C",
				Ts: usec(o.ends[0]), Pid: pid,
				Args: &chromeArgs{Intra: &intra, Inter: &inter},
			})
		}
		// Flow arrows: straggler -> every other participant.
		for _, k := range occOrder {
			o := occ[k]
			if len(o.ranks) < 2 {
				continue
			}
			strag := 0
			for i := 1; i < len(o.ranks); i++ {
				if o.starts[i] > o.starts[strag] {
					strag = i
				}
			}
			flowID++
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: "sync", Cat: "comm-flow", Ph: "s", ID: flowID,
				Ts: usec(o.starts[strag]), Pid: pid, Tid: o.ranks[strag],
			})
			for i := range o.ranks {
				if i == strag {
					continue
				}
				file.TraceEvents = append(file.TraceEvents, chromeEvent{
					Name: "sync", Cat: "comm-flow", Ph: "f", BP: "e", ID: flowID,
					Ts: usec(o.ends[i]), Pid: pid, Tid: o.ranks[i],
				})
			}
		}
	}
	return writeJSON(w, &file)
}

func writeJSON(w io.Writer, file *chromeFile) error {
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

func deviceName(r int) string {
	// Avoid fmt for the common case; device counts are small.
	return "device " + itoa(r)
}

// trackName labels a device's extra resource timelines in the export.
// The numbering mirrors hw.Resource (1 = intra-node link, 2 = inter-node
// link), kept local to avoid an hw dependency from trace.
func trackName(track int) string {
	switch track {
	case 1:
		return "link:intra"
	case 2:
		return "link:inter"
	}
	return "track " + itoa(track)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
