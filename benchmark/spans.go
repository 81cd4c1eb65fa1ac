package main

import (
	"encoding/json"
	"os"
	"time"
)

// procStart is taken as early as the runtime allows; set-up time and span
// clocks count from it.
var procStart = time.Now()

// span is one timed call the harness made into a layer. Parent is the index
// of the enclosing span (-1 at the top); Op is the measured op the call
// belongs to (-1 during set-up).
type span struct {
	Name       string
	Start, End time.Duration // since procStart
	Parent     int
	Op         int
}

// spans records into a preallocated slice from the harness goroutine only.
// A nil *spans is tracing off: begin and end return at once.
type spans struct {
	buf  []span
	open int // innermost open span, -1 when none
}

func newSpans(capacity int) *spans {
	return &spans{buf: make([]span, 0, capacity), open: -1}
}

// begin opens a span under the innermost open one and returns its index.
func (s *spans) begin(name string, op int) int {
	if s == nil {
		return -1
	}
	s.buf = append(s.buf, span{Name: name, Start: time.Since(procStart), Parent: s.open, Op: op})
	s.open = len(s.buf) - 1
	return s.open
}

// end closes the span begin returned.
func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.buf[id].End = time.Since(procStart)
	s.open = s.buf[id].Parent
}

// totalMs sums the duration of every span of the given name, in
// milliseconds, and counts them.
func (s *spans) totalMs(name string) (ms float64, n int) {
	if s == nil {
		return 0, 0
	}
	for i := range s.buf {
		if s.buf[i].Name == name {
			ms += float64(s.buf[i].End-s.buf[i].Start) / 1e6
			n++
		}
	}
	return ms, n
}

// perCall is the mean duration of the spans of the given name, in
// milliseconds; 0 when there are none.
func (s *spans) perCall(name string) float64 {
	ms, n := s.totalMs(name)
	if n == 0 {
		return 0
	}
	return ms / float64(n)
}

// chromeEvent is one complete event of the Chrome trace-event format
// (loadable in Perfetto or chrome://tracing). Times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	Environment environment   `json:"environment"`
	Workload    string        `json:"workload"`
}

// chrome renders the spans as trace events; each carries its own index,
// its parent's and its op in args, which is how a reader rebuilds the tree.
func (s *spans) chrome(pid int) []chromeEvent {
	out := make([]chromeEvent, len(s.buf))
	for i, sp := range s.buf {
		out[i] = chromeEvent{
			Name: sp.Name, Ph: "X",
			Ts: float64(sp.Start) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3,
			Pid: pid, Tid: 1,
			Args: map[string]int{"id": i, "parent": sp.Parent, "op": sp.Op},
		}
	}
	return out
}

func writeChrome(path string, tr chromeTrace) error {
	data, err := json.Marshal(tr)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
