package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNoExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "usage: rdmbench") {
		t.Errorf("usage not printed: %q", errb.String())
	}
}

func TestBadGPUs(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-gpus", "two", "fig12"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "bad -gpus") {
		t.Errorf("stderr = %q", errb.String())
	}
}

// TestNumericFlagValidation: a numeric flag no experiment can run with
// exits 2 with one stderr line naming the flag, before anything runs —
// it neither panics nor silently becomes a default.
func TestNumericFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-epochs", "-1", "fig12"}, "-epochs -1"},
		{[]string{"-epochs", "0", "fig12"}, "-epochs 0"},
		{[]string{"-scale", "0", "fig12"}, "-scale 0"},
		{[]string{"-scale", "-1", "fig12"}, "-scale -1"},
		{[]string{"fig13", "-saint-epochs", "0"}, "-saint-epochs 0"},
		{[]string{"-trace-summary", "fig12"}, "-trace-summary"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%v: exit = %d, want 2 (stderr %q)", tc.args, code, errb.String())
			continue
		}
		if out.Len() != 0 || strings.Count(errb.String(), "\n") != 1 || !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%v: stdout %q, stderr %q; want no output and one line containing %q",
				tc.args, out.String(), errb.String(), tc.want)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"fig99"}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown experiment") {
		t.Errorf("stderr = %q", errb.String())
	}
}

// TestJSONNeedsOneRecordingExperiment pins -json to a single experiment that
// writes a record: with "all" the file would be rewritten once per such
// experiment, with fig8 never written. Both exit 2 with one line on stderr
// before anything runs, so nothing reaches stdout or the file.
func TestJSONNeedsOneRecordingExperiment(t *testing.T) {
	for _, exp := range []string{"all", "fig8"} {
		path := filepath.Join(t.TempDir(), "out.json")
		var out, errb bytes.Buffer
		if code := run([]string{"-scale", "4096", "-json", path, exp}, &out, &errb); code != 2 {
			t.Fatalf("%s: exit = %d, want 2", exp, code)
		}
		if msg := errb.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-json") || !strings.Contains(msg, exp) {
			t.Errorf("%s: stderr = %q, want one line naming -json and the experiment", exp, msg)
		}
		if out.Len() != 0 {
			t.Errorf("%s: something ran: stdout = %q", exp, out.String())
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: -json file exists (stat error %v)", exp, err)
		}
	}
}

// TestOverlapJSON smoke-tests the overlap experiment end to end at a
// tiny scale: the JSON must decode into rows that each keep the
// overlapped epoch at or below the sequential one, with at least one
// strictly faster (the checked-in BENCH_overlap.json is the full-scale
// run of the same experiment).
func TestOverlapJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overlap.json")
	var out, errb bytes.Buffer
	args := []string{"-scale", "4096", "-epochs", "2", "-datasets", "OGB-Arxiv",
		"overlap", "-json", path}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Rows []struct {
			Topology        string  `json:"topology"`
			SeqEpochSec     float64 `json:"seq_epoch_sec"`
			OverlapEpochSec float64 `json:"overlap_epoch_sec"`
			Efficiency      float64 `json:"efficiency"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("BENCH JSON invalid: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	faster := 0
	for _, r := range res.Rows {
		if r.OverlapEpochSec > r.SeqEpochSec {
			t.Errorf("%s: overlap epoch %v exceeds sequential %v", r.Topology, r.OverlapEpochSec, r.SeqEpochSec)
		}
		if r.Efficiency < 0 || r.Efficiency >= 1 {
			t.Errorf("%s: efficiency %v out of range", r.Topology, r.Efficiency)
		}
		if r.OverlapEpochSec < r.SeqEpochSec {
			faster++
		}
	}
	if faster == 0 {
		t.Error("no cell trained strictly faster under the overlap executor")
	}
}

// TestFig12Trace drives the acceptance path end to end: a tiny fig12 run
// with flags after the experiment name, emitting a Chrome trace that
// must be valid JSON and byte-identical across two runs.
func TestFig12Trace(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(path string) {
		t.Helper()
		var out, errb bytes.Buffer
		args := []string{"-scale", "8192", "-gpus", "2", "-datasets", "OGB-Arxiv",
			"fig12", "-trace", path, "-trace-summary"}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("exit = %d, stderr = %q", code, errb.String())
		}
		if !strings.Contains(out.String(), "trace written to") ||
			!strings.Contains(out.String(), "=== trace session") {
			t.Errorf("stdout missing trace report: %q", out.String())
		}
	}
	p1 := filepath.Join(dir, "a.json")
	p2 := filepath.Join(dir, "b.json")
	runOnce(p1)
	runOnce(p2)

	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b1, &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var complete, flows int
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
		case "s":
			flows++
		}
	}
	if complete == 0 || flows == 0 {
		t.Errorf("trace has %d complete events and %d flows", complete, flows)
	}

	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("two identical runs wrote different traces (%d vs %d bytes)", len(b1), len(b2))
	}
}

// TestMemberJSON drives the membership experiment end to end and pins
// the property the checked-in BENCH_member.json certifies: the emitted
// JSON is byte-identical run to run (the sweep is fully seeded), every
// row converges within its bound, and meters equal the cost model.
func TestMemberJSON(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(path string) []byte {
		var out, errb bytes.Buffer
		if code := run([]string{"member", "-json", path}, &out, &errb); code != 0 {
			t.Fatalf("exit = %d, stderr = %q", code, errb.String())
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := runOnce(filepath.Join(dir, "a.json"))
	b := runOnce(filepath.Join(dir, "b.json"))
	if !bytes.Equal(a, b) {
		t.Fatal("BENCH_member.json is not byte-identical across runs")
	}
	var res struct {
		Rows []struct {
			P         int   `json:"p"`
			Rounds    int   `json:"rounds"`
			Bound     int   `json:"bound"`
			Bytes     int64 `json:"bytes"`
			PredBytes int64 `json:"pred_bytes"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(a, &res); err != nil {
		t.Fatalf("BENCH JSON invalid: %v", err)
	}
	if len(res.Rows) != 8 { // P in {8,64,256,1024} x dead in {1,3}
		t.Fatalf("rows: %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Rounds > r.Bound || r.Bytes != r.PredBytes {
			t.Fatalf("row violates its own invariants: %+v", r)
		}
	}
}
