package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the summary golden dumps")

// TestSummaryGolden locks the default serve summary byte for byte, on
// the flat fabric and on a two-node topology (whose inter-tier bytes
// are nonzero): the whole tier is seeded, so any drift in admission,
// caching, metering or the closed-form prices shows up as a reviewable
// diff (CI diffs both goldens too).
func TestSummaryGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"serve_summary.golden", nil},
		{"serve_summary_2x2.golden", []string{"-topo", "2x2:nvlink,ib"}},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit = %d, stderr = %q", tc.args, code, errb.String())
		}
		path := filepath.Join("testdata", tc.golden)
		if *updateGolden {
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run `go test ./cmd/rdmserve -update` to create it)", err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("summary drifted from golden %s:\n--- got ---\n%s--- want ---\n%s", path, out.String(), want)
		}
	}
}

func TestMeterMatchesModelInSummary(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-p", "2", "-queries", "128", "-topo", "2x1:nvlink,ib"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "meter==model true") {
		t.Fatalf("summary does not attest meter==model:\n%s", out.String())
	}
}

func TestJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-p", "2", "-queries", "64", "-json", path}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep["queries"].(float64) != 64 {
		t.Fatalf("report queries = %v, want 64", rep["queries"])
	}
}

func TestBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-zipf", "0.5"}, &out, &errb); code != 1 {
		t.Fatalf("invalid zipf skew: exit = %d, want 1", code)
	}
	if code := run([]string{"-dataset", "nope"}, &out, &errb); code != 1 {
		t.Fatalf("unknown dataset: exit = %d, want 1", code)
	}
}

// TestFlagValidation: every flag value the serving tier cannot run as
// given exits 2 before any work, with one stderr line naming the flag —
// never a panic, and never a run of something other than what was asked.
func TestFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string // "" for a valid run
	}{
		{[]string{"-p", "0"}, "-p"},
		{[]string{"-ra", "3"}, "-ra"},
		{[]string{"-p", "3", "-ra", "2"}, "-ra"},
		{[]string{"-cache", "-1"}, "-cache"},
		{[]string{"-deadline", "-1"}, "-deadline"},
		{[]string{"-deadline", "0"}, "-deadline"},
		{[]string{"-p", "8", "-topo", "2x2:nvlink,ib"}, "-topo"},
		{[]string{"-hidden", "0", "-layers", "2"}, "-hidden"},
		{[]string{"-layers", "0"}, "-layers"},
		{[]string{"-config", "99"}, "-config"},
		{[]string{"-batch", "0"}, "-batch"},
		{[]string{"-scale", "0"}, "-scale"},
		{[]string{"-staleness", "-1"}, "-staleness"},
		{[]string{"-p", "2", "-ra", "1", "-layers", "1", "-hidden", "0", "-config", "3"}, ""},
	} {
		args := append([]string{"-queries", "16"}, c.args...)
		var out, errb bytes.Buffer
		code := run(args, &out, &errb)
		if c.flag == "" {
			if code != 0 {
				t.Errorf("%v: exit = %d, want 0; stderr = %q", c.args, code, errb.String())
			}
			continue
		}
		msg := errb.String()
		if code != 2 || out.Len() != 0 || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, c.flag+" ") {
			t.Errorf("%v: exit = %d, stdout %d bytes, stderr = %q; want exit 2 and one line naming %s",
				c.args, code, out.Len(), msg, c.flag)
		}
	}
}
