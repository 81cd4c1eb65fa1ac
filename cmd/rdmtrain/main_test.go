package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden stdout dumps")

// TestRunGoldens pins rdmtrain's stdout, byte for byte, on each of its
// three train paths: the fault-free fabric run (here with -ra 2), the
// elastic run under a fault schedule, and the discrete-event engine.
// CI diffs the same dumps from `go run`.
func TestRunGoldens(t *testing.T) {
	base := []string{"-synthetic", "-n", "128", "-classes", "4", "-features", "8",
		"-hidden", "16", "-gpus", "4", "-epochs", "6"}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"train_ra2.txt", []string{"-ra", "2"}},
		{"train_faults.txt", []string{"-faults", "crash@rank2:epoch2,slow@rank1:1.5x", "-fault-seed", "7"}},
		{"train_sim.txt", []string{"-engine", "sim"}},
	} {
		var out, errb bytes.Buffer
		if code := run(append(append([]string{}, base...), tc.args...), &out, &errb); code != 0 {
			t.Fatalf("%s: exit = %d, stderr = %q", tc.name, code, errb.String())
		}
		path := filepath.Join("testdata", tc.name)
		if *updateGolden {
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != string(want) {
			t.Errorf("stdout differs from %s; rerun with -update if intended\n--- got\n%s--- want\n%s",
				path, got, want)
		}
	}
}

func TestNeedsInput(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "need -edges FILE or -synthetic") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestShapeFlagValidation: a network or fabric shape the trainer cannot
// build exits 2 with one line on stderr, before any graph is generated.
func TestShapeFlagValidation(t *testing.T) {
	base := []string{"-synthetic", "-n", "64", "-classes", "4", "-features", "8",
		"-hidden", "8", "-epochs", "1"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-layers", "2", "-config", "16"}, "-config 16 out of range for 2 layers (-1..15)"},
		{[]string{"-layers", "0", "-config", "3"}, "-layers 0"},
		{[]string{"-layers", "-2"}, "-layers -2"},
		{[]string{"-config", "-2"}, "-config -2 out of range"},
		{[]string{"-gpus", "0"}, "-gpus 0"},
		{[]string{"-gpus", "3", "-ra", "2"}, "-ra 2 does not divide -gpus 3"},
		{[]string{"-gpus", "4", "-ra", "-1"}, "-ra -1 does not divide -gpus 4"},
	} {
		var out, errb bytes.Buffer
		if code := run(append(append([]string{}, base...), tc.args...), &out, &errb); code != 2 {
			t.Errorf("%v: exit = %d, want 2 (stderr %q)", tc.args, code, errb.String())
			continue
		}
		if out.Len() != 0 || strings.Count(errb.String(), "\n") != 1 || !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%v: stdout %q, stderr %q; want no output and one line containing %q",
				tc.args, out.String(), errb.String(), tc.want)
		}
	}
}

// TestCountFlagValidation: a vertex, class, feature, hidden-width, fanout,
// density or epoch value the trainer cannot run exits 2 with one stderr
// line naming the flag, before any graph is generated.
func TestCountFlagValidation(t *testing.T) {
	base := []string{"-synthetic", "-n", "64", "-classes", "4", "-features", "8",
		"-hidden", "8", "-epochs", "1"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "0"}, "-n 0: need at least one vertex"},
		{[]string{"-n", "-3"}, "-n -3"},
		{[]string{"-classes", "0"}, "-classes 0: need at least one class"},
		{[]string{"-classes", "-1"}, "-classes -1"},
		{[]string{"-n", "3"}, "-classes 4 exceeds -n 3"},
		{[]string{"-epochs", "-1"}, "-epochs -1"},
		{[]string{"-features", "0"}, "-features 0: need at least one input feature"},
		{[]string{"-features", "-2"}, "-features -2"},
		{[]string{"-hidden", "0"}, "-hidden 0: need at least one hidden feature"},
		{[]string{"-hidden", "-4", "-layers", "3"}, "-hidden -4"},
		{[]string{"-fanout", "-1"}, "-fanout -1: need a count >= 0"},
		{[]string{"-density", "0"}, "-density 0 out of range (0, 1]"},
		{[]string{"-density", "1.5"}, "-density 1.5 out of range"},
		{[]string{"-density", "-0.25"}, "-density -0.25 out of range"},
		{[]string{"-density", "NaN"}, "-density NaN out of range"},
	} {
		var out, errb bytes.Buffer
		if code := run(append(append([]string{}, base...), tc.args...), &out, &errb); code != 2 {
			t.Errorf("%v: exit = %d, want 2 (stderr %q)", tc.args, code, errb.String())
			continue
		}
		if out.Len() != 0 || strings.Count(errb.String(), "\n") != 1 || !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%v: stdout %q, stderr %q; want no output and one line containing %q",
				tc.args, out.String(), errb.String(), tc.want)
		}
	}
	// One layer has no hidden width, so -hidden is not read.
	var out, errb bytes.Buffer
	if code := run(append(append([]string{}, base...), "-layers", "1", "-hidden", "0"), &out, &errb); code != 0 {
		t.Errorf("-layers 1 -hidden 0: exit = %d, want 0 (stderr %q)", code, errb.String())
	}
}

func TestMissingEdgeFile(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-edges", filepath.Join(t.TempDir(), "nope.txt")}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
}

// labelRun trains on a 4-vertex edge list with the given label file
// contents at -classes 2.
func labelRun(t *testing.T, labels string) (code int, stderr string) {
	dir := t.TempDir()
	edges, lab := filepath.Join(dir, "edges.txt"), filepath.Join(dir, "labels.txt")
	if err := os.WriteFile(edges, []byte("0 1\n1 2\n2 3\n3 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lab, []byte(labels), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code = run([]string{"-edges", edges, "-labels", lab, "-n", "4", "-classes", "2",
		"-features", "4", "-hidden", "4", "-gpus", "2", "-epochs", "1"}, &out, &errb)
	return code, errb.String()
}

// TestLabelsUnlabeledLine: a -1 line marks an unlabeled vertex, which
// trains like any other label file.
func TestLabelsUnlabeledLine(t *testing.T) {
	if code, errb := labelRun(t, "0\n-1\n1\n0\n"); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb)
	}
}

// TestLabelsOutOfRange: a label at or above -classes exits 1 naming its
// line, before any training.
func TestLabelsOutOfRange(t *testing.T) {
	code, errb := labelRun(t, "0\n1\n7\n0\n")
	if code != 1 || !strings.Contains(errb, "line 3:") {
		t.Fatalf("exit = %d, stderr = %q; want 1 naming line 3", code, errb)
	}
}

func TestSyntheticTrainWithTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "train.json")
	ckpt := filepath.Join(dir, "model.ckpt")
	var out, errb bytes.Buffer
	args := []string{"-synthetic", "-n", "128", "-classes", "4", "-features", "8",
		"-hidden", "16", "-gpus", "2", "-epochs", "2",
		"-trace", tracePath, "-save", ckpt}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb.String())
	}
	for _, want := range []string{"planner-selected ordering", "train accuracy", "trace written to", "checkpoint written to"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q: %q", want, out.String())
		}
	}
	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Errorf("trace has no events")
	}
	if fi, err := os.Stat(ckpt); err != nil || fi.Size() == 0 {
		t.Errorf("checkpoint missing or empty: %v", err)
	}
}

func TestElasticFaultRun(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-synthetic", "-n", "128", "-classes", "4", "-features", "8",
		"-hidden", "16", "-gpus", "4", "-epochs", "5",
		"-faults", "crash@rank2:epoch2,slow@rank1:1.5x", "-fault-seed", "7"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb.String())
	}
	for _, want := range []string{
		"recovery 0: epoch 2 fault (failed ranks [2])",
		"world 4->3",
		"finished on 3/4 devices (survivors [0 1 3])",
		"train accuracy",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

func TestElasticRejectsBadCombos(t *testing.T) {
	base := []string{"-synthetic", "-n", "64", "-classes", "4", "-features", "8",
		"-gpus", "4", "-epochs", "2"}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"save", append(base, "-faults", "crash@rank1:epoch1", "-save", "x.ckpt"), "drop -resume/-save"},
		{"ra", append(base, "-faults", "crash@rank1:epoch1", "-ra", "2"), "-ra 0 or 1"},
		{"grammar", append(base, "-faults", "boom@rank1:epoch1"), "rdmtrain:"},
		{"all-dead", append(base, "-faults",
			"crash@rank0:epoch1,crash@rank1:epoch1,crash@rank2:epoch1,crash@rank3:epoch1"), "at least one must survive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(c.args, &out, &errb); code != 1 {
				t.Fatalf("exit = %d, want 1 (stderr %q)", code, errb.String())
			}
			if !strings.Contains(errb.String(), c.want) {
				t.Errorf("stderr = %q, want substring %q", errb.String(), c.want)
			}
		})
	}
}

func TestElasticGossipFlagRun(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-synthetic", "-n", "128", "-classes", "4", "-features", "8",
		"-hidden", "16", "-gpus", "4", "-epochs", "5",
		"-faults", "crash@rank2:epoch2", "-fault-seed", "7", "-member"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb.String())
	}
	for _, want := range []string{
		"recovery 0: epoch 2 fault (failed ranks [2])",
		"gossip detection:",
		"finished on 3/4 devices (survivors [0 1 3])",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
	// The detection summary must be meter-equal: "N bytes (model N)".
	line := out.String()[strings.Index(out.String(), "gossip detection:"):]
	line = line[:strings.Index(line, "\n")]
	var rounds, bytes_, model int
	var lat float64
	if _, err := fmt.Sscanf(strings.TrimSpace(line),
		"gossip detection: %d rounds, latency %fms, control plane %d bytes (model %d)",
		&rounds, &lat, &bytes_, &model); err != nil {
		t.Fatalf("unparseable summary %q: %v", line, err)
	}
	if rounds <= 0 || lat <= 0 || bytes_ == 0 || bytes_ != model {
		t.Fatalf("implausible detection summary: %q", line)
	}

	// Oracle detection: same fault, no -member -> no gossip line.
	var out2, errb2 bytes.Buffer
	if code := run(args[:len(args)-1], &out2, &errb2); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb2.String())
	}
	if strings.Contains(out2.String(), "gossip detection:") {
		t.Error("coordinator-oracle run printed a gossip summary")
	}
}

// TestSimEngineRun drives -engine sim end to end: the discrete-event
// backend prints timing-only epoch lines (no loss, no accuracy — it
// never materializes payloads) and still supports trace export.
func TestSimEngineRun(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "sim.json")
	var out, errb bytes.Buffer
	args := []string{"-synthetic", "-n", "128", "-classes", "4", "-features", "8",
		"-hidden", "16", "-gpus", "2", "-epochs", "3", "-config", "3",
		"-engine", "sim", "-trace", tracePath}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb.String())
	}
	for _, want := range []string{"discrete-event engine", "timing only", "trace written to"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q: %q", want, out.String())
		}
	}
	for _, reject := range []string{"loss", "accuracy"} {
		if strings.Contains(out.String(), reject) {
			t.Errorf("sim engine printed numerics it cannot have: %q in %q", reject, out.String())
		}
	}
	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Errorf("trace has no events")
	}
}

// TestSimEngineRejectsBadCombos: flags that need payloads or weights
// fail fast under -engine sim, and unknown engine names fail outright.
func TestSimEngineRejectsBadCombos(t *testing.T) {
	base := []string{"-synthetic", "-n", "64", "-classes", "4", "-features", "8",
		"-hidden", "8", "-gpus", "2", "-epochs", "1", "-config", "0"}
	for _, tc := range []struct {
		extra []string
		want  string
	}{
		{[]string{"-engine", "warp"}, "unknown engine"},
		{[]string{"-engine", "sim", "-faults", "crash@rank1:epoch1"}, "drop -faults"},
		{[]string{"-engine", "sim", "-save", "x.ckpt"}, "drop -save"},
		{[]string{"-engine", "sim", "-fanout", "2"}, "drop -fanout"},
	} {
		var out, errb bytes.Buffer
		if code := run(append(append([]string{}, base...), tc.extra...), &out, &errb); code != 1 {
			t.Fatalf("%v: exit = %d, want 1", tc.extra, code)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%v: stderr %q missing %q", tc.extra, errb.String(), tc.want)
		}
	}
}
