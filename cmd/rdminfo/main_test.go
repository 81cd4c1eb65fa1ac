package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden dumps")

// checkGolden compares a dump with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("dump differs from %s; rerun with -update if intended\n--- got\n%s--- want\n%s",
			path, got, want)
	}
}

func TestRecipeListing(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb.String())
	}
	for _, want := range []string{"Dataset recipes", "OGB-Arxiv", "Reddit"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q", want)
		}
	}
	if strings.Contains(out.String(), "edge cuts") {
		t.Errorf("edge cuts printed without -cuts")
	}
}

func TestCuts(t *testing.T) {
	var out, errb bytes.Buffer
	// Scale must stay moderate: Build panics when scaling pushes a
	// recipe's vertex count below its label count.
	if code := run([]string{"-scale", "512", "-cuts"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "edge cuts") {
		t.Errorf("stdout missing edge-cut table: %q", out.String())
	}
}

// TestPlanGoldens pins the -plan schedule dumps for three orderings:
// all-SpMM-first (0), a mixed row (10), and all-GEMM-first (15). The
// dumps double as CI goldens (.github/workflows/ci.yml diffs them), so
// planner or pricing changes surface as reviewable diffs.
func TestPlanGoldens(t *testing.T) {
	for _, cfg := range []int{0, 10, 15} {
		cfg := cfg
		t.Run(fmt.Sprintf("cfg%02d", cfg), func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{"-plan", "-config", fmt.Sprint(cfg)}, &out, &errb); code != 0 {
				t.Fatalf("exit = %d, stderr = %q", code, errb.String())
			}
			checkGolden(t, fmt.Sprintf("plan_cfg%02d.txt", cfg), out.String())
		})
	}
}

// TestPlanOverlapGolden pins the -plan -overlap dump for the shape
// where sequential and overlap pricing disagree on the best Table IV
// row (plan.TestChooseOverlapDisagrees pins the same pair): the
// checked-in golden shows sequential=config 10 but overlap=config 5 on
// the 8x4 reference machine, and doubles as a CI golden
// (.github/workflows/ci.yml diffs it).
func TestPlanOverlapGolden(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-plan", "-overlap", "-config", "10", "-p", "4",
		"-n", "512", "-dims", "32,256,8", "-nnz", "65536"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb.String())
	}
	for _, want := range []string{"sequential=config 10", "overlap=config 5"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-overlap dump lost the argmin disagreement: missing %q in\n%s", want, out.String())
		}
	}
	checkGolden(t, "plan_overlap.txt", out.String())
}

// TestPlanSparseGolden pins the -plan -density dump: the schedule
// compiles with the sparsity-aware exchange (two-round sparse redists,
// side-channel byte annotations) and the totals must reconcile against
// the sparse-adjusted Table IV closed form. The dump doubles as a CI
// golden (.github/workflows/ci.yml diffs it).
func TestPlanSparseGolden(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-plan", "-config", "3", "-density", "0.25"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb.String())
	}
	for _, want := range []string{"density=0.25", "sparse exchange legs", "side="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-density dump missing %q in\n%s", want, out.String())
		}
	}
	checkGolden(t, "plan_sparse.txt", out.String())
}

// TestPlanFlagValidation: malformed -plan inputs exit 2 without output.
func TestPlanFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-plan", "-dims", "16"},
		{"-plan", "-dims", "16,x,8"},
		{"-plan", "-config", "99"},
		{"-plan", "-p", "4", "-ra", "3"},
		{"-plan", "-overlap", "-spec", "8x4:warp,ib"},
		{"-plan", "-overlap", "-p", "64"},
		{"-plan", "-density", "0"},
		{"-plan", "-density", "1.5"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("args %v: exit = %d, want 2 (stderr %q)", args, code, errb.String())
		}
	}
}

// TestCountFlagValidation: a vertex or stored-entry count no problem
// can have exits 2 with one stderr line naming the flag, in every mode.
func TestCountFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-plan", "-n", "0"}, "-n 0"},
		{[]string{"-plan", "-n", "-4", "-p", "2"}, "-n -4"},
		{[]string{"-plan", "-nnz", "-5"}, "-nnz -5"},
		{[]string{"-nnz", "-5"}, "-nnz -5"},
		{[]string{"-pareto", "-n", "0"}, "-n 0"},
		{[]string{"-pareto", "-nnz", "-1"}, "-nnz -1"},
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

// TestPlanRaggedShapes: when R_A, n or a width does not split evenly,
// the priced schedule still reconciles byte-for-byte with the
// engine-faithful closed form, which counts each redistribution's exact
// tile overlaps (rdminfo exits 1 on a mismatch).
func TestPlanRaggedShapes(t *testing.T) {
	for _, args := range []string{
		"-p 3", "-p 5", "-p 6", "-p 7", "-p 3 -n 100",
		"-p 3 -config 15",
		"-p 6 -ra 3 -config 10",
		"-p 5 -n 101 -dims 7,5,3",
		"-p 7 -n 50 -config 7 -nomemo",
		"-p 9 -ra 3 -n 77 -config 12",
		"-p 3 -dims 1,3,2 -config 5",
		"-p 6 -ra 2 -n 63 -dims 5,9,4,3 -config 40",
	} {
		var out, errb bytes.Buffer
		if code := run(append([]string{"-plan"}, strings.Fields(args)...), &out, &errb); code != 0 {
			t.Errorf("-plan %s: exit = %d, stderr %q", args, code, errb.String())
		}
	}
}

// TestParetoGolden pins the -pareto design-space dump for the
// OGB-Arxiv-like 602-128-41 network at P=8; it doubles as a CI golden
// (.github/workflows/ci.yml diffs it).
func TestParetoGolden(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-pareto", "-dims", "602,128,41", "-p", "8", "-n", "1000000", "-nnz", "20000000"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb.String())
	}
	checkGolden(t, "pareto.txt", out.String())
}

// TestParetoDesignSpace: two layers list all 2^(2·2) = 16 orderings and
// the frontier.
func TestParetoDesignSpace(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-pareto", "-dims", "8,8,4", "-p", "4"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"Design space: L=2 layers", "Pareto-optimal candidates:"} {
		if !strings.Contains(s, want) {
			t.Errorf("stdout missing %q: %q", want, s)
		}
	}
	if n := strings.Count(s, "fwd["); n != 16 {
		t.Errorf("listed %d orderings, want 16", n)
	}
}

// runParetoRejects runs rdminfo with args and requires exit 2 with no
// output; it returns stderr.
func runParetoRejects(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
		t.Errorf("args %v: exit = %d with %d bytes of output, want 2 and none (stderr %q)",
			args, code, out.Len(), errb.String())
	}
	return errb.String()
}

// TestParetoFlagValidation: a replication factor that does not divide
// P is rejected before any -pareto output.
func TestParetoFlagValidation(t *testing.T) {
	runParetoRejects(t, "-pareto", "-p", "4", "-ra", "3")
}

// TestParetoBadDims: a non-integer -dims width names -dims on stderr.
func TestParetoBadDims(t *testing.T) {
	if stderr := runParetoRejects(t, "-pareto", "-dims", "8,x,4"); !strings.Contains(stderr, "-dims") {
		t.Errorf("stderr = %q, want it to name -dims", stderr)
	}
}

// TestParetoTooFewDims: one width is not a network.
func TestParetoTooFewDims(t *testing.T) {
	runParetoRejects(t, "-pareto", "-dims", "8")
}

// TestParetoBadFlag: an unknown flag next to -pareto exits 2.
func TestParetoBadFlag(t *testing.T) {
	runParetoRejects(t, "-pareto", "-no-such-flag")
}

func TestBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestTopoGolden pins the -topo dump for the issue's 8x4 reference
// machine. The dump doubles as a CI golden (.github/workflows/ci.yml
// diffs it), so topology-model or algorithm-cost changes surface as
// reviewable diffs.
func TestTopoGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-topo", "-spec", "8x4:nvlink,ib"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb.String())
	}
	checkGolden(t, "topo_8x4.txt", out.String())
}

// TestTopoFlagValidation: malformed -topo inputs exit 2.
func TestTopoFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-topo", "-spec", "0x4:nvlink,ib"},
		{"-topo", "-spec", "8x4:warp,ib"},
		{"-topo", "-spec", "8x4:nvlink"},
		{"-topo", "-topo-p", "999"},
		{"-topo", "-bytes", "-1"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("args %v: exit = %d, want 2 (stderr %q)", args, code, errb.String())
		}
	}
}

// TestPlanSimGolden pins the -engine sim replay dump: the discrete-event
// backend re-executes the priced schedule and must reconcile every
// device clock against plan.PriceDAGEpochs before printing; the output
// doubles as a CI golden (.github/workflows/ci.yml diffs it).
func TestPlanSimGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-plan", "-config", "10", "-engine", "sim"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "clocks == plan.PriceDAGEpochs bit-exact") {
		t.Errorf("sim dump missing the reconciliation line:\n%s", out.String())
	}
	checkGolden(t, "plan_sim.txt", out.String())
}

// TestEngineFlagValidation: an unknown backend name exits 2.
func TestEngineFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-plan", "-engine", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown -engine") {
		t.Errorf("stderr = %q", errb.String())
	}
}
