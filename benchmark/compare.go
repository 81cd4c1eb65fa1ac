package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// compare prints one row per (workload, end-to-end metric) of two run
// files, A the baseline and B the candidate, judged by BENCHMARK.json's
// directions and bounds:
//
//	improved      B's median is better than A's by more than the bound
//	within bound  neither side is better by more than the bound
//	regressed     B's median is worse than A's by more than the bound
//	unresolved    either side's own spread — the distance between its
//	              quartiles over its median — is wider than the bound, so
//	              the medians settle nothing
//
// It fails on any regression, and on a workload whose share of failed
// checks went up.
func compare(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: benchmark compare A.json B.json")
	}
	decl, err := loadDeclaration()
	if err != nil {
		return err
	}
	a, err := readRunFile(args[0])
	if err != nil {
		return err
	}
	b, err := readRunFile(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "A: %s  commit %s  %s  GOMAXPROCS=%d\n", args[0], a.Environment.Commit, a.Environment.CPUModel, a.Environment.GOMAXPROCS)
	fmt.Fprintf(stdout, "B: %s  commit %s  %s  GOMAXPROCS=%d\n", args[1], b.Environment.Commit, b.Environment.CPUModel, b.Environment.GOMAXPROCS)

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tunit\tchange\tspread A\tspread B\tbound\tverdict")
	regressed := 0
	for _, w := range decl.Workloads {
		ra, rb := a.timed(w.Name), b.timed(w.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range decl.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			ma, mb := median(va), median(vb)
			// worse is the share of A's median by which B is worse.
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "within bound"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.2f%%\t%.2f%%\t%.2f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, ma, mb, m.Unit, 100*(mb-ma)/ma, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
		fa, fb := failedShare(ra), failedShare(rb)
		verdict := "within bound"
		if fb > fa {
			verdict = "regressed"
			regressed++
		}
		fmt.Fprintf(tw, "%s\tfailed_op_share\t%.6g\t%.6g\tratio\t\t\t\t0%%\t%s\n", w.Name, fa, fb, verdict)
		fmt.Fprintf(tw, "%s\tnumerics_fingerprint\t\t\t\t\t\t\t\t%s\n", w.Name, sameNumerics(ra, rb))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d regression(s)", regressed)
	}
	return nil
}

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &f, nil
}

// timed returns the workload's timed-pass records, by seed.
func (f *runFile) timed(workload string) []record {
	var out []record
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out
}

func values(recs []record, metric string) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// spread is the distance between the first and third quartile as a share of
// the median; 0 when there are too few runs to have quartiles.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func failedShare(recs []record) float64 {
	var failed, attempted int
	for _, r := range recs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(attempted)
}

// sameNumerics compares the fingerprints of the runs that share a seed.
func sameNumerics(a, b []record) string {
	bySeed := map[int64]string{}
	for _, r := range a {
		bySeed[r.Seed] = r.Fingerprint
	}
	shared, same := 0, 0
	for _, r := range b {
		if fp, ok := bySeed[r.Seed]; ok {
			shared++
			if fp == r.Fingerprint {
				same++
			}
		}
	}
	switch {
	case shared == 0:
		return "no seed in common"
	case same == shared:
		return fmt.Sprintf("identical on %d seed(s)", shared)
	}
	return fmt.Sprintf("DIFFERS on %d of %d seed(s)", shared-same, shared)
}
