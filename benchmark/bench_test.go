package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmoke runs both passes of every workload at smoke size and pins what
// they emit to BENCHMARK.json: exactly the declared workloads, and from each
// exactly the declared metrics, each under its declared unit. It also reads
// the traced pass's span file back and follows every span to its parent.
func TestSmoke(t *testing.T) {
	decl, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, decl.Workloads[i].Name, w.name)
		}
	}

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			timed := measure(w, 1, 0, false, true, "")
			checkRecord(t, timed, decl.EndToEnd)
			for name, m := range timed.Metrics {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}

			spansFile := filepath.Join(t.TempDir(), "spans.json")
			traced := measure(w, 1, 0, true, true, spansFile)
			checkRecord(t, traced, decl.PerLayer)
			if timed.Fingerprint != traced.Fingerprint {
				t.Errorf("fingerprint %s in the timed pass, %s in the traced pass", timed.Fingerprint, traced.Fingerprint)
			}
			checkSpans(t, spansFile)
		})
	}
}

func checkRecord(t *testing.T, rec record, declared []declMetric) {
	t.Helper()
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("checks: correct=%v, %d failed of %d", rec.Correct, rec.Failed, rec.Attempted)
	}
	if len(rec.Metrics) != len(declared) {
		t.Errorf("%d metrics emitted, %d declared", len(rec.Metrics), len(declared))
	}
	for _, d := range declared {
		m, ok := rec.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("declared metric %s was not emitted", d.Name)
		case m.Unit == "" || m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
		case !metricName.MatchString(d.Name):
			t.Errorf("metric name %q is not made of letters, digits, _ . -", d.Name)
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("span file holds no spans")
	}
	ids := map[int]bool{}
	for _, ev := range tr.TraceEvents {
		ids[ev.Args["id"]] = true
	}
	for _, ev := range tr.TraceEvents {
		if p := ev.Args["parent"]; p != -1 && !ids[p] {
			t.Errorf("span %d (%s) names parent %d, which is not in the file", ev.Args["id"], ev.Name, p)
		}
		if ev.Dur < 0 {
			t.Errorf("span %d (%s) ends before it starts", ev.Args["id"], ev.Name)
		}
	}
}

// TestQuartiles pins the spread arithmetic to Python's
// statistics.quantiles(xs, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{7, 1, 5, 3})
	if q1 != 1.5 || q3 != 6.5 {
		t.Errorf("quartiles of 1,3,5,7 = %v, %v; Python gives 1.5, 6.5", q1, q3)
	}
}
