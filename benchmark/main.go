// Command benchmark measures what the Go process costs — host wall time,
// CPU, allocations, resident memory — on six workloads chosen so that each
// layer of the stack dominates one of them, and decomposes each workload's
// op into the layers beneath it. See README.md.
//
// Driver mode, the contract BENCHMARK.json declares:
//
//	benchmark --workload W --seed N --seconds S --trace 0|1
//
// runs one workload in this process and prints, as the last line of
// standard output, one JSON object with the keys correct, attempted, failed
// and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1.
//
//	benchmark run [-workload W] [-seed N] [-seconds S] [-runs R] [-json out] [-trace out]
//	benchmark compare A.json B.json
//
// run drives every workload through driver mode, one process each, and
// compare reads two of run's -json files against BENCHMARK.json's bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	// P device goroutines plus the kernels' own workers share the cores;
	// capping at four keeps hosts of different widths comparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "run":
		err = runAll(args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "compare":
		err = compare(args[1:], os.Stdout)
	default:
		err = driver(args, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// record is everything one driver-mode run measured. run collects them into
// its -json file; the driver's result line is a subset.
type record struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Traced      bool                   `json:"traced"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Fingerprint string                 `json:"numerics_fingerprint"`
	Samples     int                    `json:"samples"`              // ops behind the medians
	RawWallMs   float64                `json:"raw_op_wall_ms"`       // their median, unscaled
	HostScale   float64                `json:"host_scale,omitempty"` // reference-host time per measured time (timed pass)
	Tail        string                 `json:"tail"`                 // raw op wall at the highest percentile with ten samples beyond it
	Metrics     map[string]metricValue `json:"metrics"`
	Environment environment            `json:"environment"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func driver(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traced := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	spansOut := fs.String("spans", "", "with --trace 1, write the spans here as Chrome trace JSON")
	smoke := fs.Bool("smoke", false, "test size: inputs divided by 64, two ops")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := workloadByName(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	rec := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced != 0, *smoke, *spansOut)
	return printRecord(stdout, rec)
}

func printRecord(stdout io.Writer, rec record) error {
	env := rec.Environment
	fmt.Fprintf(stdout, "%s environment %s GOMAXPROCS=%d nproc=%d cpu=%q llc=%s commit=%s seed=%d\n",
		rec.Workload, env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.CPUModel, env.LLC, env.Commit, env.Seed)
	table := endToEnd
	if rec.Traced {
		table = perLayer
	}
	for _, m := range table {
		fmt.Fprintf(stdout, "%s %s %.6g %s\n", rec.Workload, m.name, rec.Metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(stdout, "%s samples %d count (raw op wall p50 = %.6g ms; %s)\n", rec.Workload, rec.Samples, rec.RawWallMs, rec.Tail)
	if !rec.Traced {
		fmt.Fprintf(stdout, "%s host_scale %.6g ratio\n", rec.Workload, rec.HostScale)
	}
	fmt.Fprintf(stdout, "%s failed_checks %d of %d\n", rec.Workload, rec.Failed, rec.Attempted)
	fmt.Fprintf(stdout, "%s numerics_fingerprint %s\n", rec.Workload, rec.Fingerprint)
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "record %s\n", full)
	line, err := json.Marshal(result{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

const (
	// setups is how many times the timed pass sets the workload up; the
	// median is setup_s.
	setups = 3
	// minOps is the fewest ops a pass measures however short --seconds is.
	minOps = 8
)

// measure runs one pass of one workload: the timed pass (tracing off,
// end-to-end metrics) or the traced pass (per-layer metrics).
func measure(w *workload, seed int64, budget time.Duration, traced, smoke bool, spansOut string) record {
	rec := record{Workload: w.name, Seed: seed, Traced: traced, Environment: readEnvironment(seed)}
	least := minOps
	if smoke {
		least, budget = 2, 0
	}
	var walls []float64
	if traced {
		walls = tracedPass(&rec, w, least, budget, smoke, spansOut)
	} else {
		walls = timedPass(&rec, w, least, budget, smoke)
	}
	rec.Tail = "fewer than 20 samples, no percentile above the median"
	if pct, v, ok := tailPercentile(walls); ok {
		rec.Tail = fmt.Sprintf("raw op wall p%d = %.6g ms", pct, v)
	}
	rec.Correct = rec.Failed == 0
	return rec
}

// timedPass measures the end-to-end metrics with tracing off and returns
// the raw op walls in milliseconds. Host times are reported on the
// reference host's scale (calib.go); counts, bytes and simulated times are
// as measured.
func timedPass(rec *record, w *workload, least int, budget time.Duration, smoke bool) []float64 {
	cal := newCalibrator()
	// Set-up runs from process start to the first measured op: input
	// generation, layer construction and the warm-up ops. It is done
	// several times so that its median is steady; only the first includes
	// the runtime's own start-up.
	var inst instance
	var setupS []float64
	for k := 0; k < setups; k++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		start := time.Now()
		if k == 0 {
			start = procStart
		}
		inst = w.setup(rec.Seed, smoke, nil)
		took := time.Since(start)
		setupS = append(setupS, took.Seconds())
		cal.after(took)
	}
	defer inst.close()
	setupScale := cal.scale()
	cal.reset()
	rec.Attempted, rec.Failed, rec.Fingerprint = inst.verify()

	// The measured window: one caller, the next op issued when the previous
	// one has returned and the calibration slices after it are done. CPU
	// and allocations are read around each op, so the slices' own are left
	// out.
	var wallMs, simMs, bytes []float64
	var used usage
	runtime.GC()
	for t0 := time.Now(); len(wallMs) < least || time.Since(t0) < budget; {
		u0 := readUsage()
		r := inst.op(len(wallMs), nil)
		u1 := readUsage()
		used.cpu += u1.cpu - u0.cpu
		used.alloc += u1.alloc - u0.alloc
		used.mallocs += u1.mallocs - u0.mallocs
		cal.after(r.wall)
		wallMs = append(wallMs, float64(r.wall)/1e6)
		simMs = append(simMs, r.simMs)
		bytes = append(bytes, float64(r.bytes))
		rec.Attempted++
		if r.failed {
			rec.Failed++
		}
	}
	ops, scale := float64(len(wallMs)), cal.scale()
	rec.Samples = len(wallMs)
	rec.HostScale = scale
	rec.RawWallMs = median(wallMs)
	rec.Metrics = emit(endToEnd, map[string]float64{
		"setup_s":         median(setupS) * setupScale,
		"op_wall_ms_p50":  median(wallMs) * scale,
		"cpu_ms_per_op":   float64(used.cpu) / 1e6 / ops * scale,
		"alloc_mb_per_op": float64(used.alloc) / 1e6 / ops,
		"allocs_per_op":   float64(used.mallocs) / ops,
		"peak_rss_mb":     peakRSSMB(),
		"sim_time_ms":     mean(simMs),
		"comm_mb_per_op":  mean(bytes) / 1e6,
	})
	return wallMs
}

// tracedPass measures the per-layer metrics, in raw host time. Every second
// op records spans; the gap between the two halves' medians is the tracing
// overhead. It returns the raw op walls in milliseconds.
func tracedPass(rec *record, w *workload, least int, budget time.Duration, smoke bool, spansOut string) []float64 {
	probe := fullProbe
	if smoke {
		probe = smokeProbe
	}
	// The probes run before the workload and again after its ops, and the
	// better figure stands: a ceiling is what the host can do when it is
	// not being contended for.
	vals := map[string]float64{
		"host.copy_gbps":  probe.copyGBps(),
		"host.fma_gflops": probe.fmaGflops(),
	}
	sp := newSpans(1 << 14)
	inst := w.setup(rec.Seed, smoke, sp)
	defer inst.close()
	rec.Attempted, rec.Failed, rec.Fingerprint = inst.verify()

	var plainMs, tracedMs []float64
	runtime.GC()
	for i, t0 := 0, time.Now(); i < least || time.Since(t0) < budget; i++ {
		var r opResult
		if i%2 == 1 {
			r = inst.op(i, sp)
			tracedMs = append(tracedMs, float64(r.wall)/1e6)
		} else {
			r = inst.op(i, nil)
			plainMs = append(plainMs, float64(r.wall)/1e6)
		}
		rec.Attempted++
		if r.failed {
			rec.Failed++
		}
	}
	vals["host.copy_gbps"] = max(vals["host.copy_gbps"], probe.copyGBps())
	vals["host.fma_gflops"] = max(vals["host.fma_gflops"], probe.fmaGflops())
	vals["trace.overhead_frac"] = (median(tracedMs) - median(plainMs)) / median(plainMs)
	attempted, failed := inst.layers(sp, median(tracedMs), vals)
	rec.Attempted, rec.Failed = rec.Attempted+attempted, rec.Failed+failed
	rec.Metrics = emit(perLayer, vals)
	rec.Samples = len(tracedMs)
	rec.RawWallMs = median(tracedMs)
	if spansOut != "" {
		if err := writeChrome(spansOut, chromeTrace{sp.chrome(1), rec.Environment, w.name}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing spans:", err)
			rec.Failed++
		}
	}
	return append(plainMs, tracedMs...)
}
