// Command rdmbench regenerates the paper's evaluation tables and figures
// on the simulated multi-GPU fabric.
//
// Usage:
//
//	rdmbench [flags] <experiment>
//
// Experiments: fig8 fig9 fig10 fig11 fig12 fig13 table6 table7 table8
// table9 table10 memo ra volume topo serve overlap member scale sparse all
//
// Example:
//
//	rdmbench -scale 128 -gpus 2,4,8 fig8
//	rdmbench -scale 256 -gpus 2 -datasets OGB-Arxiv fig12 -trace fig12.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gnnrdm/internal/bench"
	"gnnrdm/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI against explicit streams and returns the exit
// code, so tests can drive it end to end.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 128, "dataset scale divisor (1 = the paper's full sizes; large values keep pure-Go runtimes sane)")
	gpus := fs.String("gpus", "2,4,8", "comma-separated device counts")
	epochs := fs.Int("epochs", 2, "epochs per measured run (first is warm-up)")
	datasets := fs.String("datasets", "", "comma-separated dataset subset (default: all eight)")
	saintEpochs := fs.Int("saint-epochs", 15, "training epochs for fig13 curves")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON of every run to this file (open in Perfetto or chrome://tracing)")
	traceSummary := fs.Bool("trace-summary", false, "with -trace, also print per-op counters and sim-time totals")
	jsonOut := fs.String("json", "", "write the machine-readable record of the experiment to this file; only topo -> BENCH_topo.json, serve -> BENCH_serve.json, overlap -> BENCH_overlap.json, member -> BENCH_member.json, scale -> BENCH_scale.json and sparse -> BENCH_sparse.json write one")
	scalePoints := fs.String("scale-points", bench.DefaultScaleSpec, "scale experiment sweep, semicolon-separated P[@topoSpec|@flat] points (bare P sweeps flat plus (P/8)x8:nvlink,ib)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: rdmbench [flags] <experiment>\n\nexperiments:\n")
		fmt.Fprintf(stderr, "  fig8 fig9 fig10 fig11  training throughput (2/3 layers x 128/256 hidden)\n")
		fmt.Fprintf(stderr, "  fig12                  epoch time breakdown: compute vs communication\n")
		fmt.Fprintf(stderr, "  fig13                  accuracy vs time: GCN-RDM / SAINT-RDM / SAINT-DDP\n")
		fmt.Fprintf(stderr, "  table6                 pareto-optimal configuration candidates\n")
		fmt.Fprintf(stderr, "  table7                 geomean speedups over CAGNET and DGCL\n")
		fmt.Fprintf(stderr, "  table8                 measured pareto vs non-pareto epoch times\n")
		fmt.Fprintf(stderr, "  table9                 CAGNET/RDM epoch and comm time ratios\n")
		fmt.Fprintf(stderr, "  table10                per-GPU space model (paper-scale)\n")
		fmt.Fprintf(stderr, "  memo ra volume         ablations (memoization, R_A sweep, volume scaling)\n")
		fmt.Fprintf(stderr, "  topo                   topology-aware collectives: per-tier traffic and algorithm crossover\n")
		fmt.Fprintf(stderr, "  serve                  online inference tier: latency/throughput vs load and Zipf skew\n")
		fmt.Fprintf(stderr, "  overlap                comm/compute overlap: sequential vs DAG-executor epoch time\n")
		fmt.Fprintf(stderr, "  member                 gossip membership: detection latency and control-plane bytes vs P\n")
		fmt.Fprintf(stderr, "  scale                  discrete-event backend: 16-config x topology sweeps at P up to 65536\n")
		fmt.Fprintf(stderr, "  sparse                 sparsity-aware exchange: comm bytes and epoch time vs feature density\n")
		fmt.Fprintf(stderr, "  hwablate predict spmm  interconnect sensitivity; model validation; SpMM kernels\n")
		fmt.Fprintf(stderr, "  all                    everything above\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Accept flags after the experiment name too (flag parsing stops at
	// the first positional): pull one positional, re-parse the rest.
	experiment := ""
	for fs.NArg() > 0 {
		if experiment != "" {
			fs.Usage()
			return 2
		}
		experiment = fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return 2
		}
	}
	if experiment == "" {
		fs.Usage()
		return 2
	}
	switch {
	case *scale < 1:
		fmt.Fprintf(stderr, "rdmbench: -scale %d: need a divisor >= 1 (1 = the paper's full sizes)\n", *scale)
		return 2
	case *epochs < 1:
		fmt.Fprintf(stderr, "rdmbench: -epochs %d: need at least one epoch\n", *epochs)
		return 2
	case *saintEpochs < 1:
		fmt.Fprintf(stderr, "rdmbench: -saint-epochs %d: need at least one epoch\n", *saintEpochs)
		return 2
	case *traceSummary && *traceOut == "":
		fmt.Fprintln(stderr, "rdmbench: -trace-summary needs -trace")
		return 2
	}

	cfg := bench.Config{
		Scale:  *scale,
		Epochs: *epochs,
		Out:    stdout,
	}
	for _, s := range strings.Split(*gpus, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || p < 1 {
			fmt.Fprintf(stderr, "rdmbench: bad -gpus entry %q\n", s)
			return 1
		}
		cfg.GPUs = append(cfg.GPUs, p)
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if *traceOut != "" {
		cfg.Tracer = trace.NewTracer(0)
	}

	// The experiments -json can record, each returning its record. -json
	// names one file, so it takes exactly one of them: with "all" it would
	// be rewritten per experiment, with any other it would stay unwritten.
	recorded := map[string]func() (any, error){
		"topo":    func() (any, error) { return bench.RunTopoComparison(cfg) },
		"serve":   func() (any, error) { return bench.RunServe(cfg) },
		"overlap": func() (any, error) { return bench.RunOverlap(cfg) },
		"member":  func() (any, error) { return bench.RunMember(cfg) },
		"scale":   func() (any, error) { return bench.RunScale(cfg, *scalePoints) },
		"sparse":  func() (any, error) { return bench.RunSparse(cfg) },
	}
	if _, ok := recorded[experiment]; *jsonOut != "" && !ok {
		fmt.Fprintf(stderr, "rdmbench: -json records one of topo, serve, overlap, member, scale or sparse, not %s\n", experiment)
		return 2
	}

	var runExp func(name string) error
	runExp = func(name string) error {
		if run, ok := recorded[name]; ok {
			res, err := run()
			if err == nil && *jsonOut != "" {
				err = writeJSONFile(*jsonOut, res)
			}
			return err
		}
		var err error
		switch name {
		case "fig8":
			_, err = bench.RunThroughput(cfg, 2, 128)
		case "fig9":
			_, err = bench.RunThroughput(cfg, 2, 256)
		case "fig10":
			_, err = bench.RunThroughput(cfg, 3, 128)
		case "fig11":
			_, err = bench.RunThroughput(cfg, 3, 256)
		case "fig12":
			_, err = bench.RunFig12(cfg)
		case "fig13":
			_, err = bench.RunFig13(cfg, *saintEpochs)
		case "table6":
			_, err = bench.RunTable6(cfg)
		case "table7":
			_, err = bench.RunTable7(cfg)
		case "table8":
			_, err = bench.RunTable8(cfg)
		case "table9":
			_, err = bench.RunTable9(cfg)
		case "table10":
			_, err = bench.RunTable10(cfg, true)
		case "memo":
			_, err = bench.RunMemoAblation(cfg)
		case "ra":
			_, err = bench.RunRAAblation(cfg)
		case "volume":
			_, err = bench.RunVolumeScaling(cfg)
		case "hwablate":
			_, err = bench.RunHWAblation(cfg)
		case "predict":
			_, err = bench.RunPredictionValidation(cfg)
		case "spmm":
			_, err = bench.RunSpMMKernels(cfg)
		case "all":
			for _, e := range []string{"table6", "table10", "fig8", "fig9", "fig10", "fig11",
				"fig12", "table7", "table8", "table9", "memo", "ra", "volume", "topo",
				"serve", "overlap", "member", "scale", "sparse", "hwablate", "predict", "spmm", "fig13"} {
				fmt.Fprintln(stdout, "==== "+e+" ====")
				if err := runExp(e); err != nil {
					return err
				}
				fmt.Fprintln(stdout)
			}
		default:
			err = fmt.Errorf("unknown experiment %q", name)
		}
		return err
	}
	if err := runExp(experiment); err != nil {
		fmt.Fprintln(stderr, "rdmbench:", err)
		return 1
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, cfg.Tracer); err != nil {
			fmt.Fprintln(stderr, "rdmbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s (open in Perfetto / chrome://tracing)\n", *traceOut)
		if *traceSummary {
			trace.Summarize(cfg.Tracer).WriteText(stdout)
		}
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTrace(path string, t *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
