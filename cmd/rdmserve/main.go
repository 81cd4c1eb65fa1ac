// Command rdmserve runs the online inference tier over one dataset: a
// seeded open-loop query stream is coalesced into microbatches and
// served by the batched, cached, distributed forward engine, then a
// summary — load, cache efficacy, exact byte ledgers, simulated
// latency — is printed. The run is bit-reproducible: same flags, same
// summary, byte for byte.
//
// Usage:
//
//	rdmserve [flags]
//
// Example:
//
//	rdmserve -p 4 -dataset OGB-Arxiv -scale 512 -queries 256 -zipf 1.5
//	rdmserve -p 4 -topo 2x2:nvlink,ib -json serve.json -trace serve_trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"gnnrdm/internal/bench"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/serve"
	"gnnrdm/internal/topo"
	"gnnrdm/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI against explicit streams and returns the exit
// code, so tests can drive it end to end.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdmserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := fs.Int("p", 4, "device count")
	dataset := fs.String("dataset", "OGB-Arxiv", "dataset recipe (see rdminfo)")
	scale := fs.Int("scale", 512, "dataset scale divisor")
	layers := fs.Int("layers", 2, "GCN layers")
	hidden := fs.Int("hidden", 128, "hidden width")
	configID := fs.Int("config", 0, "Table IV ordering configuration id")
	ra := fs.Int("ra", 0, "adjacency replication factor (0 = full replication)")
	queries := fs.Int("queries", 256, "queries to generate")
	users := fs.Int64("users", 1_000_000, "simulated user population")
	zipf := fs.Float64("zipf", 1.5, "Zipf popularity skew (> 1)")
	rate := fs.Float64("rate", 2000, "offered load, queries/second")
	seed := fs.Int64("seed", 17, "traffic seed")
	batch := fs.Int("batch", 8, "admission queue size trigger")
	deadline := fs.Float64("deadline", 2e-3, "admission queue deadline trigger, seconds")
	cache := fs.Int("cache", 64, "answer cache capacity in vertices (0 disables)")
	staleness := fs.Int("staleness", 0, "cache entry staleness bound in microbatches (0 = never stale)")
	topoSpec := fs.String("topo", "", "interconnect topology spec, e.g. 2x2:nvlink,ib (empty = flat)")
	jsonOut := fs.String("json", "", "write the machine-readable report to this file")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON (device timelines + request spans) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "rdmserve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if msg := checkFlags(serveFlags{
		p: *p, scale: *scale, layers: *layers, hidden: *hidden, configID: *configID, ra: *ra,
		batch: *batch, deadline: *deadline, cache: *cache, staleness: *staleness, topo: *topoSpec,
	}); msg != "" {
		fmt.Fprintln(stderr, "rdmserve:", msg)
		return 2
	}

	w, err := bench.BuildWorkload(*dataset, *scale)
	if err != nil {
		fmt.Fprintln(stderr, "rdmserve:", err)
		return 1
	}
	dims := w.Dims(*layers, *hidden)

	cfg := serve.Config{
		Dims: dims, ConfigID: *configID, RA: *ra, Seed: 11,
		MaxBatch: *batch, Deadline: *deadline,
		CacheCap: *cache, Staleness: *staleness,
	}
	if *topoSpec != "" {
		cfg.Topology = topo.MustParseSpec(*topoSpec).MustTopology(*p)
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.NewTracer(0)
		cfg.Tracer = tracer
		cfg.TraceLabel = fmt.Sprintf("%s/p%d/serve", *dataset, *p)
	}
	ts := serve.TrafficSpec{Queries: *queries, Users: *users, Skew: *zipf, Rate: *rate, Seed: *seed}
	if err := ts.Validate(); err != nil {
		fmt.Fprintln(stderr, "rdmserve:", err)
		return 1
	}

	s := serve.NewSession(w.Prob, cfg)
	s.Serve(*p, ts.Generate(w.Prob.N()))
	r := s.Report()
	m, pred := s.Metered(), s.Predicted()

	fmt.Fprintf(stdout, "Online GNN serving: dataset=%s scale=1/%d dims=%v P=%d topo=%s\n",
		*dataset, *scale, dims, *p, orFlat(*topoSpec))
	fmt.Fprintf(stdout, "%s\n", ts)
	fmt.Fprintf(stdout, "admission: batch<=%d deadline=%gs | cache: cap=%d staleness=%d\n",
		*batch, *deadline, *cache, *staleness)
	fmt.Fprintf(stdout, "queries %d  batches %d  hits %d  misses %d  hit-rate %.1f%%\n",
		r.Queries, r.Batches, r.Hits, r.Misses, 100*r.HitRate)
	fmt.Fprintf(stdout, "meter   alltoall %d  allgather %d  total %d  bytes/query %.1f  tier intra/inter %d/%d\n",
		r.BytesAllToAll, r.BytesAllGather, r.BytesTotal, r.BytesPerQuery,
		r.TierBytes[topo.TierIntra], r.TierBytes[topo.TierInter])
	fmt.Fprintf(stdout, "model   alltoall %d  allgather %d  tier intra/inter %d/%d  meter==model %v\n",
		r.PredAllToAll, r.PredAllGather,
		r.PredTierBytes[topo.TierIntra], r.PredTierBytes[topo.TierInter],
		m == pred)
	fmt.Fprintf(stdout, "latency p50 %.3fms  p99 %.3fms  mean %.3fms\n",
		1e3*r.P50Latency, 1e3*r.P99Latency, 1e3*r.MeanLatency)
	fmt.Fprintf(stdout, "throughput %.1f qps  sim %.6fs  model %.6fs\n",
		r.ThroughputQPS, r.SimTime, r.PredTime)

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, r); err != nil {
			fmt.Fprintln(stderr, "rdmserve:", err)
			return 1
		}
	}
	if *traceOut != "" {
		if err := writeChrome(*traceOut, tracer); err != nil {
			fmt.Fprintln(stderr, "rdmserve:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s (open in Perfetto / chrome://tracing)\n", *traceOut)
	}
	return 0
}

// serveFlags carries the flag values checkFlags validates.
type serveFlags struct {
	p, ra, scale     int
	layers, hidden   int
	configID, batch  int
	cache, staleness int
	deadline         float64
	topo             string
}

// checkFlags names the first flag the serving tier cannot run as given,
// or returns "" when all are usable. It runs before any work, so a bad
// value exits with one line instead of a panic, or a run that quietly
// serves something other than what was asked.
func checkFlags(f serveFlags) string {
	switch {
	case f.p < 1:
		return fmt.Sprintf("-p %d: need at least one device", f.p)
	case f.ra < 0 || f.ra > 0 && f.p%f.ra != 0:
		return fmt.Sprintf("-ra %d does not divide -p %d", f.ra, f.p)
	case f.scale < 1:
		return fmt.Sprintf("-scale %d: need a divisor >= 1", f.scale)
	case f.layers < 1:
		return fmt.Sprintf("-layers %d: need at least 1", f.layers)
	case f.layers > 1 && f.hidden < 1:
		return fmt.Sprintf("-hidden %d: need at least one hidden feature", f.hidden)
	case f.configID < 0 || f.configID >= costmodel.NumConfigs(f.layers):
		return fmt.Sprintf("-config %d out of range for %d layers (0..%d)",
			f.configID, f.layers, costmodel.NumConfigs(f.layers)-1)
	case f.batch < 1:
		return fmt.Sprintf("-batch %d: need at least one query per microbatch", f.batch)
	case !(f.deadline > 0):
		return fmt.Sprintf("-deadline %g: need a positive time in seconds", f.deadline)
	case f.cache < 0:
		return fmt.Sprintf("-cache %d: need a capacity >= 0 (0 disables)", f.cache)
	case f.staleness < 0:
		return fmt.Sprintf("-staleness %d: need a bound >= 0 (0 = never stale)", f.staleness)
	}
	if f.topo == "" {
		return ""
	}
	sp, err := topo.ParseSpec(f.topo)
	if err != nil {
		return fmt.Sprintf("-topo %q: %v", f.topo, err)
	}
	if sp.Devices() < f.p {
		return fmt.Sprintf("-topo %s has %d devices, -p %d needs more", f.topo, sp.Devices(), f.p)
	}
	return ""
}

func orFlat(s string) string {
	if s == "" {
		return "flat"
	}
	return s
}

func writeJSON(path string, v any) error {
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

func writeChrome(path string, t *trace.Tracer) error {
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
