package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metric names one number the benchmark emits, and its unit. The same names,
// with direction and regression bound, are declared in BENCHMARK.json;
// bench_test.go pins the two lists to each other.
//
// Every workload emits every metric. A per-layer metric whose layer the
// workload never calls reads 0.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"op_wall_ms_p50", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
	{"sim_time_ms", "sim_ms"},
	{"comm_mb_per_op", "MB"},
}

var perLayer = []metric{
	{"host.copy_gbps", "GB/s"},
	{"host.fma_gflops", "GFLOP/s"},
	{"graph.build_ms", "ms"},
	{"sparse.gcn_normalize_ms", "ms"},
	{"sparse.spmm_ms_per_call", "ms"},
	{"sparse.spmm_gflops", "GFLOP/s"},
	{"sparse.spmm_gbps", "GB/s"},
	{"sparse.spmm_roofline_frac", "ratio"},
	{"sparse.busy_ms_per_epoch", "ms"},
	{"sparse.calls_per_epoch", "count"},
	{"tensor.gemm_gflops", "GFLOP/s"},
	{"tensor.matmul_ta_gflops", "GFLOP/s"},
	{"tensor.matmul_tb_gflops", "GFLOP/s"},
	{"tensor.gemm_roofline_frac", "ratio"},
	{"tensor.busy_ms_per_epoch", "ms"},
	{"tensor.calls_per_epoch", "count"},
	{"tensor.allocs_per_call", "count"},
	{"comm.alltoall_us_per_call", "us"},
	{"comm.allreduce_us_per_call", "us"},
	{"comm.allgather_us_per_call", "us"},
	{"comm.barrier_us_per_call", "us"},
	{"comm.busy_ms_per_epoch", "ms"},
	{"comm.calls_per_epoch", "count"},
	{"comm.bytes_per_epoch", "B"},
	{"comm.allocs_per_call", "count"},
	{"dist.h2v_ms_per_call", "ms"},
	{"dist.v2h_ms_per_call", "ms"},
	{"dist.redistribute_gbps", "GB/s"},
	{"dist.busy_ms_per_epoch", "ms"},
	{"dist.calls_per_epoch", "count"},
	{"dist.allocs_per_call", "count"},
	{"dist.alloc_mb_per_call", "MB"},
	{"dist.gather_rows_us_per_call", "us"},
	{"core.new_engine_ms", "ms"},
	{"core.epoch_self_ms", "ms"},
	{"core.epoch_self_frac", "ratio"},
	{"core.run_inference_ms", "ms"},
	{"plan.compile_us_per_config", "us"},
	{"plan.optimize_us_per_config", "us"},
	{"plan.build_dag_us_per_config", "us"},
	{"plan.approx_census_ms_per_config", "ms"},
	{"plan.price_dag_ms_per_config", "ms"},
	{"plan.price_dag_cold_ms", "ms"},
	{"plan.ops_per_schedule", "count"},
	{"topo.build_ms", "ms"},
	{"topo.alltoall_price_ms_per_call", "ms"},
	{"topo.allreduce_price_us_per_call", "us"},
	{"sim.run_seq_ms_per_config", "ms"},
	{"sim.run_overlap_ms_per_config", "ms"},
	{"sim.ns_per_op_rank", "ns"},
	{"serve.generate_ms", "ms"},
	{"serve.coalesce_ms", "ms"},
	{"serve.cache_ns_per_lookup", "ns"},
	{"serve.serve_self_ms", "ms"},
	{"serve.report_ms", "ms"},
	{"serve.batches_per_call", "count"},
	{"serve.hit_rate", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// metricValue is one emitted number in the driver's result format.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit renders the table's metrics from vals; a name vals lacks reads 0, and
// a name the table lacks is a bug.
func emit(table []metric, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(table))
	for _, m := range table {
		out[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			panic("benchmark: undeclared metric " + name)
		}
	}
	return out
}

// declMetric and declaration mirror BENCHMARK.json.
type declMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

// loadDeclaration reads BENCHMARK.json from the working directory or, when
// the benchmark is run from its own directory, from the parent.
func loadDeclaration() (*declaration, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var d declaration
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
		}
		return &d, nil
	}
	return nil, firstErr
}

// median returns the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (its default, exclusive method), which is
// what the driver judges spreads with. xs needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := min(max(i*(len(s)+1)/4, 1), len(s)-1)
		delta := float64(i*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailPercentile returns the highest percentile with at least ten samples
// beyond it, and its value; ok is false below twenty samples, where no
// percentile above the median qualifies.
func tailPercentile(xs []float64) (pct int, value float64, ok bool) {
	if len(xs) < 20 {
		return 0, 0, false
	}
	pct = 100 * (len(xs) - 10) / len(xs)
	return pct, quantile(xs, float64(pct)/100), true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
