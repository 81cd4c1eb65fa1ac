// Command rdminfo inspects the synthetic dataset recipes standing in for
// the paper's Table V datasets: it prints their characteristics at a
// chosen scale, the GCN normalization statistics, and the greedy
// partitioner's edge cut per device count (the quantity DGCL's
// communication is proportional to). With -plan it instead prints the
// compiled op schedule (internal/plan) for a chosen ordering, device
// count, and replication factor, with per-op priced fabric bytes and a
// totals line reconciled against the Table IV closed-form prediction;
// adding -overlap appends the schedule's dependency-DAG critical path
// against the sequential replay and plan.Choose's pick under both
// pricers (which can disagree). With -pareto it instead prints the
// closed-form cost model's full ordering design space for a network
// shape, with the Pareto frontier marked:
//
//	rdminfo -pareto -dims 602,128,41 -p 8 -n 1000000 -nnz 20000000
//
// With -topo it instead prints an interconnect spec's link-tier
// structure and the topology-aware cost library's predicted collective
// times per algorithm (internal/topo).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gnnrdm/internal/baselines"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sim"
	"gnnrdm/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI against explicit streams and returns the exit
// code, so tests can drive it end to end.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdminfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 128, "dataset scale divisor (1 = the paper's full sizes)")
	cuts := fs.Bool("cuts", false, "also compute LDG partitioner edge cuts (builds each graph)")
	planFlag := fs.Bool("plan", false, "print the compiled op schedule with per-op priced bytes")
	paretoFlag := fs.Bool("pareto", false, "print every ordering's closed-form comm and sparse-op cost with the Pareto frontier marked")
	cfgID := fs.Int("config", 0, "Table IV ordering ID (with -plan)")
	devs := fs.Int("p", 4, "device count (with -plan or -pareto)")
	ra := fs.Int("ra", 0, "adjacency replication factor, 0 = P (with -plan or -pareto)")
	n := fs.Int("n", 64, "vertex count (with -plan or -pareto)")
	dimsStr := fs.String("dims", "16,12,8", "comma-separated layer widths f_0..f_L (with -plan or -pareto)")
	nnz := fs.Int64("nnz", 0, "stored adjacency entries, 0 = 8n (with -plan or -pareto)")
	nomemo := fs.Bool("nomemo", false, "disable forward memoization (with -plan or -pareto)")
	density := fs.Float64("density", 1, "live feature-row fraction; <1 compiles the sparsity-aware exchange (with -plan)")
	overlap := fs.Bool("overlap", false, "also print the dependency-DAG critical path and the overlap-vs-sequential ordering argmins (with -plan)")
	engine := fs.String("engine", "fabric", "execution backend for -plan: fabric prints the priced schedule only; sim also replays it on the discrete-event engine and reconciles clocks against plan.PriceDAGEpochs")
	topoFlag := fs.Bool("topo", false, "print an interconnect spec's link tiers and predicted collective times")
	specStr := fs.String("spec", "8x4:nvlink,ib", "interconnect spec <nodes>x<perNode>:<intra>[,<inter>] (with -topo)")
	topoP := fs.Int("topo-p", 0, "device count for -topo predictions, 0 = the spec's full size")
	payload := fs.Int64("bytes", 1<<22, "collective payload bytes for -topo predictions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *n < 1:
		fmt.Fprintf(stderr, "rdminfo: -n %d: need at least one vertex\n", *n)
		return 2
	case *nnz < 0:
		fmt.Fprintf(stderr, "rdminfo: -nnz %d: need a count >= 0 (0 = 8n)\n", *nnz)
		return 2
	}
	if *topoFlag {
		return runTopo(stdout, stderr, *specStr, *topoP, *payload)
	}
	if *paretoFlag {
		return runPareto(stdout, stderr, *devs, *ra, *n, *dimsStr, *nnz, *nomemo)
	}
	if *engine != "fabric" && *engine != "sim" {
		fmt.Fprintf(stderr, "rdminfo: unknown -engine %q (want fabric or sim)\n", *engine)
		return 2
	}
	if *planFlag {
		return runPlan(stdout, stderr, *cfgID, *devs, *ra, *n, *dimsStr, *nnz, *density, *nomemo, *overlap, *specStr, *engine)
	}

	fmt.Fprintf(stdout, "Dataset recipes (Table V), scale=1/%d\n", *scale)
	fmt.Fprintf(stdout, "%-14s %10s %12s %9s %7s %9s %7s\n",
		"dataset", "vertices", "edges", "feat", "labels", "kind", "splits")
	for _, r := range graph.Recipes() {
		s := r.Scaled(*scale)
		fmt.Fprintf(stdout, "%-14s %10d %12d %9d %7d %9s %7v\n",
			s.Name, s.Vertices, s.Edges, s.FeatureDim, s.Labels, s.Kind, s.HasSplits)
	}

	if !*cuts {
		return 0
	}
	fmt.Fprintf(stdout, "\nLDG partitioner edge cuts (fraction of stored entries crossing parts)\n")
	fmt.Fprintf(stdout, "%-14s %10s %10s %10s %10s\n", "dataset", "nnz", "P=2", "P=4", "P=8")
	for _, r := range graph.Recipes() {
		g := r.Scaled(*scale).Build()
		nnz := g.NNZ()
		fmt.Fprintf(stdout, "%-14s %10d", r.Name, nnz)
		for _, p := range []int{2, 4, 8} {
			cut := baselines.EdgeCut(g.Adj, baselines.Partition(g.Adj, p))
			fmt.Fprintf(stdout, " %9.1f%%", 100*float64(cut)/float64(nnz))
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// runPlan compiles, optimizes, and prices the op schedule for one
// problem shape, printing every op with its fabric byte volumes and a
// totals line checked byte-for-byte against the closed-form cost model.
// With overlap it appends the dependency-DAG critical path (flat and on
// the -spec topology) and the chosen ordering under both pricers. Exit
// code 1 signals a planner/model disagreement, or a critical path
// exceeding the sequential replay.
func runPlan(stdout, stderr io.Writer, cfgID, p, ra, n int, dimsStr string, nnz int64, density float64, nomemo, overlap bool, specStr, engine string) int {
	dims, ra, nnz, err := resolveShape(dimsStr, p, ra, n, nnz)
	if err != nil {
		fmt.Fprintf(stderr, "rdminfo: %v\n", err)
		return 2
	}
	layers := len(dims) - 1
	if cfgID < 0 || cfgID >= costmodel.NumConfigs(layers) {
		fmt.Fprintf(stderr, "rdminfo: config %d out of range for %d layers (0..%d)\n",
			cfgID, layers, costmodel.NumConfigs(layers)-1)
		return 2
	}
	if density <= 0 || density > 1 {
		fmt.Fprintf(stderr, "rdminfo: -density %g out of range (0, 1]\n", density)
		return 2
	}
	live := 0
	if density < 1 {
		live = costmodel.LiveCount(n, density)
	}
	sp := plan.Spec{
		N: n, Dims: dims, Config: costmodel.ConfigFromID(cfgID, layers),
		P: p, RA: ra, Memoize: !nomemo, InputGrad: true,
		Live: live, SparseSeed: sparseSeed,
	}
	sched := plan.Compile(sp).Optimize()
	cost := sched.Price(nnz, hw.A6000())
	byStep := make(map[int]plan.OpCost, len(cost.PerOp))
	for _, oc := range cost.PerOp {
		byStep[oc.Step] = oc
	}
	header := fmt.Sprintf("compiled schedule: config=%d p=%d ra=%d n=%d dims=%s memoize=%d regs=%d ops=%d",
		cfgID, p, ra, n, dimsStr, b01(!nomemo), sched.NumRegs, sched.Ops())
	if sched.Live > 0 {
		header += fmt.Sprintf(" density=%g live=%d", density, sched.Live)
	}
	fmt.Fprintln(stdout, header)
	for i := range sched.Sections {
		sec := &sched.Sections[i]
		fmt.Fprintf(stdout, "section %s %d\n", sec.Phase, sec.Layer)
		for j := range sec.Ops {
			op := &sec.Ops[j]
			line := fmt.Sprintf("  s%-3d %s", op.Step, op.OpString())
			var ann []string
			oc := byStep[op.Step]
			if oc.AllToAll > 0 {
				ann = append(ann, fmt.Sprintf("alltoall=%dB", oc.AllToAll))
			}
			if oc.AllGather > 0 {
				ann = append(ann, fmt.Sprintf("allgather=%dB", oc.AllGather))
			}
			if oc.AllReduce > 0 {
				ann = append(ann, fmt.Sprintf("allreduce=%dB", oc.AllReduce))
			}
			if oc.Side > 0 {
				ann = append(ann, fmt.Sprintf("side=%dB", oc.Side))
			}
			if len(ann) > 0 {
				line = fmt.Sprintf("%-48s %s", line, strings.Join(ann, " "))
			}
			fmt.Fprintln(stdout, line)
		}
	}
	fmt.Fprintf(stdout, "totals: alltoall=%dB allgather=%dB rdm=%dB allreduce=%dB side=%dB\n",
		cost.AllToAll, cost.AllGather, cost.RDMBytes(), cost.AllReduce, cost.Side)
	net := costmodel.Network{Dims: dims, N: int64(n), NNZ: nnz, P: p, RA: ra, NoMemo: nomemo}
	want := costmodel.EvaluateEngine(net, sp.Config).CommVolumeBytes()
	if sched.Live > 0 {
		// The Table IV closed form prices dense tiles; swap the
		// sparse-eligible exchange legs for their data-dependent forms.
		exd, _, exp := sparseExchangeTotals(sched, p)
		want += exp - exd
		fmt.Fprintf(stdout, "model:  rdm=%dB (Table IV closed form, sparse exchange legs: dense %dB -> payload %dB)\n",
			want, exd, exp)
	} else {
		fmt.Fprintf(stdout, "model:  rdm=%dB (Table IV closed form)\n", want)
	}
	if got := cost.RDMBytes(); got != want {
		fmt.Fprintf(stderr, "rdminfo: schedule prices %d RDM bytes but model predicts %d (Δ=%d)\n",
			got, want, got-want)
		return 1
	}
	if engine == "sim" {
		if code := runPlanSim(stdout, stderr, sched, nnz); code != 0 {
			return code
		}
	}
	if !overlap {
		return 0
	}
	return runPlanOverlap(stdout, stderr, sp, sched, nnz, specStr)
}

// runPlanSim replays the compiled schedule on the discrete-event
// backend (-engine sim) for two epochs under both executors, printing
// the simulated clocks and meter census, and exits non-zero unless
// every device clock equals plan.PriceDAGEpochs bit-for-bit. Both are
// views of plan's one replay engine, so the equality holds by
// construction; the check stays as a guard that running both executors
// on one engine (the pricer) and one executor per engine (sim.Run)
// cannot drift apart. The dump is deterministic and doubles as a CI
// golden (testdata/plan_sim.txt).
func runPlanSim(stdout, stderr io.Writer, sched *plan.Schedule, nnz int64) int {
	const epochs = 2
	dag, err := plan.BuildDAG(sched)
	if err != nil {
		fmt.Fprintf(stderr, "rdminfo: %v\n", err)
		return 1
	}
	h := hw.A6000()
	cen := sched.ApproxCensus(nnz)
	cost := dag.PriceDAGEpochs(cen, h, nil, epochs)
	for _, mode := range []struct {
		name    string
		overlap bool
		want    []float64
	}{{"sequential", false, cost.PerDeviceSeq}, {"overlap", true, cost.PerDevice}} {
		res := sim.MustRun(sim.Config{
			DAG: dag, Census: cen, HW: h, Epochs: epochs, Overlap: mode.overlap,
		})
		var comm, comp float64
		for r := range res.Clocks {
			if res.Clocks[r] != mode.want[r] {
				fmt.Fprintf(stderr, "rdminfo: sim %s clock[%d]=%.17g != plan.PriceDAGEpochs %.17g\n",
					mode.name, r, res.Clocks[r], mode.want[r])
				return 1
			}
			comm = maxf(comm, res.CommTime[r])
			comp = maxf(comp, res.ComputeTime[r])
		}
		if mode.overlap {
			fmt.Fprintf(stdout, "engine sim: %-10s epochs=%d clock=%.9fs\n",
				mode.name, epochs, res.MaxClock())
			continue
		}
		m := &res.Meters
		fmt.Fprintf(stdout, "engine sim: %-10s epochs=%d clock=%.9fs comm=%.9fs compute=%.9fs\n",
			mode.name, epochs, res.MaxClock(), comm, comp)
		fmt.Fprintf(stdout, "engine sim: meters alltoall=%dB allgather=%dB allreduce=%dB side=%dB total=%dB\n",
			m.Volume[hw.OpAllToAll], m.Volume[hw.OpAllGather], m.Volume[hw.OpAllReduce],
			m.TotalSideVolume(), m.TotalVolume())
	}
	fmt.Fprintln(stdout, "engine sim: clocks == plan.PriceDAGEpochs bit-exact (sequential + overlap)")
	return 0
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// runPlanOverlap appends the -overlap section: DAG shape, critical path
// vs sequential replay on the flat fabric and on the -spec topology,
// and plan.Choose's pick on the -spec topology under each objective.
// The dump is deterministic and doubles as a CI golden
// (testdata/plan_overlap.txt) pinning a shape where the two picks
// disagree.
func runPlanOverlap(stdout, stderr io.Writer, sp plan.Spec, sched *plan.Schedule, nnz int64, specStr string) int {
	ts, err := topo.ParseSpec(specStr)
	if err != nil {
		fmt.Fprintf(stderr, "rdminfo: %v\n", err)
		return 2
	}
	tp, err := ts.Topology(sp.P)
	if err != nil {
		fmt.Fprintf(stderr, "rdminfo: %v\n", err)
		return 2
	}
	dag, err := plan.BuildDAG(sched)
	if err != nil {
		fmt.Fprintf(stderr, "rdminfo: %v\n", err)
		return 1
	}
	edges := 0
	for i := range dag.Nodes {
		edges += len(dag.Nodes[i].Deps)
	}
	h := hw.A6000()
	cen := sched.ApproxCensus(nnz)
	fmt.Fprintf(stdout, "overlap: dag nodes=%d edges=%d\n", len(dag.Nodes), edges)
	for _, row := range []struct {
		name string
		tp   *topo.Topology
	}{{"flat", nil}, {specStr, tp}} {
		c := dag.PriceDAGOn(cen, h, row.tp)
		fmt.Fprintf(stdout, "overlap: %-14s critical=%.9fs sequential=%.9fs efficiency=%.1f%%\n",
			row.name, c.Makespan, c.SeqTime, 100*c.Efficiency())
		if c.Makespan > c.SeqTime {
			fmt.Fprintf(stderr, "rdminfo: critical path %v exceeds sequential replay %v on %s\n",
				c.Makespan, c.SeqTime, row.name)
			return 1
		}
	}
	fmt.Fprintf(stdout, "overlap argmin (Table IV, %s): sequential=config %d  overlap=config %d\n",
		specStr, plan.Choose(sp, nnz, h, tp, false).ID(), plan.Choose(sp, nnz, h, tp, true).ID())
	return 0
}

// sparseSeed is the canonical live-set seed the CLI compiles with,
// matching the planner test suite's convention (dist.GenRows identity).
const sparseSeed = 3

// sparseExchangeTotals sums the closed-form dense, metadata, and payload
// bytes of the schedule's sparse-eligible redistributions.
func sparseExchangeTotals(sched *plan.Schedule, p int) (dense, meta, pay int64) {
	live := sched.LiveSet()
	for i := range sched.Sections {
		for j := range sched.Sections[i].Ops {
			op := &sched.Sections[i].Ops[j]
			if op.Kind != plan.KRedist || !op.Sparse ||
				!costmodel.SparseExchangeEligible(p, op.From, op.To) {
				continue
			}
			dense += costmodel.DenseExchangeBytes(p, op.Rows, op.Cols, op.From, op.To)
			m, pl := costmodel.SparseExchangeBytes(p, op.Rows, op.Cols, op.From, op.To, live)
			meta += m
			pay += pl
		}
	}
	return dense, meta, pay
}

// runPareto prints the closed-form cost model's whole ordering design
// space (§IV / Table IV) for one network shape: every configuration's
// communication and sparse-operation cost, with the Pareto-optimal
// candidates marked.
func runPareto(stdout, stderr io.Writer, p, ra, n int, dimsStr string, nnz int64, nomemo bool) int {
	dims, ra, nnz, err := resolveShape(dimsStr, p, ra, n, nnz)
	if err != nil {
		fmt.Fprintf(stderr, "rdminfo: %v\n", err)
		return 2
	}
	net := costmodel.Network{Dims: dims, N: int64(n), NNZ: nnz, P: p, RA: ra, NoMemo: nomemo}
	costs := costmodel.EvaluateAll(net)
	front := costmodel.Pareto(costs)
	onFront := map[int]bool{}
	for _, id := range front {
		onFront[id] = true
	}
	fmt.Fprintf(stdout, "Design space: L=%d layers, dims=%v, P=%d, RA=%d, N=%d, nnz=%d\n",
		net.Layers(), dims, p, ra, n, nnz)
	fmt.Fprintf(stdout, "Comm in units of (P-1)/P*N elements; sparse ops in units of nnz FMAs.\n\n")
	fmt.Fprintf(stdout, "%4s  %-24s %14s %14s %14s %14s  %s\n",
		"ID", "ordering", "comm(units)", "sparse(units)", "comm(MB)", "sparse(GFMA)", "pareto")
	for id, c := range costs {
		mark := ""
		if onFront[id] {
			mark = "  *"
		}
		fmt.Fprintf(stdout, "%4d  %-24s %14.1f %14.1f %14.1f %14.2f%s\n",
			id, costmodel.ConfigFromID(id, net.Layers()), c.CommUnits, c.SparseUnits,
			float64(c.CommVolumeBytes())/(1<<20), c.SparseOps/1e9, mark)
	}
	fmt.Fprintf(stdout, "\nPareto-optimal candidates: %v\n", front)
	return 0
}

// resolveShape parses -dims and resolves the -ra 0 = P and -nnz 0 = 8n
// defaults, rejecting a replication factor that does not divide P.
func resolveShape(dimsStr string, p, ra, n int, nnz int64) ([]int, int, int64, error) {
	dims, err := parseDims(dimsStr)
	if err != nil {
		return nil, 0, 0, err
	}
	if ra == 0 {
		ra = p
	}
	if p < 1 || ra < 1 || ra > p || p%ra != 0 {
		return nil, 0, 0, fmt.Errorf("RA=%d invalid for P=%d", ra, p)
	}
	if nnz == 0 {
		nnz = int64(8 * n)
	}
	return dims, ra, nnz, nil
}

func parseDims(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) < 2 {
		return nil, fmt.Errorf("-dims needs at least two comma-separated widths, got %q", s)
	}
	dims := make([]int, len(parts))
	for i, part := range parts {
		d, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || d < 1 {
			return nil, fmt.Errorf("-dims entry %q is not a positive integer", part)
		}
		dims[i] = d
	}
	return dims, nil
}

func b01(v bool) int {
	if v {
		return 1
	}
	return 0
}
