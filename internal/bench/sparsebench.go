package bench

// This file is the sparsity-aware exchange experiment (ROADMAP item 1's
// evaluation): sweep feature density over a row-sparsified dataset,
// price every Table IV ordering dense and sparse (plus the
// aggregate-before-communicate rewrite), live-train a probe subset on
// the fabric to enforce meter==model byte-exactly, and report the
// headline — at a bandwidth-dominated shape the planner's ordering
// argmin shifts once features are sparse. The runner enforces its own
// invariants (dense equivalence at density 1.0, strictly decreasing
// bytes with sparsity, >=2x exchange-volume reduction at <=10% density,
// and at least one argmin shift) and fails loudly if any breaks. The
// result marshals to BENCH_sparse.json via rdmbench -json.

import (
	"fmt"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/verify"
)

// SparseDensities is the density sweep rdmbench sparse runs.
var SparseDensities = []float64{1.0, 0.5, 0.25, 0.1, 0.05}

// sparseProbeConfigs are the orderings trained live per density: the
// densest sparse-redist carrier (3), the dense argmin shape (5), and a
// mixed row (10). Every ordering is priced; only these hit the fabric.
var sparseProbeConfigs = []int{3, 5, 10}

// SparseRow is one (density, config) cell of the priced sweep.
type SparseRow struct {
	Density float64 `json:"density"`
	Live    int     `json:"live"` // live row count (0 = dense path)
	Config  int     `json:"config"`
	// Priced flat epoch figures for the plain (non-ABC) schedule.
	TimeSec   float64 `json:"time_sec"`
	RDMBytes  int64   `json:"rdm_bytes"`
	SideBytes int64   `json:"side_bytes"`
	// ABC figures for the aggregate-before-communicate rewrite of the
	// same schedule (equal to the plain figures when the rewrite finds
	// nothing to fuse).
	ABCTimeSec  float64 `json:"abc_time_sec"`
	ABCRDMBytes int64   `json:"abc_rdm_bytes"`
	// Exchange-leg accounting over the schedule's sparse-eligible
	// redistributions: what the dense protocol would ship for those ops
	// versus what the two-round sparse protocol ships (metadata rides
	// the side channel, payload the primary one).
	ExchangeDenseBytes   int64 `json:"exchange_dense_bytes"`
	ExchangeMetaBytes    int64 `json:"exchange_meta_bytes"`
	ExchangePayloadBytes int64 `json:"exchange_payload_bytes"`
	// Metered reports that a live fabric run reproduced the priced
	// volumes byte-for-byte (probe configs only).
	Metered bool `json:"metered"`
}

// SparseArgmin is the planner's choice at one density of the headline
// shape: the ordering (and whether the ABC rewrite is applied) with the
// minimum priced epoch time.
type SparseArgmin struct {
	Density float64 `json:"density"`
	Config  int     `json:"config"`
	ABC     bool    `json:"abc"`
	TimeSec float64 `json:"time_sec"`
	// Shift marks a choice differing from the dense argmin.
	Shift bool `json:"shift"`
}

// SparseResult is the machine-readable output of the sparse experiment.
type SparseResult struct {
	Dataset    string      `json:"dataset"`
	Scale      int         `json:"scale"`
	N          int         `json:"n"`
	Dims       []int       `json:"dims"`
	P          int         `json:"p"`
	NNZ        int64       `json:"nnz"`
	SparseSeed int64       `json:"sparse_seed"`
	Densities  []float64   `json:"densities"`
	Rows       []SparseRow `json:"rows"`
	// ExchangeReduction is dense/(meta+payload) for the probe ordering
	// at each density past 1.0 — the protocol's own volume win.
	ExchangeReduction []float64 `json:"exchange_reduction"`
	// Headline: at a bandwidth-dominated shape, the ordering argmin
	// (over all 16 configs, plain and ABC-rewritten) as density falls.
	HeadlineN    int            `json:"headline_n"`
	HeadlineDims []int          `json:"headline_dims"`
	HeadlineNNZ  int64          `json:"headline_nnz"`
	HeadlineP    int            `json:"headline_p"`
	DenseArgmin  SparseArgmin   `json:"dense_argmin"`
	Argmin       []SparseArgmin `json:"argmin"`
}

// sparseSpec builds the training spec for one (config, live) cell.
func sparseSpec(n int, dims []int, id, p, live int, sseed int64) plan.Spec {
	return plan.Spec{
		N: n, Dims: dims, Config: costmodel.ConfigFromID(id, len(dims)-1),
		P: p, RA: p, Memoize: true, InputGrad: true,
		Live: live, SparseSeed: sseed,
	}
}

// RunSparse sweeps feature density on a row-sparsified dataset, pricing
// all orderings and live-training the probe subset with meter==model
// enforcement, then prices the headline argmin-shift shape. See the
// file comment for the invariants enforced.
func RunSparse(cfg Config) (*SparseResult, error) {
	cfg = cfg.withDefaults()
	const layers = 2
	const sseed = 3
	p := cfg.GPUs[len(cfg.GPUs)-1]
	// A synthetic sparse-feature dataset shaped like the headline: wide
	// input features over a narrower hidden layer. n is scale-derived,
	// rounded to a multiple of the fabric size.
	n := 262144 / cfg.Scale
	if n < 64*p {
		n = 64 * p
	}
	n -= n % (64 * p)
	rec := graph.Recipe{
		Name: "SparseFeat", Vertices: n, Edges: int64(4 * n),
		FeatureDim: 192, Labels: 8, Kind: "planted", Signal: 0.8,
		HasSplits: true, Seed: 109,
	}
	g := rec.Build()
	base := &core.Problem{
		A: sparse.GCNNormalize(g.Adj), X: g.Features,
		Labels: g.Labels, TrainMask: g.TrainMask,
	}
	dims := []int{rec.FeatureDim, 128, rec.Labels}
	name := rec.Name
	nnz := base.A.NNZ()
	nc := costmodel.NumConfigs(layers)
	res := &SparseResult{
		Dataset: name, Scale: cfg.Scale, N: n, Dims: dims, P: p,
		NNZ: nnz, SparseSeed: sseed, Densities: SparseDensities,
	}

	cfg.printf("Sparsity-aware exchange: dataset=%s scale=1/%d n=%d dims=%v P=%d nnz=%d\n",
		name, cfg.Scale, n, dims, p, nnz)
	cfg.printf("%-8s %4s %12s %12s %12s %12s %12s %8s\n",
		"density", "cfg", "time(s)", "rdm bytes", "abc bytes", "exch dense", "exch sparse", "metered")

	probe := map[int]bool{}
	for _, id := range sparseProbeConfigs {
		probe[id] = true
	}
	var denseEquivalent *SparseRow // density-1.0 probe row, checked below
	var probeBytes []int64         // probe cfg 3 primary bytes per density
	for _, d := range SparseDensities {
		live := costmodel.LiveCount(n, d)
		if live >= n {
			live = 0 // density 1.0: the planner normalizes to the dense path
		}
		prob := base
		if live > 0 {
			// Keep only the canonical live set, so the engines' value scan
			// recovers exactly the planner's assumed set.
			sp := *base
			sp.X = dist.KeepRows(base.X, dist.GenRows(sseed, n, live))
			prob = &sp
		}
		for id := 0; id < nc; id++ {
			sched := plan.Compile(sparseSpec(n, dims, id, p, live, sseed)).Optimize()
			c := sched.Price(nnz, cfg.HW)
			abc := sched.ABC().Price(nnz, cfg.HW)
			exd, exm, exp := sched.SparseExchangeClosedForm(p, nil)
			row := SparseRow{
				Density: d, Live: live, Config: id,
				TimeSec: c.Time, RDMBytes: c.RDMBytes(), SideBytes: c.Side,
				ABCTimeSec: abc.Time, ABCRDMBytes: abc.RDMBytes(),
				ExchangeDenseBytes: exd, ExchangeMetaBytes: exm, ExchangePayloadBytes: exp,
			}
			if probe[id] {
				if err := meterSparseCell(cfg, prob, sparseSpec(n, dims, id, p, live, sseed), c); err != nil {
					return nil, err
				}
				row.Metered = true
			}
			if id == sparseProbeConfigs[0] {
				probeBytes = append(probeBytes, row.RDMBytes)
				if live == 0 {
					denseEquivalent = &row
				}
				if live > 0 && d <= 0.1 {
					r := float64(exd) / float64(exm+exp)
					if r < 2 {
						return nil, fmt.Errorf("sparse: exchange reduction %.2fx < 2x at density %g (dense=%d meta=%d pay=%d)",
							r, d, exd, exm, exp)
					}
				}
				if live > 0 {
					res.ExchangeReduction = append(res.ExchangeReduction, float64(exd)/float64(exm+exp))
				}
			}
			res.Rows = append(res.Rows, row)
			if probe[id] {
				cfg.printf("%-8.2f %4d %12.6f %12d %12d %12d %12d %8v\n",
					d, id, row.TimeSec, row.RDMBytes, row.ABCRDMBytes, exd, exm+exp, row.Metered)
			}
		}
	}
	// Dense equivalence at density 1.0: the sparse spec must have
	// compiled to the identical schedule as the dense one.
	if denseEquivalent == nil {
		return nil, fmt.Errorf("sparse: density sweep never hit the dense path")
	}
	full := plan.Compile(sparseSpec(n, dims, sparseProbeConfigs[0], p, costmodel.LiveCount(n, 1.0), sseed)).Optimize()
	dense := plan.Compile(sparseSpec(n, dims, sparseProbeConfigs[0], p, 0, sseed)).Optimize()
	if full.Live != 0 || full.String() != dense.String() {
		return nil, fmt.Errorf("sparse: density 1.0 schedule differs from dense")
	}
	// Bytes must fall strictly as density does (probe ordering).
	for i := 1; i < len(probeBytes); i++ {
		if probeBytes[i] >= probeBytes[i-1] {
			return nil, fmt.Errorf("sparse: primary bytes not strictly decreasing: %v", probeBytes)
		}
	}

	if err := runSparseHeadline(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// meterSparseCell trains one epoch of the cell on the live fabric and
// asserts the meters equal the priced volumes byte-for-byte.
func meterSparseCell(cfg Config, prob *core.Problem, sp plan.Spec, c plan.Cost) error {
	o := core.Options{
		Dims: sp.Dims, Config: sp.Config, Memoize: true, ComputeInputGrad: true,
		LR: 0.01, Seed: 7, RA: sp.RA, Live: sp.Live, SparseSeed: sp.SparseSeed,
	}
	fab := comm.NewFabric(sp.P, cfg.HW)
	fab.Run(func(dev *comm.Device) {
		eng := core.NewEngine(dev, prob, o)
		eng.Epoch()
	})
	if err := verify.MetersMatchPrice(fab.Meters(), c); err != nil {
		return fmt.Errorf("sparse cfg%02d live=%d: %w", sp.Config.ID(), sp.Live, err)
	}
	return nil
}

// runSparseHeadline prices the argmin-shift shape: wide input features
// over a narrower hidden layer at bandwidth-dominated scale, where the
// dense planner keeps aggregation first (shipping n x f0 tiles) but a
// sparse input makes transform-first plus the ABC exchange cheaper.
func runSparseHeadline(cfg Config, res *SparseResult) error {
	const hn, hp = 262144, 8
	hdims := []int{192, 128, 8}
	hnnz := int64(86 * hn / 10) // DefaultProblem-like degree
	res.HeadlineN, res.HeadlineDims, res.HeadlineNNZ, res.HeadlineP = hn, hdims, hnnz, hp
	nc := costmodel.NumConfigs(len(hdims) - 1)
	argmin := func(live int) SparseArgmin {
		best := SparseArgmin{Config: -1}
		for id := 0; id < nc; id++ {
			sched := plan.Compile(sparseSpec(hn, hdims, id, hp, live, res.SparseSeed)).Optimize()
			for _, abc := range []bool{false, true} {
				s := sched
				if abc {
					s = s.ABC()
				}
				t := s.Price(hnnz, cfg.HW).Time
				if best.Config < 0 || t < best.TimeSec {
					best = SparseArgmin{Config: id, ABC: abc, TimeSec: t}
				}
			}
		}
		return best
	}
	res.DenseArgmin = argmin(0)
	res.DenseArgmin.Density = 1.0
	cfg.printf("\nHeadline shape n=%d dims=%v P=%d nnz=%d: dense argmin cfg%02d (abc=%v, %.4gs)\n",
		hn, hdims, hp, hnnz, res.DenseArgmin.Config, res.DenseArgmin.ABC, res.DenseArgmin.TimeSec)
	shifted := false
	for _, d := range SparseDensities[1:] {
		a := argmin(costmodel.LiveCount(hn, d))
		a.Density = d
		a.Shift = a.Config != res.DenseArgmin.Config || a.ABC != res.DenseArgmin.ABC
		if a.Shift {
			shifted = true
		}
		res.Argmin = append(res.Argmin, a)
		cfg.printf("  density %.2f: argmin cfg%02d (abc=%v, %.4gs)%s\n",
			d, a.Config, a.ABC, a.TimeSec, map[bool]string{true: "  <-- shift"}[a.Shift])
	}
	if !shifted {
		return fmt.Errorf("sparse: planner argmin never shifted from dense choice cfg%02d", res.DenseArgmin.Config)
	}
	return nil
}
