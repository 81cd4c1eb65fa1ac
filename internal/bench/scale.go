package bench

// This file is the discrete-event scale experiment: the full 16-config
// Table IV sweep replayed on the sim backend (internal/sim) at device
// counts the goroutine-per-device fabric could never reach — P up to
// 65536 — on the flat interconnect and hierarchical NVLink/IB machines,
// producing Fig. 12-style compute-vs-communication crossover curves at
// scale. The runner enforces its own invariants cell by cell: every
// simulated clock must equal plan.PriceDAGEpochs bit-for-bit (the same
// pricer the live fabric is differentially pinned against at small P),
// and each (P, topology) sweep must finish inside a wall-clock budget
// that grows monotonically with P. The result marshals to
// BENCH_scale.json via rdmbench -json.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sim"
	"gnnrdm/internal/topo"
)

// ScalePoint is one (device count, interconnect) cell of the sweep.
type ScalePoint struct {
	P int `json:"p"`
	// Topo is "flat" or a canonical topo.Spec string.
	Topo string `json:"topology"`
}

// String renders the point in the scale-spec grammar.
func (pt ScalePoint) String() string { return fmt.Sprintf("%d@%s", pt.P, pt.Topo) }

// DefaultScaleSpec is the sweep: P ∈ {256, 1024, 4096, 16384, 65536},
// each on the flat fabric and an 8-GPU-per-node NVLink/IB machine. The
// two largest points joined once planner pricing stopped being
// quadratic in P (the whole spec runs in under half a minute).
const DefaultScaleSpec = "256;1024;4096;16384;65536"

// maxScaleP bounds the grammar so a fuzzed or mistyped spec cannot ask
// for worlds past anything the engine is sized for; it matches the topo
// package's device limit so the default hierarchical expansion of any
// accepted P is itself a legal interconnect.
const maxScaleP = 1 << 16

// ParseScaleSpec parses the scale sweep grammar:
//
//	spec  := point (";" point)*
//	point := P | P "@" "flat" | P "@" topoSpec
//
// A bare P expands to the default interconnect set for that device
// count: the flat fabric plus, when P is a multiple of 8 with at least
// two nodes, the (P/8)x8:nvlink,ib reference machine. Topology specs
// are canonicalized (topo.ParseSpec / Spec.String), so
// FormatScaleSpec(ParseScaleSpec(s)) reparses to the same points.
func ParseScaleSpec(s string) ([]ScalePoint, error) {
	var pts []ScalePoint
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("scale spec: empty entry in %q", s)
		}
		pStr, topoStr, hasTopo := strings.Cut(entry, "@")
		p, err := strconv.Atoi(strings.TrimSpace(pStr))
		if err != nil || p < 1 || p > maxScaleP {
			return nil, fmt.Errorf("scale spec: device count %q is not in 1..%d", pStr, maxScaleP)
		}
		if !hasTopo {
			pts = append(pts, ScalePoint{P: p, Topo: "flat"})
			if p >= 16 && p%8 == 0 {
				pts = append(pts, ScalePoint{P: p, Topo: fmt.Sprintf("%dx8:nvlink,ib", p/8)})
			}
			continue
		}
		topoStr = strings.TrimSpace(topoStr)
		if topoStr == "flat" {
			pts = append(pts, ScalePoint{P: p, Topo: "flat"})
			continue
		}
		sp, err := topo.ParseSpec(topoStr)
		if err != nil {
			return nil, fmt.Errorf("scale spec: %v", err)
		}
		if sp.Devices() < p {
			return nil, fmt.Errorf("scale spec: %s has %d devices, fewer than P=%d",
				sp, sp.Devices(), p)
		}
		pts = append(pts, ScalePoint{P: p, Topo: sp.String()})
	}
	return pts, nil
}

// FormatScaleSpec renders points back in the grammar ParseScaleSpec
// accepts (every point explicit, no default expansion).
func FormatScaleSpec(pts []ScalePoint) string {
	parts := make([]string, len(pts))
	for i, pt := range pts {
		parts[i] = pt.String()
	}
	return strings.Join(parts, ";")
}

// ScaleRow is one (P, topology, config) simulated measurement. Comm and
// compute seconds come from the sequential replay (the Fig. 12
// decomposition: the two add up to the epoch), bytes from the sim's
// per-tier meter census.
type ScaleRow struct {
	P               int     `json:"p"`
	Topology        string  `json:"topology"`
	Config          int     `json:"config"`
	SeqEpochSec     float64 `json:"seq_epoch_sec"`
	OverlapEpochSec float64 `json:"overlap_epoch_sec"`
	CommSec         float64 `json:"comm_sec"`
	ComputeSec      float64 `json:"compute_sec"`
	IntraBytes      int64   `json:"intra_bytes"`
	InterBytes      int64   `json:"inter_bytes"`
}

// ScaleCell summarizes one (P, topology) 16-config sweep: the winning
// ordering under each executor, the communication share at the winner,
// and the runner-enforced wall budget.
type ScaleCell struct {
	P            int     `json:"p"`
	Topology     string  `json:"topology"`
	BestConfig   int     `json:"best_config"` // argmin overlap epoch
	BestEpochSec float64 `json:"best_epoch_sec"`
	SeqBest      int     `json:"seq_best_config"`
	CommFrac     float64 `json:"comm_frac"`    // comm share at BestConfig, sequential decomposition
	OverlapGain  float64 `json:"overlap_gain"` // seq epoch / overlap epoch at BestConfig
	WallSec      float64 `json:"wall_sec"`
	BudgetSec    float64 `json:"budget_sec"`
}

// ScaleCurve is the Fig. 12-style crossover record for one
// interconnect family across the P sweep: the per-P winning ordering
// and its communication fraction, the first P where the best
// configuration turns communication-bound (comm > compute), and
// whether the Table IV argmin itself shifts with scale.
type ScaleCurve struct {
	Family      string    `json:"family"` // "flat" or "hier"
	Ps          []int     `json:"ps"`
	BestConfigs []int     `json:"best_configs"`
	CommFracs   []float64 `json:"comm_fracs"`
	// CommBoundP is the first swept P whose best config spends more
	// epoch time communicating than computing; 0 if none does.
	CommBoundP int `json:"comm_bound_p"`
	// ConfigShift reports whether the winning ordering changes across
	// the sweep — the crossover question the paper's 8-GPU testbed
	// could not ask.
	ConfigShift bool `json:"config_shift"`
}

// ScaleResult is the machine-readable output of the scale experiment.
type ScaleResult struct {
	N      int          `json:"n"`
	NNZ    int64        `json:"nnz"`
	Dims   []int        `json:"dims"`
	Epochs int          `json:"epochs"`
	Points []ScalePoint `json:"points"`
	Rows   []ScaleRow   `json:"rows"`
	Cells  []ScaleCell  `json:"cells"`
	Curves []ScaleCurve `json:"curves"`
}

// scaleBudget is the wall-clock allowance for one (P, topology) sweep
// of all 16 configs under both executors. It grows linearly in P, so
// the budget sequence over any ascending sweep is monotone by
// construction; the runner fails the experiment if a cell exceeds it.
func scaleBudget(p int) float64 { return 20 + float64(float64(p)/64) }

// scaleShape is the synthetic paper-scale problem the sweep prices:
// big enough that every rank owns rows at P=65536, fixed so the sweep
// is a pure function of (P, topology, config).
const (
	scaleN      = 1 << 18
	scaleHidden = 128
	scaleLabels = 32
	scaleFeat   = 64
)

// RunScale sweeps all 16 Table IV orderings at each scale point on the
// discrete-event backend, enforcing sim clocks == plan.PriceDAGEpochs
// bit-exact in every cell and a monotone wall-time budget per (P,
// topology) sweep. The text rendering goes to cfg.Out; the returned
// struct is what rdmbench -json serializes into BENCH_scale.json.
func RunScale(cfg Config, spec string) (*ScaleResult, error) {
	cfg = cfg.withDefaults()
	if spec == "" {
		spec = DefaultScaleSpec
	}
	pts, err := ParseScaleSpec(spec)
	if err != nil {
		return nil, err
	}
	dims := []int{scaleFeat, scaleHidden, scaleLabels}
	layers := len(dims) - 1
	nnz := int64(8 * scaleN)
	res := &ScaleResult{
		N: scaleN, NNZ: nnz, Dims: dims, Epochs: cfg.Epochs, Points: pts,
	}

	cfg.printf("Discrete-event scale sweep (engine=sim): n=%d nnz=%d dims=%v epochs=%d points=%s\n",
		scaleN, nnz, dims, cfg.Epochs, FormatScaleSpec(pts))
	cfg.printf("%-18s %5s %4s %12s %12s %7s %16s %16s\n",
		"topology", "P", "cfg", "seq(s)", "overlap(s)", "comm%", "intra(B)", "inter(B)")

	for _, pt := range pts {
		var tp *topo.Topology
		if pt.Topo != "flat" {
			sp, err := topo.ParseSpec(pt.Topo)
			if err != nil {
				return nil, err
			}
			if tp, err = sp.Topology(pt.P); err != nil {
				return nil, err
			}
		}
		cell, rows, err := runScaleCell(cfg, pt, tp, dims, layers, nnz)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			cfg.printf("%-18s %5d %4d %12.6f %12.6f %6.1f%% %16d %16d\n",
				row.Topology, row.P, row.Config, row.SeqEpochSec, row.OverlapEpochSec,
				100*row.CommSec/(row.CommSec+row.ComputeSec), row.IntraBytes, row.InterBytes)
		}
		res.Rows = append(res.Rows, rows...)
		res.Cells = append(res.Cells, cell)
		cfg.printf("%-18s %5d best: overlap=cfg%d @%.6fs seq=cfg%d comm%%=%.1f gain=%.3fx wall=%.1fs budget=%.0fs\n",
			pt.Topo, pt.P, cell.BestConfig, cell.BestEpochSec, cell.SeqBest,
			100*cell.CommFrac, cell.OverlapGain, cell.WallSec, cell.BudgetSec)
	}

	res.Curves = scaleCurves(res.Cells)
	for _, c := range res.Curves {
		cfg.printf("crossover %-5s P=%v best=%v comm%%=", c.Family, c.Ps, c.BestConfigs)
		for i, f := range c.CommFracs {
			if i > 0 {
				cfg.printf(",")
			}
			cfg.printf("%.1f", 100*f)
		}
		cfg.printf(" comm_bound_at_P=%d config_shift=%v\n", c.CommBoundP, c.ConfigShift)
	}
	return res, nil
}

// runScaleCell sweeps the 16 orderings for one (P, topology) point,
// enforcing the clock and wall-budget invariants.
func runScaleCell(cfg Config, pt ScalePoint, tp *topo.Topology, dims []int, layers int, nnz int64) (ScaleCell, []ScaleRow, error) {
	start := time.Now()
	pc := plan.NewPriceCache()
	cell := ScaleCell{
		P: pt.P, Topology: pt.Topo,
		BestConfig: -1, SeqBest: -1, BudgetSec: scaleBudget(pt.P),
	}
	var rows []ScaleRow
	var bestSeq float64
	var bestCommFrac, bestSeqEpoch float64
	for id := 0; id < costmodel.NumConfigs(layers); id++ {
		s := plan.Compile(plan.Spec{
			N: scaleN, Dims: dims, Config: costmodel.ConfigFromID(id, layers),
			P: pt.P, RA: pt.P, Memoize: true,
		}).Optimize()
		d, err := plan.BuildDAG(s)
		if err != nil {
			return cell, nil, err
		}
		cen := s.ApproxCensus(nnz)
		cost := d.PriceDAGEpochsCached(cen, cfg.HW, tp, cfg.Epochs, pc)
		row := ScaleRow{P: pt.P, Topology: pt.Topo, Config: id}
		for _, overlap := range []bool{false, true} {
			sr := sim.MustRun(sim.Config{
				DAG: d, Census: cen, HW: cfg.HW, Topology: tp,
				Epochs: cfg.Epochs, Overlap: overlap, Cache: pc,
			})
			// PriceDAG* and sim.Run are two views of plan's one replay
			// engine, so this holds by construction; it guards the
			// pricer's engine reuse across executors and the shared
			// PriceCache against drifting from a fresh run.
			want := cost.PerDeviceSeq
			if overlap {
				want = cost.PerDevice
			}
			for r := range want {
				if sr.Clocks[r] != want[r] {
					return cell, nil, fmt.Errorf(
						"scale %s P=%d cfg=%d overlap=%v: sim clock[%d]=%.17g != PriceDAGEpochs %.17g",
						pt.Topo, pt.P, id, overlap, r, sr.Clocks[r], want[r])
				}
			}
			if overlap {
				row.OverlapEpochSec = sr.MaxClock() / float64(cfg.Epochs)
				continue
			}
			row.SeqEpochSec = sr.MaxClock() / float64(cfg.Epochs)
			var comm, comp float64
			for r := 0; r < pt.P; r++ {
				comm = max(comm, sr.CommTime[r])
				comp = max(comp, sr.ComputeTime[r])
			}
			row.CommSec = comm / float64(cfg.Epochs)
			row.ComputeSec = comp / float64(cfg.Epochs)
			for k := range hw.NumCollectiveKinds {
				row.IntraBytes += sr.Meters.TierVolume[topo.TierIntra][k] + sr.Meters.SideTierVolume[topo.TierIntra][k]
				row.InterBytes += sr.Meters.TierVolume[topo.TierInter][k] + sr.Meters.SideTierVolume[topo.TierInter][k]
			}
		}
		rows = append(rows, row)
		if cell.BestConfig < 0 || row.OverlapEpochSec < cell.BestEpochSec {
			cell.BestConfig, cell.BestEpochSec = id, row.OverlapEpochSec
			bestCommFrac = row.CommSec / (row.CommSec + row.ComputeSec)
			bestSeqEpoch = row.SeqEpochSec
		}
		if cell.SeqBest < 0 || row.SeqEpochSec < bestSeq {
			cell.SeqBest, bestSeq = id, row.SeqEpochSec
		}
	}
	cell.CommFrac = bestCommFrac
	if cell.BestEpochSec > 0 {
		cell.OverlapGain = bestSeqEpoch / cell.BestEpochSec
	}
	cell.WallSec = time.Since(start).Seconds()
	if cell.WallSec > cell.BudgetSec {
		return cell, nil, fmt.Errorf(
			"scale %s P=%d: 16-config sweep took %.1fs, over the %.0fs budget — the discrete-event path regressed",
			pt.Topo, pt.P, cell.WallSec, cell.BudgetSec)
	}
	return cell, rows, nil
}

// scaleCurves folds the per-cell summaries into one crossover curve per
// interconnect family ("flat" vs hierarchical), in sweep order.
func scaleCurves(cells []ScaleCell) []ScaleCurve {
	byFamily := map[string]*ScaleCurve{}
	var order []string
	for _, c := range cells {
		fam := "hier"
		if c.Topology == "flat" {
			fam = "flat"
		}
		cur, ok := byFamily[fam]
		if !ok {
			cur = &ScaleCurve{Family: fam}
			byFamily[fam] = cur
			order = append(order, fam)
		}
		cur.Ps = append(cur.Ps, c.P)
		cur.BestConfigs = append(cur.BestConfigs, c.BestConfig)
		cur.CommFracs = append(cur.CommFracs, c.CommFrac)
		if cur.CommBoundP == 0 && c.CommFrac > 0.5 {
			cur.CommBoundP = c.P
		}
		if len(cur.BestConfigs) > 1 && c.BestConfig != cur.BestConfigs[0] {
			cur.ConfigShift = true
		}
	}
	out := make([]ScaleCurve, 0, len(order))
	for _, fam := range order {
		out = append(out, *byFamily[fam])
	}
	return out
}
