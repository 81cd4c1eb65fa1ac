package bench

import (
	"math"

	"gnnrdm/internal/baselines"
	"gnnrdm/internal/comm"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/tensor"
)

// SpMMKernelRow compares the communicated volume and modelled time of
// one distributed SpMM C = A·B across the algorithm families: RDM's
// communication-free vertical scheme (plus the redistribution in/out
// that RDM charges between stages), CAGNET 1D/1.5D gathers, and 2D
// SUMMA.
type SpMMKernelRow struct {
	Dataset string
	P       int
	// Bytes moved for one SpMM (RDM includes one H->V and one V->H
	// redistribution, its per-stage overhead).
	RDMBytes, C1DBytes, C15DBytes, C2DBytes int64
	// Simulated seconds.
	RDMTime, C1DTime, C15DTime, C2DTime float64
}

// RunSpMMKernels runs the kernel-level SpMM comparison at hidden width
// 128 (CAGNET's own evaluation style). The 2D entry is only produced
// when P is a perfect square.
func RunSpMMKernels(cfg Config) ([]SpMMKernelRow, error) {
	cfg = cfg.withDefaults()
	const f = 128
	cfg.printf("Distributed SpMM kernel comparison, f=%d (scale=1/%d): MB moved / sim ms\n", f, cfg.Scale)
	cfg.printf("%-14s %4s %16s %16s %16s %16s\n", "dataset", "P", "RDM", "CAGNET-1D", "CAGNET-1.5D", "CAGNET-2D")
	var rows []SpMMKernelRow
	for _, name := range cfg.Datasets {
		w, err := BuildWorkload(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		a := w.Prob.A
		global := tensor.NewDense(a.Rows, f)
		for i := range global.Data {
			global.Data[i] = float32(i%97) / 97
		}
		for _, p := range cfg.GPUs {
			row := SpMMKernelRow{Dataset: name, P: p}

			// RDM: redistribute H->V, communication-free SpMM (full A
			// replicated), V->H back.
			fab := comm.Run(p, cfg.HW, func(d *comm.Device) {
				m := dist.Distribute(d, dist.H, global)
				v := m.Redistribute(dist.V)
				local := a.SpMM(v.Local)
				d.ChargeSpMM(a.NNZ(), v.Local.Cols)
				dist.FromLocal(d, dist.V, a.Rows, f, local).Redistribute(dist.H)
			})
			row.RDMBytes, row.RDMTime = fab.TotalVolume(), fab.MaxClock()

			// CAGNET 1D and 1.5D gathers via the training aggregator.
			for _, c := range []int{1, 2} {
				if p%c != 0 {
					continue
				}
				fab := comm.Run(p, cfg.HW, func(d *comm.Device) {
					ag := baselines.NewAggregator(d, a, c)
					lo, hi := ag.OwnRange()
					ag.Aggregate(global.RowSlice(lo, hi))
				})
				if c == 1 {
					row.C1DBytes, row.C1DTime = fab.TotalVolume(), fab.MaxClock()
				} else {
					row.C15DBytes, row.C15DTime = fab.TotalVolume(), fab.MaxClock()
				}
			}

			// CAGNET 2D SUMMA (square P only).
			if q := int(math.Round(math.Sqrt(float64(p)))); q*q == p {
				fab := comm.Run(p, cfg.HW, func(d *comm.Device) {
					g := baselines.NewCAGNET2D(d, a)
					g.SpMM(baselines.Distribute2D(d, global), f)
				})
				row.C2DBytes, row.C2DTime = fab.TotalVolume(), fab.MaxClock()
			}
			rows = append(rows, row)
			cfg.printf("%-14s %4d %9.1f/%6.2f %9.1f/%6.2f %9.1f/%6.2f %9.1f/%6.2f\n",
				name, p,
				mb(row.RDMBytes), row.RDMTime*1e3,
				mb(row.C1DBytes), row.C1DTime*1e3,
				mb(row.C15DBytes), row.C15DTime*1e3,
				mb(row.C2DBytes), row.C2DTime*1e3)
		}
	}
	return rows, nil
}
