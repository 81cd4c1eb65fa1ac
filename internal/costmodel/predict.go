package costmodel

import "gnnrdm/internal/hw"

// PredictEpochTime combines the communication/computation counts of the
// analytic model with a hardware model into a predicted per-epoch time
// for distributed RDM training. It extends the paper's model (which only
// ranks configurations by counts) to absolute seconds, enabling direct
// model-versus-simulator comparisons (tested to agree within a small
// factor; the simulator remains the measurement of record).
//
// Approximations: redistribution elements are charged as all-to-all
// exchanges whose busiest device injects 1/P of each step's volume, with
// one step per redistribution the model counted (≈ 2L+2 steps);
// R_A broadcasts are allgathers within column groups; every SpMM
// processes NNZ·R_A/P stored entries at its width/R_A slice; GEMMs
// process N/P rows (forward + backward + weight gradient ≈ 3 per layer);
// weight gradients add one all-reduce per layer.
func PredictEpochTime(n Network, c Config, h *hw.Model) float64 {
	n.validate()
	cost := Evaluate(n, c)
	p := float64(n.P)

	// Split the modelled elements into redistribution and broadcast
	// shares: the broadcast share is (P/RA - 1)·N per sparse unit.
	bcastElems := float64(float64(n.P/n.RA-1) * float64(n.N) * cost.SparseUnits)
	redistElems := cost.CommElems - bcastElems

	var comm float64
	if redistElems > 0 {
		steps := float64(2*n.Layers() + 2)
		perStepInject := int64(redistElems * 4 / p / steps)
		comm += float64(steps * h.CollectiveTime(hw.OpAllToAll, n.P, perStepInject))
	}
	if n.RA < n.P {
		// One allgather per SpMM within a column group of size P/RA,
		// gathering an N x (width/RA) slice; two SpMMs per layer
		// (forward + backward) at roughly the smaller layer width.
		for l := 1; l <= n.Layers(); l++ {
			w := float64(minInt(n.Dims[l-1], n.Dims[l])) / float64(n.RA)
			buf := int64(float64(n.N) * w * 4)
			comm += 2 * h.CollectiveTime(hw.OpAllGather, n.P/n.RA, buf)
		}
	}
	for l := 1; l <= n.Layers(); l++ {
		comm += h.CollectiveTime(hw.OpAllReduce, n.P, int64(n.Dims[l-1])*int64(n.Dims[l])*4)
	}

	// SparseUnits counts width-weighted nnz passes; convert to time at
	// the mean slice width of this network.
	perDevNNZ := n.NNZ * int64(n.RA) / int64(n.P)
	meanWidth := averageWidth(n)
	spmmWidth := meanWidth / n.RA
	if spmmWidth < 1 {
		spmmWidth = 1
	}
	compute := cost.SparseUnits / float64(meanWidth) * h.SpMMTime(perDevNNZ, spmmWidth)
	rows := int(n.N / int64(n.P))
	for l := 1; l <= n.Layers(); l++ {
		compute += float64(3 * h.GemmTime(rows, n.Dims[l-1], n.Dims[l]))
	}
	return comm + compute
}

func averageWidth(n Network) int {
	s := 0
	for _, d := range n.Dims {
		s += d
	}
	return s / len(n.Dims)
}
