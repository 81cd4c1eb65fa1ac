package saint

import (
	"math/rand"
	"slices"

	"gnnrdm/internal/sparse"
)

// NeighborMaskProvider implements the masked-SpMM sampling path of
// §III-F for samplers that do not build explicit subgraphs: every epoch,
// each vertex keeps at most `fanout` of its neighbors, sampled without
// replacement. The per-row RNG is seeded with (seed, epoch, row), so
// every replica of a row panel generates an identical mask without any
// communication — the paper's shared-seed optimization.
//
// The returned function plugs into core.Options.MaskProvider.
func NeighborMaskProvider(adj *sparse.CSR, fanout int, seed int64) func(epoch, rowLo, rowHi int) [][]int32 {
	if fanout < 1 {
		panic("saint: fanout must be positive")
	}
	return func(epoch, rowLo, rowHi int) [][]int32 {
		masks := make([][]int32, rowHi-rowLo)
		for r := rowLo; r < rowHi; r++ {
			lo, hi := adj.RowPtr[r], adj.RowPtr[r+1]
			deg := int(hi - lo)
			if deg <= fanout {
				masks[r-rowLo] = nil // keep all
				continue
			}
			rng := rand.New(rand.NewSource(rowSeed(seed, epoch, r)))
			// Partial Fisher-Yates over neighbor positions.
			idx := make([]int32, deg)
			for i := range idx {
				idx[i] = int32(i)
			}
			picked := make([]int32, fanout)
			for i := 0; i < fanout; i++ {
				j := i + rng.Intn(deg-i)
				idx[i], idx[j] = idx[j], idx[i]
				picked[i] = adj.ColIdx[lo+int64(idx[i])]
			}
			slices.Sort(picked)
			masks[r-rowLo] = picked
		}
		return masks
	}
}

// MaskedAdjacency materializes the sampled operator for one epoch as an
// explicit CSR (the single-address-space reference for testing masked
// distributed training).
func MaskedAdjacency(adj *sparse.CSR, fanout int, seed int64, epoch int) *sparse.CSR {
	provider := NeighborMaskProvider(adj, fanout, seed)
	masks := provider(epoch, 0, adj.Rows)
	out := sparse.NewEmpty(adj.Rows, adj.Cols)
	for r := 0; r < adj.Rows; r++ {
		lo, hi := adj.RowPtr[r], adj.RowPtr[r+1]
		allowed := masks[r]
		k := 0
		for p := lo; p < hi; p++ {
			c := adj.ColIdx[p]
			if allowed != nil {
				for k < len(allowed) && allowed[k] < c {
					k++
				}
				if k >= len(allowed) || allowed[k] != c {
					continue
				}
			}
			out.ColIdx = append(out.ColIdx, c)
			out.Val = append(out.Val, adj.Val[p])
		}
		out.RowPtr[r+1] = int64(len(out.ColIdx))
	}
	return out
}

// rowSeed mixes (seed, epoch, row) into a per-row RNG seed
// (splitmix64-style finalizer).
func rowSeed(seed int64, epoch, row int) int64 {
	z := uint64(seed) ^ uint64(epoch)*0x9E3779B97F4A7C15 ^ uint64(row)*0xBF58476D1CE4E5B9
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}
