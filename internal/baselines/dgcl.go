package baselines

import (
	"slices"
	"sort"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
)

// Partition assigns each vertex to one of p parts with the LDG (linear
// deterministic greedy) streaming heuristic in BFS order: each vertex
// goes to the part holding most of its neighbours, discounted by how full
// the part is, under a hard 1.1x balance cap. Deterministic.
func Partition(adj *sparse.CSR, p int) []int32 {
	n := adj.Rows
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	sizes := make([]int, p)
	capacity := (n*11)/(10*p) + 1

	// BFS order with restarts (deterministic: lowest unvisited vertex).
	order := make([]int32, 0, n)
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		visited[start] = true
		queue = append(queue[:0], int32(start))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for e := adj.RowPtr[v]; e < adj.RowPtr[v+1]; e++ {
				u := adj.ColIdx[e]
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}

	for _, v := range order {
		bestPart, bestScore := -1, -1.0
		for q := 0; q < p; q++ {
			if sizes[q] >= capacity {
				continue
			}
			nbrs := 0
			for e := adj.RowPtr[v]; e < adj.RowPtr[v+1]; e++ {
				if assign[adj.ColIdx[e]] == int32(q) {
					nbrs++
				}
			}
			score := float64(nbrs+1) * (1 - float64(sizes[q])/float64(capacity))
			if score > bestScore {
				bestPart, bestScore = q, score
			}
		}
		assign[v] = int32(bestPart)
		sizes[bestPart]++
	}
	return assign
}

// EdgeCut counts the stored adjacency entries whose endpoints live in
// different parts.
func EdgeCut(adj *sparse.CSR, assign []int32) int64 {
	var cut int64
	for i := 0; i < adj.Rows; i++ {
		for e := adj.RowPtr[i]; e < adj.RowPtr[i+1]; e++ {
			if assign[i] != assign[adj.ColIdx[e]] {
				cut++
			}
		}
	}
	return cut
}

// PermuteProblem reorders a problem so each part's vertices are
// contiguous (part-major, original order within a part), returning the
// permuted problem, the per-part boundaries (len p+1), and perm with
// perm[new] = old.
func PermuteProblem(prob *core.Problem, assign []int32, p int) (*core.Problem, []int, []int32) {
	bounds := make([]int, p+1)
	for _, q := range assign {
		bounds[q+1]++
	}
	for q := range p {
		bounds[q+1] += bounds[q]
	}
	next := slices.Clone(bounds[:p])
	perm := make([]int32, len(assign))
	inv := make([]int, len(assign))
	for v, q := range assign {
		inv[v] = next[q]
		perm[next[q]] = int32(v)
		next[q]++
	}
	return prob.Permute(inv), bounds, perm
}

// dgclAgg implements partition-based aggregation: each SpMM exchanges
// only the boundary ("halo") features crossed by cut edges, so
// communication volume is edgeCutFraction·N·f-like — small for few
// parts, growing with P.
type dgclAgg struct {
	dev    *comm.Device
	lo, hi int
	// needFrom[s] lists (global, permuted) vertex IDs owned by s that my
	// panel's rows reference; sendTo[s] lists my vertices s needs.
	needFrom, sendTo [][]int32
	// panelExt is my adjacency rows with columns remapped to
	// [own | halo-by-(owner,index)] local indices.
	panelExt *sparse.CSR
	extRows  int
}

func newDGCLAgg(dev *comm.Device, a *sparse.CSR, bounds []int) *dgclAgg {
	p := dev.P()
	ag := &dgclAgg{dev: dev, lo: bounds[dev.Rank], hi: bounds[dev.Rank+1]}
	owner := func(v int32) int {
		return sort.SearchInts(bounds[1:], int(v)+1)
	}
	// Collect halo needs per owner.
	needSet := make([]map[int32]bool, p)
	for s := range needSet {
		needSet[s] = make(map[int32]bool)
	}
	for i := ag.lo; i < ag.hi; i++ {
		for e := a.RowPtr[i]; e < a.RowPtr[i+1]; e++ {
			c := a.ColIdx[e]
			if int(c) < ag.lo || int(c) >= ag.hi {
				needSet[owner(c)][c] = true
			}
		}
	}
	ag.needFrom = make([][]int32, p)
	extIdx := make(map[int32]int32)
	own := ag.hi - ag.lo
	next := int32(own)
	for s := 0; s < p; s++ {
		ids := make([]int32, 0, len(needSet[s]))
		for v := range needSet[s] {
			ids = append(ids, v)
		}
		slices.Sort(ids)
		ag.needFrom[s] = ids
		for _, v := range ids {
			extIdx[v] = next
			next++
		}
	}
	ag.extRows = int(next)
	// Remap my panel.
	panel := a.RowPanel(ag.lo, ag.hi)
	remapped := &sparse.CSR{
		Rows: panel.Rows, Cols: ag.extRows,
		RowPtr: panel.RowPtr,
		ColIdx: make([]int32, len(panel.ColIdx)),
		Val:    panel.Val,
	}
	for i, c := range panel.ColIdx {
		if int(c) >= ag.lo && int(c) < ag.hi {
			remapped.ColIdx[i] = c - int32(ag.lo)
		} else {
			remapped.ColIdx[i] = extIdx[c]
		}
	}
	ag.panelExt = remapped

	// Exchange need lists so every device knows what to send. The lists
	// are metadata exchanged once at setup (like DGCL's partition plan);
	// we ship them through the fabric so the volume is accounted.
	ag.sendTo = make([][]int32, p)
	parts := make([][]float32, p)
	for q := 0; q < p; q++ {
		ids := ag.needFrom[q]
		buf := make([]float32, len(ids))
		for i, v := range ids {
			buf[i] = float32(v)
		}
		parts[q] = buf
	}
	recv := dev.AllToAll(dev.World(), parts)
	for q := 0; q < p; q++ {
		ids := make([]int32, len(recv[q]))
		for i, v := range recv[q] {
			ids[i] = int32(v)
		}
		ag.sendTo[q] = ids
	}
	return ag
}

func (ag *dgclAgg) OwnRange() (int, int) { return ag.lo, ag.hi }

func (ag *dgclAgg) Aggregate(x *tensor.Dense) *tensor.Dense {
	dev := ag.dev
	p := dev.P()
	f := x.Cols
	// Halo exchange: pack requested rows per destination.
	parts := make([][]float32, p)
	for s := 0; s < p; s++ {
		ids := ag.sendTo[s]
		if len(ids) == 0 {
			continue
		}
		buf := make([]float32, 0, len(ids)*f)
		for _, v := range ids {
			buf = append(buf, x.Row(int(v)-ag.lo)...)
		}
		parts[s] = buf
	}
	recv := dev.AllToAll(dev.World(), parts)
	ext := tensor.NewDense(ag.extRows, f)
	ext.SetRowSlice(0, x)
	at := ag.hi - ag.lo
	for s := 0; s < p; s++ {
		ids := ag.needFrom[s]
		if len(ids) == 0 {
			continue
		}
		if len(recv[s]) != len(ids)*f {
			panic("baselines: dgcl halo size mismatch")
		}
		copy(ext.Data[at*f:], recv[s])
		at += len(ids)
	}
	dev.ChargeMem(ext.Bytes())
	out := ag.panelExt.SpMM(ext)
	dev.ChargeSpMM(ag.panelExt.NNZ(), f)
	return out
}

// TrainDGCL trains a full-batch GCN with the DGCL-like partition-based
// baseline. The problem is partitioned and permuted internally; the
// returned logits are restored to the original vertex order.
func TrainDGCL(p int, model *hw.Model, prob *core.Problem, opts Options, epochs int) *core.Result {
	opts = opts.withDefaults()
	if opts.Dims[0] != prob.X.Cols {
		panic("baselines: Dims[0] must equal feature width")
	}
	assign := Partition(prob.A, p)
	permProb, bounds, perm := PermuteProblem(prob, assign, p)
	label := opts.TraceLabel
	if label == "" {
		label = "dgcl"
	}
	res := runHarness(p, model, epochs, prob.N(), opts.Dims[len(opts.Dims)-1],
		opts.Tracer, label,
		func(dev *comm.Device) *vertexTrainer {
			return newVertexTrainer(dev, permProb, opts, newDGCLAgg(dev, permProb.A, bounds))
		})
	// Un-permute logits to original vertex order.
	orig := tensor.NewDense(res.Logits.Rows, res.Logits.Cols)
	for newID, old := range perm {
		copy(orig.Row(int(old)), res.Logits.Row(newID))
	}
	res.Logits = orig
	return res
}
