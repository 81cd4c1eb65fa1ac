// Package saint implements GraphSAINT (Zeng et al., ICLR'20) as used in
// the paper's §V-C: graph samplers that produce independent training
// subgraphs, the counts-based normalization that keeps minibatch
// estimates unbiased, and two distributed trainers — GraphSAINT-RDM
// (every subgraph trained across all devices with the RDM engine, one
// weight update per subgraph) and a DGL-style DDP baseline (one subgraph
// per device per step, gradients all-reduced, so the effective batch
// size grows with the device count — the convergence drawback the paper
// demonstrates in Fig. 13).
package saint

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"gnnrdm/internal/core"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
)

// SamplerKind selects the GraphSAINT sampling strategy.
type SamplerKind int

const (
	// NodeSampler samples vertices with probability proportional to
	// degree.
	NodeSampler SamplerKind = iota
	// EdgeSampler samples edges uniformly and takes their endpoints.
	EdgeSampler
	// RandomWalkSampler unions fixed-length random walks from uniform
	// roots.
	RandomWalkSampler
)

func (k SamplerKind) String() string {
	switch k {
	case NodeSampler:
		return "node"
	case EdgeSampler:
		return "edge"
	case RandomWalkSampler:
		return "rw"
	}
	return "unknown"
}

// Sampler draws vertex subsets from a graph.
type Sampler struct {
	Kind   SamplerKind
	Adj    *sparse.CSR
	Budget int // target subgraph vertex count
	// WalkLength applies to RandomWalkSampler (roots = Budget/WalkLength).
	WalkLength int

	cumDeg []int64 // for degree-proportional node sampling
}

// NewSampler builds a sampler over the (raw, symmetric) adjacency.
func NewSampler(kind SamplerKind, adj *sparse.CSR, budget, walkLength int) *Sampler {
	if budget < 1 || budget > adj.Rows {
		panic(fmt.Sprintf("saint: budget %d outside [1, %d]", budget, adj.Rows))
	}
	s := &Sampler{Kind: kind, Adj: adj, Budget: budget, WalkLength: walkLength}
	if s.WalkLength < 1 {
		s.WalkLength = 2
	}
	if kind == NodeSampler {
		s.cumDeg = make([]int64, adj.Rows+1)
		for i := 0; i < adj.Rows; i++ {
			deg := adj.RowPtr[i+1] - adj.RowPtr[i] + 1 // +1 keeps isolated vertices samplable
			s.cumDeg[i+1] = s.cumDeg[i] + deg
		}
	}
	return s
}

// Sample draws one vertex subset (sorted, unique), of size <= Budget and
// >= 1.
func (s *Sampler) Sample(rng *rand.Rand) []int32 {
	set := make(map[int32]bool, s.Budget)
	switch s.Kind {
	case NodeSampler:
		total := s.cumDeg[len(s.cumDeg)-1]
		for len(set) < s.Budget {
			r := rng.Int63n(total)
			v := sort.Search(s.Adj.Rows, func(i int) bool { return s.cumDeg[i+1] > r })
			set[int32(v)] = true
		}
	case EdgeSampler:
		nnz := s.Adj.NNZ()
		if nnz == 0 {
			set[int32(rng.Intn(s.Adj.Rows))] = true
			break
		}
		for len(set) < s.Budget {
			e := rng.Int63n(nnz)
			row := sort.Search(s.Adj.Rows, func(i int) bool { return s.Adj.RowPtr[i+1] > e })
			set[int32(row)] = true
			set[s.Adj.ColIdx[e]] = true
		}
	case RandomWalkSampler:
		roots := s.Budget / s.WalkLength
		if roots < 1 {
			roots = 1
		}
		for len(set) < s.Budget {
			v := int32(rng.Intn(s.Adj.Rows))
			set[v] = true
			for step := 1; step < s.WalkLength && len(set) < s.Budget; step++ {
				lo, hi := s.Adj.RowPtr[v], s.Adj.RowPtr[v+1]
				if lo == hi {
					break
				}
				v = s.Adj.ColIdx[lo+rng.Int63n(hi-lo)]
				set[v] = true
			}
			roots--
			if roots <= 0 && len(set) > 0 {
				break
			}
		}
	default:
		panic("saint: unknown sampler kind")
	}
	out := make([]int32, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	if len(out) > s.Budget {
		out = out[:s.Budget]
	}
	return out
}

// Norms holds the sampling-frequency statistics GraphSAINT uses to keep
// subgraph training unbiased: per-vertex counts C_v and per-edge counts
// C_e over a set of trial samples.
type Norms struct {
	Trials  int
	NodeCnt []int32
	edgeCnt map[[2]int32]int32
}

// EstimateNorms runs `trials` preliminary samples and tallies node and
// induced-edge appearance counts (GraphSAINT's pre-processing phase).
func EstimateNorms(s *Sampler, trials int, seed int64) *Norms {
	rng := rand.New(rand.NewSource(seed))
	n := &Norms{Trials: trials, NodeCnt: make([]int32, s.Adj.Rows), edgeCnt: make(map[[2]int32]int32)}
	for t := 0; t < trials; t++ {
		nodes := s.Sample(rng)
		inSet := make(map[int32]bool, len(nodes))
		for _, v := range nodes {
			inSet[v] = true
			n.NodeCnt[v]++
		}
		for _, v := range nodes {
			for e := s.Adj.RowPtr[v]; e < s.Adj.RowPtr[v+1]; e++ {
				u := s.Adj.ColIdx[e]
				if inSet[u] {
					n.edgeCnt[[2]int32{v, u}]++
				}
			}
		}
	}
	return n
}

// EdgeCount returns C_e for the directed edge (v, u).
func (n *Norms) EdgeCount(v, u int32) int32 { return n.edgeCnt[[2]int32{v, u}] }

// SubProblem builds the training problem for one sampled subgraph from
// the full problem: the induced normalized adjacency with GraphSAINT's
// aggregator normalization (each edge scaled by C_v/C_e so the aggregated
// message is unbiased), features/labels/mask restricted to the sample,
// and loss weights λ_v ∝ 1/p_v.
//
// normA is the full graph's GCN-normalized adjacency.
func SubProblem(prob *core.Problem, normA *sparse.CSR, nodes []int32, norms *Norms) *core.Problem {
	sub := normA.SubMatrix(nodes, nodes)
	if norms != nil {
		// Aggregator normalization: GraphSAINT scales entry (v,u) by
		// C_v/C_e. We use the symmetrized (C_v+C_u)/(2·C_e) so the
		// subgraph propagation matrix stays symmetric (the RDM engine
		// exploits Aᵀ = A); C_e is already symmetric because induced
		// edges are counted in both directions.
		for i := 0; i < sub.Rows; i++ {
			v := nodes[i]
			for e := sub.RowPtr[i]; e < sub.RowPtr[i+1]; e++ {
				u := nodes[sub.ColIdx[e]]
				if u == v {
					continue // self loops always present
				}
				ce := norms.EdgeCount(v, u)
				cv, cu := norms.NodeCnt[v], norms.NodeCnt[u]
				if ce > 0 {
					sub.Val[e] *= float32(cv+cu) / (2 * float32(ce))
				}
			}
		}
	}
	out := &core.Problem{
		A:      sub,
		X:      tensor.NewDense(len(nodes), prob.X.Cols),
		Labels: make([]int32, len(nodes)),
	}
	if prob.TrainMask != nil {
		out.TrainMask = make([]bool, len(nodes))
	}
	if norms != nil {
		out.LossWeights = make([]float32, len(nodes))
	}
	for i, v := range nodes {
		copy(out.X.Row(i), prob.X.Row(int(v)))
		out.Labels[i] = prob.Labels[v]
		if out.TrainMask != nil {
			out.TrainMask[i] = prob.TrainMask[v]
		}
		if out.LossWeights != nil {
			// λ_v ∝ 1/p_v = Trials / C_v; vertices never seen in trials
			// get weight 1.
			if c := norms.NodeCnt[v]; c > 0 {
				out.LossWeights[i] = float32(norms.Trials) / float32(c)
			} else {
				out.LossWeights[i] = 1
			}
		}
	}
	return out
}
