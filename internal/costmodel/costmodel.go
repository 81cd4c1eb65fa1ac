// Package costmodel implements the analytic performance model of §IV:
// per-layer communication/computation costs of SpMM-first vs GEMM-first
// execution (Tables II and III, including the R_A < P rows), whole-network
// cost enumeration over all 2^(2L) ordering configurations (Table IV for
// L=2), Pareto-frontier extraction (Table VI), the R_A replication
// chooser of §III-E, and the per-GPU space model (Table X).
//
// Accounting conventions recovered from the paper (validated against a
// literal transcription of Table IV in costmodel_test.go):
//
//   - Config ID bits for a 2-layer network: ID = 8·[bwd2=D] + 4·[bwd1=D]
//   - 2·[fwd1=D] + 1·[fwd2=D]. For general L, forward layer l maps to
//     bit (L-l) and backward layer l to bit (L+l-1).
//   - A forward SpMM-first layer costs f_{l-1} sparse units and f_{l-1}
//     redistribution units (vertical output -> horizontal for the GEMM);
//     GEMM-first costs f_l of each (Table II). Input-layout mismatches
//     between consecutive layers add one redistribution of the
//     intermediate width (§IV-A3).
//   - The loss needs vertex-complete embeddings: a GEMM-first final layer
//     adds one f_L redistribution (§IV-A1).
//   - The gradient G^0 of the input features is computed (it is listed as
//     a final output in Fig. 4), so a GEMM-first backward layer 1 pays
//     its f_0 redistribution + SpMM like any other layer.
//   - Weight gradients Y^l reuse a forward-memoized AᵀH^{l-1} or the
//     backward A·G^l (Fig. 3); only when layer l is GEMM-first in both
//     passes is an extra SpMM needed, costing min(f_{l-1}, f_l) sparse
//     units and 2·min(f_{l-1}, f_l) redistribution units.
//
// Two entries of the paper's printed Table IV disagree with this model:
// row 13's communication is printed identical to row 9's, which is
// impossible (the configs differ only in the backward-layer-1 order, so
// their communication must differ by f_in - ...); and row 15's entries
// are inconsistent with every sibling all-D row. Both are treated as
// typographical errors; see KnownTableIVErrata.
//
// This package prices a configuration from the closed-form tables.
// internal/plan prices the same quantities op by op from a compiled
// schedule (plan.Schedule.Price); the two accountings are asserted equal
// byte-for-byte across every config, P, R_A, and memoization setting
// (internal/plan tests, verify.CheckVolumeMatchesModel), and the plan
// pricing additionally covers mixed per-layer orderings that no single
// Table IV row expresses.
package costmodel

import (
	"fmt"
	"math"
	"sort"

	"gnnrdm/internal/dist"
)

// Order is the execution order of one layer in one pass.
type Order int

const (
	// SparseFirst performs the SpMM before the GEMM ("S" in Table IV).
	SparseFirst Order = iota
	// DenseFirst performs the GEMM before the SpMM ("D" in Table IV).
	DenseFirst
)

func (o Order) String() string {
	if o == SparseFirst {
		return "S"
	}
	return "D"
}

// Config is a complete ordering choice for an L-layer network: the order
// of every forward and backward layer.
type Config struct {
	Fwd []Order // Fwd[l-1] is forward layer l's order
	Bwd []Order // Bwd[l-1] is backward layer l's order
}

// Layers returns L.
func (c Config) Layers() int { return len(c.Fwd) }

// ID returns the Table IV identifier of the configuration.
func (c Config) ID() int {
	l := c.Layers()
	id := 0
	for i, o := range c.Fwd { // layer i+1 -> bit L-(i+1)
		if o == DenseFirst {
			id |= 1 << (l - i - 1)
		}
	}
	for i, o := range c.Bwd { // layer i+1 -> bit L+i
		if o == DenseFirst {
			id |= 1 << (l + i)
		}
	}
	return id
}

// ConfigFromID decodes a Table IV identifier for an L-layer network.
func ConfigFromID(id, layers int) Config {
	c := Config{Fwd: make([]Order, layers), Bwd: make([]Order, layers)}
	for i := 0; i < layers; i++ {
		if id&(1<<(layers-i-1)) != 0 {
			c.Fwd[i] = DenseFirst
		}
		if id&(1<<(layers+i)) != 0 {
			c.Bwd[i] = DenseFirst
		}
	}
	return c
}

// NumConfigs returns the size of the design space for L layers.
func NumConfigs(layers int) int { return 1 << (2 * layers) }

func (c Config) String() string {
	s := "fwd["
	for _, o := range c.Fwd {
		s += o.String()
	}
	s += "] bwd["
	for _, o := range c.Bwd {
		s += o.String()
	}
	return s + "]"
}

// Network describes the GNN whose execution is being modelled.
type Network struct {
	// Dims holds f_0 (input width), hidden widths, and f_L (classes):
	// len(Dims) = L+1.
	Dims []int
	// N is the vertex count; NNZ the stored adjacency nonzeros.
	N, NNZ int64
	// P is the device count; RA the adjacency replication factor
	// (1 <= RA <= P; RA == P means full replication, the main RDM
	// scheme).
	P, RA int
	// NoMemo disables forward-intermediate memoization (the "N.M." rows
	// of Table III): backward passes can no longer reuse AᵀH^{l-1} from
	// the forward pass.
	NoMemo bool
}

// Layers returns L.
func (n Network) Layers() int { return len(n.Dims) - 1 }

func (n Network) validate() {
	if len(n.Dims) < 2 {
		panic("costmodel: need at least one layer")
	}
	if n.P < 1 || n.RA < 1 || n.RA > n.P || n.P%n.RA != 0 {
		panic(fmt.Sprintf("costmodel: invalid P=%d RA=%d", n.P, n.RA))
	}
}

// Cost is the modelled cost of one configuration.
type Cost struct {
	ID int
	// CommElems is the total number of matrix elements crossing device
	// boundaries per epoch (redistributions + intra-SpMM broadcasts).
	CommElems float64
	// SparseOps is the total number of SpMM fused multiply-adds per
	// epoch.
	SparseOps float64
	// CommUnits and SparseUnits are the table-normalized values:
	// communication in multiples of (P-1)/P·N (feature-width units, as
	// printed in Table IV) and sparse ops in multiples of nnz.
	CommUnits, SparseUnits float64
}

// Evaluate computes the communication and sparse-op cost of config c on
// network n, generalizing Table IV to any L, any P, and any R_A.
func Evaluate(n Network, c Config) Cost {
	return evaluate(n, c, false)
}

// EvaluateEngine is Evaluate with engine-faithful accounting of the
// weight-gradient fallback. When a layer is GEMM-first in both passes,
// the paper's Table IV charges the extra SpMM a flat
// min(f_{l-1}, f_l) + two redistributions; the engine instead pulls the
// SpMM operands from its layout cache, so a redistribution already paid
// by the forward or backward pass (e.g. G^l left feature-sliced by a
// dense-first backward layer l+1) is not paid again. For a 2-layer
// network this elides exactly one min(f_0, f_1) redistribution in
// configs 14 and 15 and changes nothing else. It also counts each
// redistribution's exact tile overlaps (DenseExchangeBytes), which the
// (RA-1)/RA·N·f unit matches only for even splits.
// Evaluate remains the literal Table IV model; EvaluateEngine is what
// the simulator's meters reproduce byte-for-byte (see internal/verify).
func EvaluateEngine(n Network, c Config) Cost {
	return evaluate(n, c, true)
}

func evaluate(n Network, c Config, engineExact bool) Cost {
	n.validate()
	L := n.Layers()
	if c.Layers() != L {
		panic("costmodel: config/network layer mismatch")
	}
	// Unit costs. A redistribution of an N x f matrix between vertex- and
	// feature-sliced layouts moves (RA-1)/RA·N·f elements under the grid
	// scheme of §III-E ((P-1)/P·N·f when RA=P). Each SpMM additionally
	// broadcasts its dense input within column groups: (P/RA-1)·N·F
	// elements (§III-E), zero when RA=P.
	redistUnit := float64(n.RA-1) / float64(n.RA) * float64(n.N)
	bcastUnit := float64(n.P/n.RA-1) * float64(n.N)

	var commElems, sparseUnits float64
	spmm := func(width int) {
		sparseUnits += float64(width)
		commElems += bcastUnit * float64(width)
	}
	redist := func(width int) { commElems += redistUnit * float64(width) }
	if engineExact {
		redist = func(width int) {
			commElems += float64(DenseExchangeBytes(n.P, int(n.N), width, dist.H, dist.G(n.RA)) / 4)
		}
	}

	f := n.Dims
	// hHoriz[l] records whether H^l is materialized vertex-sliced at some
	// point; similarly hVert. H^0 is free in both layouts (initial
	// distribution is a data-loading choice).
	hHoriz := make([]bool, L+1)
	hVert := make([]bool, L+1)
	hHoriz[0], hVert[0] = true, true

	// Forward pass. "vertical" tracks the current layout of H^{l-1} as
	// produced; mismatches with the layer's required input layout cost a
	// redistribution of f_{l-1}.
	vertical := false // layout of H^{l-1} entering layer l (H^0 free)
	for l := 1; l <= L; l++ {
		in, out := f[l-1], f[l]
		if c.Fwd[l-1] == SparseFirst {
			// Requires vertical input.
			if l > 1 && !vertical {
				redist(in)
				hVert[l-1] = true
			}
			spmm(in)   // T = AᵀH^{l-1}, vertical
			redist(in) // T -> horizontal for the GEMM
			_ = out    // GEMM is order-invariant (not modelled here)
			vertical = false
			hHoriz[l] = true
		} else {
			// Requires horizontal input.
			if l > 1 && vertical {
				redist(in)
				hHoriz[l-1] = true
			}
			redist(out) // H^{l-1}W -> vertical for the SpMM
			spmm(out)   // Z = Aᵀ(H^{l-1}W), vertical
			vertical = true
			hVert[l] = true
		}
	}
	// Loss needs vertex-complete embeddings.
	if vertical {
		redist(f[L])
	}

	// Backward pass. gHoriz[l]/gVert[l] record whether G^l is ever
	// materialized vertex-/feature-sliced; G^L starts horizontal at the
	// loss.
	gHoriz := make([]bool, L+1)
	gVert := make([]bool, L+1)
	gHoriz[L] = true
	gVertical := false // layout of G^l entering backward layer l
	for l := L; l >= 1; l-- {
		in, out := f[l-1], f[l]
		if c.Bwd[l-1] == SparseFirst {
			if !gVertical {
				redist(out) // G^l -> vertical for the SpMM
				gVert[l] = true
			}
			spmm(out)   // T_b = A·G^l, vertical
			redist(out) // T_b -> horizontal for the GEMM
			gVertical = false
			gHoriz[l-1] = true // G^{l-1} produced horizontal
		} else {
			if gVertical {
				redist(out) // G^l -> horizontal for the GEMM
				gHoriz[l] = true
			}
			redist(in) // G^lWᵀ -> vertical for the SpMM
			spmm(in)   // G^{l-1} = A·(G^lWᵀ), vertical
			gVertical = true
			gVert[l-1] = true
		}
	}

	// Weight gradients Y^l = (H^{l-1})ᵀ·(A·G^l) (Fig. 3 reuse analysis).
	for l := 1; l <= L; l++ {
		in, out := f[l-1], f[l]
		tfAvailable := c.Fwd[l-1] == SparseFirst && !n.NoMemo // AᵀH^{l-1} memoized (horizontal)
		tbAvailable := c.Bwd[l-1] == SparseFirst              // A·G^l computed (horizontal)
		gH := gHoriz[l] || l == L                             // G^l available horizontal
		hH := hHoriz[l-1]                                     // H^{l-1} available horizontal
		switch {
		case tfAvailable && gH, tbAvailable && hH:
			// Free: both operands vertex-sliced; local GEMM + O(f²)
			// all-reduce (negligible, metered by the simulator).
		case tfAvailable && tbAvailable:
			redist(minInt(in, out)) // gather the narrower missing operand
		case tfAvailable:
			redist(out) // gather G^l
		case tbAvailable:
			redist(in) // gather H^{l-1}
		default:
			// Both passes dense-first: an extra SpMM is unavoidable
			// (§III-C). The paper charges it a flat redistribution in and
			// out of width min(f_{l-1}, f_l); the engine pulls operands
			// from its layout cache and only redistributes what no pass
			// materialized (engineExact).
			if !engineExact {
				m := minInt(in, out)
				spmm(m)
				redist(m)
				redist(m)
				break
			}
			if in <= out {
				// Recompute AᵀH^{l-1}: needs H^{l-1} feature-sliced and
				// G^l vertex-sliced for the closing GEMM.
				if !hVert[l-1] {
					redist(in)
					hVert[l-1] = true
				}
				spmm(in)
				redist(in) // SpMM product -> horizontal for the GEMM
				if !gH {
					redist(out)
					gHoriz[l] = true
				}
			} else {
				// Recompute A·G^l: needs G^l feature-sliced and H^{l-1}
				// vertex-sliced for the closing GEMM.
				if !gVert[l] {
					redist(out)
					gVert[l] = true
				}
				spmm(out)
				redist(out) // SpMM product -> horizontal for the GEMM
				if !hH {
					redist(in)
					hHoriz[l-1] = true
				}
			}
		}
	}

	cost := Cost{
		ID:          c.ID(),
		SparseOps:   sparseUnits * float64(n.NNZ),
		SparseUnits: sparseUnits,
		CommElems:   commElems,
	}
	unit := float64(n.P-1) / float64(n.P) * float64(n.N)
	if unit > 0 {
		cost.CommUnits = commElems / unit
	}
	return cost
}

// EvaluateAll returns the cost of every configuration, indexed by ID.
func EvaluateAll(n Network) []Cost {
	L := n.Layers()
	out := make([]Cost, NumConfigs(L))
	for id := range out {
		out[id] = Evaluate(n, ConfigFromID(id, L))
	}
	return out
}

// Pareto returns the IDs of the Pareto-optimal configurations with
// respect to (CommElems, SparseOps), sorted ascending. A configuration is
// kept if no other strictly dominates it (<= in both, < in at least one).
// Dominated duplicates of kept points are excluded; exact ties keep the
// lowest ID only, matching how Table VI lists candidates.
func Pareto(costs []Cost) []int {
	var ids []int
	for i, a := range costs {
		dominated := false
		for j, b := range costs {
			if i == j {
				continue
			}
			if b.CommElems <= a.CommElems && b.SparseOps <= a.SparseOps &&
				(b.CommElems < a.CommElems || b.SparseOps < a.SparseOps) {
				dominated = true
				break
			}
			// Exact tie: keep the lower ID.
			if b.CommElems == a.CommElems && b.SparseOps == a.SparseOps && j < i {
				dominated = true
				break
			}
		}
		if !dominated {
			ids = append(ids, i)
		}
	}
	sort.Ints(ids)
	return ids
}

// ParetoConfigs evaluates the network and returns its Pareto-optimal
// configuration IDs.
func ParetoConfigs(n Network) []int { return Pareto(EvaluateAll(n)) }

// ChooseRA returns the largest feasible adjacency replication factor
// R_A = min(P, floor(P·(M - H_all)/G)) of §III-E, clamped to a divisor of
// P and at least 1. memBytes is per-device memory M, actBytes the total
// size of features and activations H_all, adjBytes the adjacency size G.
func ChooseRA(p int, memBytes, actBytes, adjBytes int64) int {
	if adjBytes <= 0 {
		return p
	}
	avail := float64(memBytes) - float64(actBytes)/float64(p)
	if avail < 0 {
		avail = 0
	}
	ra := int(float64(p) * avail / float64(adjBytes))
	if ra > p {
		ra = p
	}
	for ra > 1 && p%ra != 0 {
		ra--
	}
	if ra < 1 {
		ra = 1
	}
	return ra
}

// SpaceModel returns the modelled per-GPU memory (bytes) of distributed
// GCN training (Table X): R_A/P of the adjacency plus 1/P of all
// activations (forward activations are retained for the backward pass)
// plus replicated weights. RA=1 corresponds to CAGNET.
func SpaceModel(n Network) int64 {
	n.validate()
	adj := csrBytes(n.N, n.NNZ)
	var act, weights int64
	for l := 0; l <= n.Layers(); l++ {
		act += n.N * int64(n.Dims[l]) * 4
		if l > 0 {
			// Z^l pre-activations are kept for sigma'.
			act += n.N * int64(n.Dims[l]) * 4
			weights += int64(n.Dims[l-1]) * int64(n.Dims[l]) * 4
		}
	}
	return adj*int64(n.RA)/int64(n.P) + act/int64(n.P) + weights
}

func csrBytes(n, nnz int64) int64 { return (n+1)*8 + nnz*4 + nnz*4 }

// CommVolumeBytes converts a Cost's element count to bytes (float32).
func (c Cost) CommVolumeBytes() int64 { return int64(math.Round(c.CommElems)) * 4 }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
