package saint

import (
	"math"
	"math/rand"
	"testing"

	"gnnrdm/internal/core"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/sparse"
)

func TestNeighborMaskProviderInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adj, _ := graph.PlantedPartition(rng, 100, 800, 4, 0.7)
	norm := sparse.GCNNormalize(adj)
	provider := NeighborMaskProvider(norm, 5, 42)
	m := provider(0, 0, 100)
	for r := 0; r < 100; r++ {
		deg := int(norm.RowPtr[r+1] - norm.RowPtr[r])
		if deg <= 5 {
			if m[r] != nil {
				t.Fatalf("row %d: small degree should keep all", r)
			}
			continue
		}
		if len(m[r]) != 5 {
			t.Fatalf("row %d: got %d sampled, want 5", r, len(m[r]))
		}
		for i := 1; i < len(m[r]); i++ {
			if m[r][i-1] >= m[r][i] {
				t.Fatalf("row %d: mask not sorted/unique", r)
			}
		}
		// Sampled columns must be actual neighbors.
		for _, c := range m[r] {
			if norm.At(r, int(c)) == 0 {
				t.Fatalf("row %d: sampled non-neighbor %d", r, c)
			}
		}
	}
}

func TestNeighborMaskSharedSeedConsistency(t *testing.T) {
	// The shared-seed property (§III-F): disjoint row-range calls agree
	// with a whole-range call, so panel replicas never need to exchange
	// masks.
	rng := rand.New(rand.NewSource(2))
	adj, _ := graph.PlantedPartition(rng, 60, 600, 4, 0.7)
	p := NeighborMaskProvider(adj, 3, 7)
	whole := p(4, 0, 60)
	lower := p(4, 0, 30)
	upper := p(4, 30, 60)
	for r := 0; r < 30; r++ {
		if !equalMask(whole[r], lower[r]) || !equalMask(whole[r+30], upper[r]) {
			t.Fatalf("row-range calls disagree at %d", r)
		}
	}
	// Different epochs must differ somewhere.
	other := p(5, 0, 60)
	same := true
	for r := range whole {
		if !equalMask(whole[r], other[r]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("epochs should sample different masks")
	}
}

func equalMask(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMaskedDistributedMatchesMaskedReference is the §III-F integration
// test: distributed RDM training with the shared-seed masked SpMM equals
// single-node training on the explicitly materialized masked operator.
func TestMaskedDistributedMatchesMaskedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	adj, comm := graph.PlantedPartition(rng, 48, 480, 4, 0.8)
	norm := sparse.GCNNormalize(adj)
	prob := &core.Problem{
		A:      norm,
		X:      graph.SynthesizeFeatures(rng, comm, 4, 8, 0.8),
		Labels: comm,
	}
	const fanout, seed = 4, 99
	opts := core.Options{
		Dims:         []int{8, 6, 4},
		Config:       costmodel.ConfigFromID(10, 2),
		Memoize:      true,
		LR:           0.01,
		Seed:         7,
		MaskProvider: NeighborMaskProvider(norm, fanout, seed),
	}
	// One epoch distributed; reference trains on the epoch-0 masked
	// operator.
	for _, p := range []int{2, 4} {
		res := core.Train(p, hw.A6000(), prob, opts, 1)
		refProb := &core.Problem{
			A: MaskedAdjacency(norm, fanout, seed, 0), X: prob.X, Labels: prob.Labels,
		}
		ref := core.ReferenceTrain(refProb, core.Options{Dims: opts.Dims, LR: 0.01, Seed: 7}, 1)
		if math.Abs(res.Epochs[len(res.Epochs)-1].Loss-ref.Losses[0]) > 1e-5 {
			t.Fatalf("P=%d: masked loss %v want %v", p, res.Epochs[len(res.Epochs)-1].Loss, ref.Losses[0])
		}
	}
}

func TestMaskedTrainingConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	adj, comm := graph.PlantedPartition(rng, 128, 1536, 4, 0.85)
	norm := sparse.GCNNormalize(adj)
	prob := &core.Problem{
		A:      norm,
		X:      graph.SynthesizeFeatures(rng, comm, 4, 16, 0.8),
		Labels: comm,
	}
	res := core.Train(4, hw.A6000(), prob, core.Options{
		Dims:         []int{16, 16, 4},
		Config:       costmodel.ConfigFromID(10, 2),
		Memoize:      true,
		LR:           0.02,
		Seed:         7,
		MaskProvider: NeighborMaskProvider(norm, 6, 5),
	}, 30)
	if res.Epochs[len(res.Epochs)-1].Loss > res.Epochs[0].Loss*0.7 {
		t.Fatalf("masked training should converge: %v -> %v", res.Epochs[0].Loss, res.Epochs[len(res.Epochs)-1].Loss)
	}
	if acc := res.Accuracy(prob.Labels, nil); acc < 0.7 {
		t.Fatalf("masked training accuracy %v too low", acc)
	}
}

func TestMaskedAdjacencySubsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	adj, _ := graph.PlantedPartition(rng, 80, 640, 4, 0.7)
	norm := sparse.GCNNormalize(adj)
	masked := MaskedAdjacency(norm, 3, 11, 2)
	if masked.NNZ() >= norm.NNZ() {
		t.Fatal("masking should drop entries on a dense-enough graph")
	}
	for r := 0; r < masked.Rows; r++ {
		cnt := masked.RowPtr[r+1] - masked.RowPtr[r]
		deg := norm.RowPtr[r+1] - norm.RowPtr[r]
		if deg > 3 && cnt != 3 {
			t.Fatalf("row %d kept %d of %d, want 3", r, cnt, deg)
		}
		for p := masked.RowPtr[r]; p < masked.RowPtr[r+1]; p++ {
			if norm.At(r, int(masked.ColIdx[p])) != masked.Val[p] {
				t.Fatal("masked entry must copy the original value")
			}
		}
	}
}
