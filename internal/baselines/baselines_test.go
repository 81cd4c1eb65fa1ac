package baselines

import (
	"math"
	"math/rand"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
)

func testProblem(t testing.TB, n, fin, classes int) *core.Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	adj, comm := graph.PlantedPartition(rng, n, int64(4*n), classes, 0.8)
	return &core.Problem{
		A:      sparse.GCNNormalize(adj),
		X:      graph.SynthesizeFeatures(rng, comm, classes, fin, 0.8),
		Labels: comm,
	}
}

func refOpts(dims []int) core.Options {
	return core.Options{Dims: dims, Memoize: true, ComputeInputGrad: false, LR: 0.01, Seed: 7}
}

func TestCAGNET1DMatchesReference(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	dims := []int{12, 10, 6}
	ref := core.ReferenceTrain(prob, refOpts(dims), 3)
	for _, p := range []int{1, 2, 4} {
		res := TrainCAGNET(p, hw.A6000(), prob, Options{Dims: dims, LR: 0.01, Seed: 7}, 3)
		for ep := range ref.Losses {
			if math.Abs(res.Epochs[ep].Loss-ref.Losses[ep]) > 1e-4 {
				t.Fatalf("P=%d epoch %d: loss %v want %v", p, ep, res.Epochs[ep].Loss, ref.Losses[ep])
			}
		}
		if d := tensor.MaxAbsDiff(res.Logits, ref.Logits); d > 1e-3 {
			t.Fatalf("P=%d logits diff %v", p, d)
		}
	}
}

func TestCAGNET15DMatchesReference(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	dims := []int{12, 10, 6}
	ref := core.ReferenceTrain(prob, refOpts(dims), 3)
	for _, tc := range []struct{ p, c int }{{4, 2}, {4, 4}, {8, 2}, {8, 4}} {
		res := TrainCAGNET(tc.p, hw.A6000(), prob,
			Options{Dims: dims, LR: 0.01, Seed: 7, Replication: tc.c}, 3)
		if math.Abs(res.Epochs[len(res.Epochs)-1].Loss-ref.Losses[2]) > 1e-4 {
			t.Fatalf("P=%d c=%d: loss %v want %v", tc.p, tc.c, res.Epochs[len(res.Epochs)-1].Loss, ref.Losses[2])
		}
	}
}

func TestCAGNETVolumeGrowsWithP(t *testing.T) {
	// CAGNET 1D moves (P-1)·N·f per SpMM: volume grows nearly linearly.
	prob := testProblem(t, 64, 16, 8)
	dims := []int{16, 12, 8}
	vol := func(p int) int64 {
		res := TrainCAGNET(p, hw.A6000(), prob, Options{Dims: dims, Seed: 7}, 1)
		return res.Epochs[0].CommBytes
	}
	v2, v8 := vol(2), vol(8)
	if float64(v8) < 4*float64(v2) {
		t.Fatalf("CAGNET volume should grow ~(P-1): %d -> %d", v2, v8)
	}
}

func TestCAGNETReplicationReducesVolume(t *testing.T) {
	prob := testProblem(t, 64, 16, 8)
	dims := []int{16, 12, 8}
	vol := func(c int) int64 {
		res := TrainCAGNET(8, hw.A6000(), prob, Options{Dims: dims, Seed: 7, Replication: c}, 1)
		return res.Epochs[0].CommBytes
	}
	v1, v2, v4 := vol(1), vol(2), vol(4)
	// Replication trades gather volume (shrinks with c) for
	// reduce-scatter volume (grows with c): any c>1 must beat 1D, but
	// the curve need not be monotone.
	if v2 >= v1 || v4 >= v1 {
		t.Fatalf("replication must reduce volume vs 1D: c=1:%d c=2:%d c=4:%d", v1, v2, v4)
	}
}

func TestPartitionBalancedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adj, _ := graph.PlantedPartition(rng, 200, 800, 4, 0.8)
	for _, p := range []int{2, 4, 8} {
		assign := Partition(adj, p)
		sizes := make([]int, p)
		for _, a := range assign {
			if a < 0 || int(a) >= p {
				t.Fatalf("unassigned vertex: %d", a)
			}
			sizes[a]++
		}
		cap := (200*11)/(10*p) + 1
		for q, s := range sizes {
			if s > cap {
				t.Fatalf("P=%d part %d overfull: %d > %d", p, q, s, cap)
			}
		}
	}
}

func TestPartitionBeatsRandomCut(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	adj, _ := graph.PlantedPartition(rng, 400, 2400, 4, 0.9)
	assign := Partition(adj, 4)
	cut := EdgeCut(adj, assign)
	random := make([]int32, 400)
	for i := range random {
		random[i] = int32(rng.Intn(4))
	}
	randCut := EdgeCut(adj, random)
	if cut >= randCut {
		t.Fatalf("LDG cut %d should beat random %d", cut, randCut)
	}
}

func TestEdgeCutGrowsWithP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	adj := graph.RMAT(rng, 512, 4096, 0.57, 0.19, 0.19)
	c2 := EdgeCut(adj, Partition(adj, 2))
	c8 := EdgeCut(adj, Partition(adj, 8))
	if c8 <= c2 {
		t.Fatalf("edge cut should grow with P: %d -> %d", c2, c8)
	}
}

func TestDGCLMatchesReference(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	dims := []int{12, 10, 6}
	ref := core.ReferenceTrain(prob, refOpts(dims), 3)
	for _, p := range []int{1, 2, 4} {
		res := TrainDGCL(p, hw.A6000(), prob, Options{Dims: dims, LR: 0.01, Seed: 7}, 3)
		for ep := range ref.Losses {
			if math.Abs(res.Epochs[ep].Loss-ref.Losses[ep]) > 1e-4 {
				t.Fatalf("P=%d epoch %d: loss %v want %v", p, ep, res.Epochs[ep].Loss, ref.Losses[ep])
			}
		}
		if d := tensor.MaxAbsDiff(res.Logits, ref.Logits); d > 1e-3 {
			t.Fatalf("P=%d logits diff %v (un-permutation broken?)", p, d)
		}
	}
}

func TestDGCLVolumeTracksEdgeCut(t *testing.T) {
	// DGCL's per-SpMM halo volume = cut-adjacent vertex features; on a
	// well-clustered graph it must be far below CAGNET's broadcast
	// volume at P=2 and grow with P.
	prob := testProblem(t, 256, 16, 4) // 4 clusters, pIn=0.8
	dims := []int{16, 12, 4}
	dgclVol := func(p int) int64 {
		res := TrainDGCL(p, hw.A6000(), prob, Options{Dims: dims, Seed: 7}, 1)
		return res.Epochs[0].CommBytes
	}
	d2, d8 := dgclVol(2), dgclVol(8)
	if d8 <= d2 {
		t.Fatalf("DGCL volume should grow with P: %d -> %d", d2, d8)
	}
	cagnet := TrainCAGNET(2, hw.A6000(), prob, Options{Dims: dims, Seed: 7}, 1)
	if d2 >= cagnet.Epochs[0].CommBytes {
		t.Fatalf("DGCL at P=2 (%d) should move less than CAGNET (%d)", d2, cagnet.Epochs[0].CommBytes)
	}
}

func TestPermuteProblemRoundTrip(t *testing.T) {
	prob := testProblem(t, 40, 8, 4)
	prob.TrainMask = make([]bool, 40)
	for i := 0; i < 20; i++ {
		prob.TrainMask[i] = true
	}
	assign := Partition(prob.A, 4)
	pp, bounds, perm := PermuteProblem(prob, assign, 4)
	if bounds[0] != 0 || bounds[4] != 40 {
		t.Fatalf("bad bounds %v", bounds)
	}
	// Features/labels follow the permutation.
	for newID, old := range perm {
		if pp.Labels[newID] != prob.Labels[old] {
			t.Fatal("labels not permuted")
		}
		if pp.TrainMask[newID] != prob.TrainMask[old] {
			t.Fatal("mask not permuted")
		}
		if pp.X.Row(newID)[3] != prob.X.Row(int(old))[3] {
			t.Fatal("features not permuted")
		}
	}
	// Adjacency conjugated by the permutation.
	inv := make([]int32, 40)
	for newID, old := range perm {
		inv[old] = int32(newID)
	}
	for i := 0; i < 40; i++ {
		for e := prob.A.RowPtr[i]; e < prob.A.RowPtr[i+1]; e++ {
			j := prob.A.ColIdx[e]
			if pp.A.At(int(inv[i]), int(inv[j])) != prob.A.Val[e] {
				t.Fatal("adjacency not conjugated correctly")
			}
		}
	}
}

func TestBaselineOptionValidation(t *testing.T) {
	prob := testProblem(t, 32, 8, 4)
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("bad dims", func() {
		TrainCAGNET(2, hw.A6000(), prob, Options{Dims: []int{9, 4}}, 1)
	})
	expectPanic("bad replication", func() {
		TrainCAGNET(4, hw.A6000(), prob, Options{Dims: []int{8, 4}, Replication: 3}, 1)
	})
}

func TestCAGNET2DSpMMCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, tc := range []struct{ n, f, p int }{{32, 16, 4}, {37, 9, 4}, {48, 24, 9}} {
		adj, _ := graph.PlantedPartition(rng, tc.n, int64(4*tc.n), 4, 0.7)
		a := sparse.GCNNormalize(adj)
		b := tensor.NewDense(tc.n, tc.f)
		b.Randomize(rng, 1)
		want := a.SpMM(b)
		blocks := make([]*tensor.Dense, tc.p)
		comm.Run(tc.p, hw.A6000(), func(d *comm.Device) {
			g := NewCAGNET2D(d, a)
			blocks[d.Rank] = g.SpMM(Distribute2D(d, b), tc.f)
		})
		got := assemble2D(blocks, tc.n, tc.f)
		if diff := tensor.MaxAbsDiff(got, want); diff > 1e-4 {
			t.Fatalf("n=%d f=%d p=%d: diff %v", tc.n, tc.f, tc.p, diff)
		}
	}
}

func TestCAGNET2DRequiresSquareP(t *testing.T) {
	fab := comm.NewFabric(2, hw.A6000())
	a := sparse.FromCoords(4, 4, []sparse.Coord{{Row: 0, Col: 1, Val: 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-square P")
		}
	}()
	NewCAGNET2D(fab.Device(0), a)
}

func TestCSRCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	adj, _ := graph.PlantedPartition(rng, 30, 120, 3, 0.7)
	a := sparse.GCNNormalize(adj)
	b := decodeCSR(encodeCSR(a))
	if b.Rows != a.Rows || b.Cols != a.Cols || b.NNZ() != a.NNZ() {
		t.Fatal("codec corrupted shape")
	}
	if tensor.MaxAbsDiff(a.ToDense(), b.ToDense()) != 0 {
		t.Fatal("codec corrupted values")
	}
}

// TestCAGNET2DMovesSparseMatrix verifies the 2D scheme's defining cost:
// it broadcasts adjacency blocks (volume grows with nnz), which the
// 1D/1.5D and RDM schemes never do.
func TestCAGNET2DMovesSparseMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n, f, p := 64, 4, 4
	vol := func(edges int64) int64 {
		adj, _ := graph.PlantedPartition(rng, n, edges, 4, 0.7)
		a := sparse.GCNNormalize(adj)
		b := tensor.NewDense(n, f)
		b.Randomize(rng, 1)
		fab := comm.Run(p, hw.A6000(), func(d *comm.Device) {
			NewCAGNET2D(d, a).SpMM(Distribute2D(d, b), f)
		})
		return fab.TotalVolume()
	}
	sparse1, dense1 := vol(int64(2*n)), vol(int64(16*n))
	if dense1 <= sparse1 {
		t.Fatalf("denser adjacency must move more data in 2D: %d vs %d", sparse1, dense1)
	}
}

// assemble2D reconstructs the global dense matrix from all devices' 2D
// blocks.
func assemble2D(blocks []*tensor.Dense, n, f int) *tensor.Dense {
	p := len(blocks)
	q := int(math.Round(math.Sqrt(float64(p))))
	out := tensor.NewDense(n, f)
	for r := 0; r < p; r++ {
		i, j := r/q, r%q
		rlo, _ := dist.PartRange(n, q, i)
		clo, _ := dist.PartRange(f, q, j)
		b := blocks[r]
		for rr := 0; rr < b.Rows; rr++ {
			copy(out.Row(rlo + rr)[clo:clo+b.Cols], b.Row(rr))
		}
	}
	return out
}
