package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gnnrdm/internal/sparse"
)

func TestRMATShapeAndSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adj := RMAT(rng, 1000, 5000, 0.57, 0.19, 0.19)
	if adj.Rows != 1000 || adj.Cols != 1000 {
		t.Fatalf("shape %dx%d", adj.Rows, adj.Cols)
	}
	if adj.NNZ() < 5000 || adj.NNZ() > 10000 {
		t.Fatalf("nnz=%d outside [5000,10000]", adj.NNZ())
	}
	checkSymmetricNoSelfLoops(t, adj)
}

func TestRMATSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	adj := RMAT(rng, 4096, 40000, 0.57, 0.19, 0.19)
	// Skewed generator: max degree far above mean.
	var top int64
	for i := 0; i < adj.Rows; i++ {
		top = max(top, adj.RowPtr[i+1]-adj.RowPtr[i])
	}
	mean := float64(adj.NNZ()) / float64(adj.Rows)
	if float64(top) < 5*mean {
		t.Fatalf("R-MAT not skewed: max=%d mean=%.1f", top, mean)
	}
}

func TestErdosRenyi(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	adj := ErdosRenyi(rng, 500, 2000)
	checkSymmetricNoSelfLoops(t, adj)
	if adj.NNZ() < 2000 {
		t.Fatalf("nnz=%d", adj.NNZ())
	}
}

func TestPlantedPartitionCommunityBias(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	adj, comm := PlantedPartition(rng, 2000, 20000, 10, 0.8)
	checkSymmetricNoSelfLoops(t, adj)
	internal, total := 0, 0
	for i := 0; i < adj.Rows; i++ {
		for p := adj.RowPtr[i]; p < adj.RowPtr[i+1]; p++ {
			total++
			if comm[i] == comm[adj.ColIdx[p]] {
				internal++
			}
		}
	}
	frac := float64(internal) / float64(total)
	// pIn=0.8 of endpoints targeted internal; with 10 communities the
	// random remainder adds ~0.02. Must be far above the 0.1 random rate.
	if frac < 0.5 {
		t.Fatalf("internal fraction %.3f too low for planted structure", frac)
	}
}

func TestSynthesizeFeaturesSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	comm := []int32{0, 0, 1, 1}
	f := SynthesizeFeatures(rng, comm, 2, 32, 1.0) // pure signal
	// Same community -> identical features at signal=1.
	for j := 0; j < 32; j++ {
		if f.Row(0)[j] != f.Row(1)[j] {
			t.Fatal("signal=1 must give identical same-community features")
		}
	}
	// Different communities -> different centroids (w.h.p.).
	same := true
	for j := 0; j < 32; j++ {
		if f.Row(0)[j] != f.Row(2)[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different communities should differ")
	}
}

// TestSynthesizeFeaturesUnlabeled: an unlabeled (-1) vertex gets a
// noise-only row, and every labelled row keeps the bits it has when that
// vertex is labelled, because each row draws the same random numbers.
func TestSynthesizeFeaturesUnlabeled(t *testing.T) {
	const f = 16
	got := SynthesizeFeatures(rand.New(rand.NewSource(5)), []int32{0, -1, 1, 0}, 2, f, 0.8)
	want := SynthesizeFeatures(rand.New(rand.NewSource(5)), []int32{0, 1, 1, 0}, 2, f, 0.8)
	for _, i := range []int{0, 2, 3} {
		for j := 0; j < f; j++ {
			if math.Float32bits(got.Row(i)[j]) != math.Float32bits(want.Row(i)[j]) {
				t.Fatalf("labelled row %d moved at column %d: %v, want %v", i, j, got.Row(i)[j], want.Row(i)[j])
			}
		}
	}
	// At signal 1 the noise has weight 0, so the unlabeled row is zero.
	pure := SynthesizeFeatures(rand.New(rand.NewSource(5)), []int32{0, -1}, 2, f, 1)
	for j, v := range pure.Row(1) {
		if v != 0 {
			t.Fatalf("unlabeled row at signal 1: column %d = %v, want 0", j, v)
		}
	}
}

func TestRandomSplitPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr, va, te := RandomSplit(rng, 10000, 0.6, 0.2)
	nTr, nVa, nTe := 0, 0, 0
	for i := 0; i < 10000; i++ {
		c := 0
		if tr[i] {
			c++
			nTr++
		}
		if va[i] {
			c++
			nVa++
		}
		if te[i] {
			c++
			nTe++
		}
		if c != 1 {
			t.Fatalf("node %d in %d splits", i, c)
		}
	}
	if nTr < 5500 || nTr > 6500 || nVa < 1500 || nVa > 2500 {
		t.Fatalf("split sizes off: %d/%d/%d", nTr, nVa, nTe)
	}
}

func TestRecipesMatchTableV(t *testing.T) {
	want := map[string][4]int64{
		"OGB-Arxiv":    {169_343, 1_166_243, 128, 40},
		"OGB-MAG":      {1_939_743, 21_111_007, 128, 349},
		"OGB-Products": {2_449_029, 61_859_140, 100, 47},
		"Reddit":       {232_965, 114_848_857, 602, 41},
		"Web-Google":   {875_713, 5_105_039, 256, 100},
		"Com-Orkut":    {3_072_441, 117_185_083, 128, 100},
		"CAMI-Airways": {1_000_000, 22_901_745, 256, 25},
		"CAMI-Oral":    {1_000_000, 20_734_972, 256, 32},
	}
	rs := Recipes()
	if len(rs) != 8 {
		t.Fatalf("want 8 recipes, got %d", len(rs))
	}
	for _, r := range rs {
		w, ok := want[r.Name]
		if !ok {
			t.Fatalf("unexpected recipe %q", r.Name)
		}
		if int64(r.Vertices) != w[0] || r.Edges != w[1] || int64(r.FeatureDim) != w[2] || int64(r.Labels) != w[3] {
			t.Fatalf("%s: got (%d,%d,%d,%d) want %v", r.Name, r.Vertices, r.Edges, r.FeatureDim, r.Labels, w)
		}
	}
}

func TestRecipeByName(t *testing.T) {
	r, err := RecipeByName("Reddit")
	if err != nil || r.FeatureDim != 602 {
		t.Fatalf("RecipeByName: %v %v", r, err)
	}
	if _, err := RecipeByName("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestScaledRecipe(t *testing.T) {
	r, _ := RecipeByName("OGB-Arxiv")
	s := r.Scaled(16)
	if s.Vertices != r.Vertices/16 || s.Edges != r.Edges/16 {
		t.Fatalf("scaled: %d %d", s.Vertices, s.Edges)
	}
	if s.FeatureDim != r.FeatureDim || s.Labels != r.Labels {
		t.Fatal("scaling must not change feature/label dims")
	}
	if r.Scaled(1).Vertices != r.Vertices {
		t.Fatal("scale=1 must be identity")
	}
	tiny := r.Scaled(1 << 30)
	if tiny.Vertices < 64 || tiny.Edges < int64(tiny.Vertices) {
		t.Fatal("scaling floor violated")
	}
}

func TestBuildScaledGraph(t *testing.T) {
	r, _ := RecipeByName("OGB-Arxiv")
	g := r.Scaled(64).Build()
	if g.N() != r.Vertices/64 {
		t.Fatalf("N=%d", g.N())
	}
	if g.FeatureDim() != 128 || g.NumClasses != 40 {
		t.Fatal("dims wrong")
	}
	if g.TrainMask == nil {
		t.Fatal("arxiv recipe must have splits")
	}
	if len(g.Labels) != g.N() {
		t.Fatal("labels length")
	}
	checkSymmetricNoSelfLoops(t, g.Adj)
	norm := sparse.GCNNormalize(g.Adj)
	if norm.NNZ() < g.Adj.NNZ() { // adds self loops
		t.Fatal("normalization should add self loops")
	}
}

func TestBuildUnlabelledGraph(t *testing.T) {
	r, _ := RecipeByName("Web-Google")
	g := r.Scaled(256).Build()
	if g.TrainMask != nil {
		t.Fatal("web-google must not have splits")
	}
	if g.NumClasses != 100 || g.FeatureDim() != 256 {
		t.Fatal("dims wrong")
	}
}

func TestBuildDeterministic(t *testing.T) {
	r, _ := RecipeByName("OGB-Arxiv")
	g1 := r.Scaled(128).Build()
	g2 := r.Scaled(128).Build()
	if g1.NNZ() != g2.NNZ() {
		t.Fatal("same seed must give same graph")
	}
	for i := range g1.Features.Data[:100] {
		if g1.Features.Data[i] != g2.Features.Data[i] {
			t.Fatal("same seed must give same features")
		}
	}
}

// Property: every generator output is symmetric with no self loops.
func TestGeneratorsSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		adj := RMAT(rng, n, int64(3*n), 0.5, 0.2, 0.2)
		adj2, _ := PlantedPartition(rng, n, int64(3*n), 4, 0.7)
		return isSymmetricNoSelfLoops(adj) && isSymmetricNoSelfLoops(adj2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func isSymmetricNoSelfLoops(adj *sparse.CSR) bool {
	for i := 0; i < adj.Rows; i++ {
		for p := adj.RowPtr[i]; p < adj.RowPtr[i+1]; p++ {
			j := int(adj.ColIdx[p])
			if j == i {
				return false
			}
			if adj.At(j, i) != adj.Val[p] {
				return false
			}
		}
	}
	return true
}

func checkSymmetricNoSelfLoops(t *testing.T, adj *sparse.CSR) {
	t.Helper()
	if !isSymmetricNoSelfLoops(adj) {
		t.Fatal("adjacency must be symmetric with no self loops")
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
