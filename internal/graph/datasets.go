package graph

import (
	"fmt"
	"math/rand"
)

// Recipe describes a synthetic stand-in for one of the paper's evaluation
// datasets (Table V). Vertices/Edges/FeatureDim/Labels match the paper;
// Kind and Signal control the generator so that labelled datasets are
// actually learnable.
type Recipe struct {
	Name       string
	Vertices   int
	Edges      int64 // undirected edge count as reported in Table V
	FeatureDim int
	Labels     int
	// Kind selects the generator: "rmat" (skewed web/social graphs),
	// "planted" (community structure; labelled datasets), "overlap"
	// (metagenomic overlap graphs: planted partition with high internal
	// fraction and weaker feature signal).
	Kind string
	// Signal is the community-feature correlation in [0,1].
	Signal float64
	// HasSplits mirrors the paper: Web-Google and Com-Orkut carry no
	// training data (random features/labels, runtime-only evaluation).
	HasSplits bool
	Seed      int64
}

// Recipes returns the eight Table V dataset recipes, in the paper's order.
func Recipes() []Recipe {
	return []Recipe{
		{Name: "OGB-Arxiv", Vertices: 169_343, Edges: 1_166_243, FeatureDim: 128, Labels: 40, Kind: "planted", Signal: 0.8, HasSplits: true, Seed: 101},
		{Name: "OGB-MAG", Vertices: 1_939_743, Edges: 21_111_007, FeatureDim: 128, Labels: 349, Kind: "planted", Signal: 0.8, HasSplits: true, Seed: 102},
		{Name: "OGB-Products", Vertices: 2_449_029, Edges: 61_859_140, FeatureDim: 100, Labels: 47, Kind: "planted", Signal: 0.8, HasSplits: true, Seed: 103},
		{Name: "Reddit", Vertices: 232_965, Edges: 114_848_857, FeatureDim: 602, Labels: 41, Kind: "planted", Signal: 0.8, HasSplits: true, Seed: 104},
		{Name: "Web-Google", Vertices: 875_713, Edges: 5_105_039, FeatureDim: 256, Labels: 100, Kind: "rmat", Signal: 0, HasSplits: false, Seed: 105},
		{Name: "Com-Orkut", Vertices: 3_072_441, Edges: 117_185_083, FeatureDim: 128, Labels: 100, Kind: "rmat", Signal: 0, HasSplits: false, Seed: 106},
		{Name: "CAMI-Airways", Vertices: 1_000_000, Edges: 22_901_745, FeatureDim: 256, Labels: 25, Kind: "overlap", Signal: 0.5, HasSplits: true, Seed: 107},
		{Name: "CAMI-Oral", Vertices: 1_000_000, Edges: 20_734_972, FeatureDim: 256, Labels: 32, Kind: "overlap", Signal: 0.5, HasSplits: true, Seed: 108},
	}
}

// RecipeByName looks a recipe up by its Table V name.
func RecipeByName(name string) (Recipe, error) {
	for _, r := range Recipes() {
		if r.Name == name {
			return r, nil
		}
	}
	return Recipe{}, fmt.Errorf("graph: unknown dataset recipe %q", name)
}

// Scaled returns a copy of r with vertex and edge counts divided by the
// scale factor (>= 1). Feature and label dimensions are preserved, since
// the cost model depends on them directly.
func (r Recipe) Scaled(scale int) Recipe {
	if scale <= 1 {
		return r
	}
	out := r
	out.Vertices = maxInt(r.Vertices/scale, 64)
	out.Edges = maxInt64(r.Edges/int64(scale), int64(out.Vertices))
	return out
}

// Build materializes the recipe into a Graph. The undirected Edges count
// is the target for generated undirected edges; the resulting CSR stores
// both directions (nnz ≈ 2 × Edges, matching how adjacency SpMM operates
// on symmetric graphs; Table V counts directed entries for some datasets,
// a discrepancy that does not affect any modelled quantity's shape).
func (r Recipe) Build() *Graph {
	rng := rand.New(rand.NewSource(r.Seed))
	g := &Graph{Name: r.Name, NumClasses: r.Labels}
	var comm []int32
	switch r.Kind {
	case "rmat":
		g.Adj = RMAT(rng, r.Vertices, r.Edges, 0.57, 0.19, 0.19)
	case "planted":
		g.Adj, comm = PlantedPartition(rng, r.Vertices, r.Edges, r.Labels, 0.7)
	case "overlap":
		// Metagenomic overlap graphs: long chains of overlapping reads per
		// genome cluster; high internal fraction, lower feature signal
		// (tetranucleotide frequencies are weak features).
		g.Adj, comm = PlantedPartition(rng, r.Vertices, r.Edges, r.Labels, 0.9)
	default:
		panic("graph: unknown recipe kind " + r.Kind)
	}
	if comm == nil {
		// Unlabelled datasets get random labels/features (runtime
		// evaluation only), mirroring the paper's treatment of Web-Google
		// and Com-Orkut.
		comm = make([]int32, r.Vertices)
		for i := range comm {
			comm[i] = int32(rng.Intn(r.Labels))
		}
	}
	g.Labels = comm
	g.Features = SynthesizeFeatures(rng, comm, r.Labels, r.FeatureDim, r.Signal)
	if r.HasSplits {
		g.TrainMask, g.ValMask, g.TestMask = RandomSplit(rng, r.Vertices, 0.6, 0.2)
	}
	return g
}

// Names returns the recipe names in the paper's order.
func Names() []string {
	rs := Recipes()
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
