package topo

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gnnrdm/internal/hw"
)

var update = flag.Bool("update", false, "rewrite golden files")

// resolverGroups are the groups the resolver golden prices on
// 4x4:nvlink,ib: a singleton, groups spanning nodes with one and two
// members per node (node-uniform), a ragged span (no Hier), an
// intra-node group (Auto's early Ring), and 8 and 16 ranks over two
// and four nodes.
var resolverGroups = [][]int{
	{5},
	{0, 4, 8},
	{3, 4, 5},
	{0, 1, 4, 5, 8, 9},
	{4, 5, 6, 7},
	{0, 1, 2, 3, 4, 5, 6, 7},
	{2, 3, 4, 5, 6, 7, 8, 9},
	{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
}

// resolverScales are the per-member payload scales: empty, latency-
// bound and bandwidth-bound, so Auto's choice moves with the size.
var resolverScales = []int64{0, 256, 1 << 22}

// raggedChunks returns p element-aligned byte chunks around scale.
func raggedChunks(p int, scale int64) []int64 {
	out := make([]int64, p)
	if scale == 0 {
		return out
	}
	for i := range out {
		out[i] = scale + int64(4*((3*i)%5))
	}
	return out
}

// TestResolverGolden prints, for each collective × requested algorithm
// × group × payload, the resolved algorithm, the bits of the modelled
// time and the per-tier bytes, and diffs the dump against
// testdata/resolver.golden: the algorithm selection and every price it
// returns are pinned byte for byte.
func TestResolverGolden(t *testing.T) {
	h := hw.A6000()
	tp := must(t, "4x4:nvlink,ib", 16)
	var b strings.Builder
	line := func(coll string, req Algorithm, g []int, scale int64, got Algorithm, c Cost) {
		fmt.Fprintf(&b, "%-13s %-4v %-48s %8d -> %-4v %016x %d %d\n", coll, req,
			fmt.Sprint(g), scale, got, math.Float64bits(c.Time), c.Tier[TierIntra], c.Tier[TierInter])
	}
	for _, g := range resolverGroups {
		p := len(g)
		for _, scale := range resolverScales {
			chunks := raggedChunks(p, scale)
			pair := func(i, j int) int64 {
				if scale == 0 {
					return 0
				}
				return scale + int64(4*((7*i+3*j)%5))
			}
			for _, req := range []Algorithm{Ring, RHD, Hier, Auto} {
				got, c := tp.AllReduce(h, req, g, scale*int64(p)+12)
				line("allreduce", req, g, scale, got, c)
				got, c = tp.AllGather(h, req, g, chunks)
				line("allgather", req, g, scale, got, c)
				got, c = tp.ReduceScatter(h, req, g, chunks)
				line("reducescatter", req, g, scale, got, c)
				got, c = tp.AllToAll(h, req, g, pair)
				line("alltoall", req, g, scale, got, c)
			}
		}
	}
	path := filepath.Join("testdata", "resolver.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("resolver dump differs at line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("resolver dump has %d lines, golden %d", len(gotLines), len(wantLines))
	}
}
