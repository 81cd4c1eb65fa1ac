package graph

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gnnrdm/internal/sparse"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenScale shrinks every Table V recipe enough that its build takes well
// under a second, while Reddit's stand-in stays dense enough that most of
// its generated edges are duplicates.
const goldenScale = 1024

// csrLine fingerprints a CSR: its shape and the CRC-32 of the
// little-endian bytes of RowPtr, ColIdx and Val's bits.
func csrLine(name string, m *sparse.CSR) string {
	var buf []byte
	sum := func(put func()) uint32 {
		buf = buf[:0]
		put()
		return crc32.ChecksumIEEE(buf)
	}
	rp := sum(func() {
		for _, v := range m.RowPtr {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	})
	ci := sum(func() {
		for _, v := range m.ColIdx {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	})
	va := sum(func() {
		for _, v := range m.Val {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	})
	return fmt.Sprintf("%s %dx%d nnz=%d rowptr=%08x colidx=%08x val=%08x",
		name, m.Rows, m.Cols, m.NNZ(), rp, ci, va)
}

// goldenEdgeList is an edge-list fixture with everything ReadEdgeList
// cleans up: self loops, an edge listed in both directions, repeats,
// weights, comments and isolated vertices.
func goldenEdgeList() (string, int) {
	const n = 97
	var sb strings.Builder
	sb.WriteString("# fixture\n0 1\n1 0\n0 1 0.5\n5 5\n% comment\n96 3\n3 96\n")
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 800; i++ {
		u, v := rng.Intn(n-7), rng.Intn(n-7) // vertices 90..95 stay isolated
		if i%9 == 0 {
			v = u
		}
		fmt.Fprintf(&sb, "%d %d\n", u, v)
	}
	return sb.String(), n
}

// buildGolden fingerprints every adjacency the generators and the edge-list
// reader build, and its GCN and random-walk normalizations.
func buildGolden(t *testing.T) string {
	var lines []string
	add := func(name string, adj *sparse.CSR) {
		lines = append(lines,
			csrLine(name+" adj", adj),
			csrLine(name+" gcn", sparse.GCNNormalize(adj)),
			csrLine(name+" rownorm", sparse.RowNormalize(adj)))
	}
	for _, r := range Recipes() {
		add(fmt.Sprintf("%s/%d", r.Name, goldenScale), r.Scaled(goldenScale).Build().Adj)
	}
	add("erdos-renyi", ErdosRenyi(rand.New(rand.NewSource(7)), 300, 2000))
	text, n := goldenEdgeList()
	adj, err := ReadEdgeList(strings.NewReader(text), n)
	if err != nil {
		t.Fatal(err)
	}
	add("edgelist", adj)
	return strings.Join(lines, "\n") + "\n"
}

// TestBuildGolden pins, bit for bit, the CSR arrays of every recipe's
// adjacency (at 1/goldenScale), of an Erdős–Rényi graph and of an edge-list
// fixture, each with its two normalizations. Regenerate with -update only
// when a change to the generated graphs is intended.
func TestBuildGolden(t *testing.T) {
	got := buildGolden(t)
	path := filepath.Join("testdata", "build_golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "<missing>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("line %d:\n got  %s\n want %s", i+1, gl[i], w)
			}
		}
		t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
	}
}
