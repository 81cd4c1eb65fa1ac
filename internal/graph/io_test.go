package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
)

func TestReadEdgeList(t *testing.T) {
	in := `# comment
0 1
1 2
% another comment
2 0
3 3
0 1
`
	adj, err := ReadEdgeList(strings.NewReader(in), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Triangle 0-1-2, self loop dropped, duplicate merged: nnz = 6.
	if adj.NNZ() != 6 {
		t.Fatalf("nnz=%d want 6", adj.NNZ())
	}
	if adj.At(0, 1) != 1 || adj.At(1, 0) != 1 || adj.At(3, 3) != 0 {
		t.Fatal("bad entries")
	}

	// A weight column is checked and dropped: the adjacency is the same.
	weighted, err := ReadEdgeList(strings.NewReader("0 1 0.25\n1 2 4\n2 0 1e-3\n3 3 2\n0 1 7\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(weighted.ToDense(), adj.ToDense()) != 0 {
		t.Fatal("weight column changed the adjacency")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"short line":   "0\n",
		"bad vertex":   "x 1\n",
		"bad second":   "1 y\n",
		"out of range": "0 9\n",
		"negative":     "-1 0\n",
		"bad weight":   "0 1 xyz\n",
		"neg weight":   "1 2 -5\n",
		"zero weight":  "0 1 0\n",
		"underflow":    "0 1 1e-50\n",
		"inf weight":   "0 1 +Inf\n",
		"huge weight":  "0 1 1e39\n",
		"nan weight":   "0 1 NaN\n",
		"fourth field": "0 1 0.5 7\n",
	}
	for name, in := range cases {
		_, err := ReadEdgeList(strings.NewReader("2 3\n"+in), 4)
		if err == nil {
			t.Fatalf("%s: expected error", name)
		}
		if !strings.Contains(err.Error(), "line 2:") {
			t.Fatalf("%s: error %q does not name line 2", name, err)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adj, _ := PlantedPartition(rng, 50, 200, 4, 0.7)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, adj); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf, 50)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != adj.NNZ() {
		t.Fatalf("nnz %d != %d", back.NNZ(), adj.NNZ())
	}
	if tensor.MaxAbsDiff(back.ToDense(), adj.ToDense()) != 0 {
		t.Fatal("edge list round trip corrupted adjacency")
	}
}

func TestCSRBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	adj, _ := PlantedPartition(rng, 64, 400, 4, 0.7)
	norm := sparse.GCNNormalize(adj)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, norm); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != norm.Rows || back.NNZ() != norm.NNZ() {
		t.Fatal("shape corrupted")
	}
	if tensor.MaxAbsDiff(back.ToDense(), norm.ToDense()) != 0 {
		t.Fatal("values corrupted")
	}
}

func TestReadCSRRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	adj, _ := PlantedPartition(rng, 20, 80, 2, 0.7)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, adj); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, err := ReadCSR(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated.
	if _, err := ReadCSR(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Fatal("truncated file accepted")
	}
	// Column index out of range: corrupt a colidx byte region. The colidx
	// area begins after the 4x8-byte header + (rows+1)*8 rowptr bytes.
	off := 32 + (20+1)*8
	bad = append([]byte(nil), good...)
	bad[off] = 0xFF
	bad[off+1] = 0xFF
	bad[off+2] = 0xFF
	bad[off+3] = 0x7F
	if _, err := ReadCSR(bytes.NewReader(bad)); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	// A row whose columns are swapped, then one that repeats a column:
	// both break the ascending order CSR.At's binary search relies on.
	row := 0
	for adj.RowPtr[row+1]-adj.RowPtr[row] < 2 {
		row++
	}
	p := off + 4*int(adj.RowPtr[row])
	for name, edit := range map[string]func(b []byte){
		"unsorted":  func(b []byte) { copy(b[p:p+4], good[p+4:p+8]); copy(b[p+4:p+8], good[p:p+4]) },
		"duplicate": func(b []byte) { copy(b[p+4:p+8], good[p:p+4]) },
	} {
		bad = append([]byte(nil), good...)
		edit(bad)
		_, err := ReadCSR(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("%s row accepted", name)
		}
		if want := fmt.Sprintf("row %d:", row); !strings.Contains(err.Error(), want) {
			t.Fatalf("%s row: error %q does not name %q", name, err, want)
		}
	}
}

func TestReadLabels(t *testing.T) {
	labels, err := ReadLabels(strings.NewReader("1\n# c\n0\n-1\n2\n"), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != 1 || labels[2] != -1 || labels[3] != 2 {
		t.Fatalf("labels=%v", labels)
	}
	if _, err := ReadLabels(strings.NewReader("1\n2\n"), 4, 3); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := ReadLabels(strings.NewReader("x\n"), 1, 3); err == nil {
		t.Fatal("bad label accepted")
	}
	for _, bad := range []string{"3", "-2", "4294967297"} {
		_, err := ReadLabels(strings.NewReader("0\n# c\n"+bad+"\n"), 2, 3)
		if err == nil || !strings.Contains(err.Error(), "line 3:") {
			t.Fatalf("label %s: error %v, want one naming line 3", bad, err)
		}
	}
}
