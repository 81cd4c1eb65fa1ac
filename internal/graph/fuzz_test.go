package graph

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks the parser never panics, that every data line of
// an input it accepts has 2 or 3 fields, two vertex IDs and a finite
// positive weight, and that what it returns is a valid symmetric loop-free
// adjacency.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n", 8)
	f.Add("# c\n3 3\n0 7\n", 8)
	f.Add("", 1)
	f.Add("0 1 0.5\n", 4)
	f.Fuzz(func(t *testing.T, in string, n int) {
		if n < 1 || n > 256 {
			return
		}
		adj, err := ReadEdgeList(strings.NewReader(in), n)
		if err != nil {
			return
		}
		for _, line := range strings.Split(in, "\n") {
			text := strings.TrimSpace(line)
			if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) < 2 || len(fields) > 3 {
				t.Fatalf("accepted %d fields in %q", len(fields), text)
			}
			for _, f := range fields[:2] {
				if _, err := strconv.Atoi(f); err != nil {
					t.Fatalf("accepted vertex %q in %q", f, text)
				}
			}
			if len(fields) == 3 {
				w, err := strconv.ParseFloat(fields[2], 32)
				if err != nil || !(w > 0) || math.IsInf(w, 1) {
					t.Fatalf("accepted weight %q in %q", fields[2], text)
				}
			}
		}
		if adj.Rows != n || adj.Cols != n {
			t.Fatalf("bad shape %dx%d", adj.Rows, adj.Cols)
		}
		for i := 0; i < n; i++ {
			for p := adj.RowPtr[i]; p < adj.RowPtr[i+1]; p++ {
				j := int(adj.ColIdx[p])
				if j == i {
					t.Fatal("self loop survived")
				}
				if adj.At(j, i) != adj.Val[p] {
					t.Fatal("asymmetric output")
				}
			}
		}
	})
}

// FuzzReadLabels checks the label parser never panics and that every
// label it accepts is a class in [0, classes) or -1 (unlabeled).
func FuzzReadLabels(f *testing.F) {
	f.Add("1\n# c\n0\n-1\n", 3, 3)
	f.Add("7\n", 1, 2)
	f.Add("4294967297\n", 1, 2)
	f.Fuzz(func(t *testing.T, in string, n, classes int) {
		if n < 0 || n > 256 {
			return
		}
		labels, err := ReadLabels(strings.NewReader(in), n, classes)
		if err != nil {
			return
		}
		if len(labels) != n {
			t.Fatalf("accepted %d labels for %d vertices", len(labels), n)
		}
		for i, l := range labels {
			if l < -1 || int(l) >= classes {
				t.Fatalf("label %d of vertex %d outside [-1, %d)", l, i, classes)
			}
		}
	})
}

// FuzzReadCSR checks the binary reader rejects or safely parses
// arbitrary input without panicking or over-allocating.
func FuzzReadCSR(f *testing.F) {
	var seed bytes.Buffer
	adj, _ := PlantedPartition(newRand(1), 16, 48, 2, 0.7)
	_ = WriteCSR(&seed, adj)
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x52, 0x53, 0x43, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadCSR(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted matrices must satisfy the sparse.CSR invariant.
		if m.RowPtr[0] != 0 || m.RowPtr[m.Rows] != m.NNZ() {
			t.Fatal("invalid row pointers accepted")
		}
		for i := 0; i < m.Rows; i++ {
			if m.RowPtr[i] > m.RowPtr[i+1] {
				t.Fatalf("falling row pointers accepted at row %d", i)
			}
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				if c := m.ColIdx[p]; c < 0 || int(c) >= m.Cols {
					t.Fatalf("column %d accepted in row %d", c, i)
				}
				if p > m.RowPtr[i] && m.ColIdx[p] <= m.ColIdx[p-1] {
					t.Fatalf("row %d accepted with columns not strictly ascending", i)
				}
			}
		}
	})
}
