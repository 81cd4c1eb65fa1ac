package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"gnnrdm/internal/sparse"
)

// ReadEdgeList parses a whitespace-separated edge list ("u v" per line,
// optionally "u v w"; '#' and '%' lines are comments) into a symmetric
// unit-weight adjacency matrix over n vertices. Vertex IDs must lie in
// [0, n); a weight w must be a finite positive number, and it is checked
// but not kept: the adjacency is unit-weight whatever w says. A line with
// a fourth field is an error. Self loops and duplicate edges are
// dropped/merged. This is the SNAP/OGB-style interchange format, so users
// can run the system on real datasets.
func ReadEdgeList(r io.Reader, n int) (*sparse.CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var coords []sparse.Coord
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("graph: line %d: want 2 or 3 fields, got %q", line, text)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q", line, fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q", line, fields[1])
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: line %d: vertex out of range [0,%d)", line, n)
		}
		if len(fields) == 3 {
			w, err := strconv.ParseFloat(fields[2], 32)
			if err != nil || !(w > 0) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("graph: line %d: weight %q is not a finite positive number", line, fields[2])
			}
		}
		coords = append(coords, sparse.Coord{Row: int32(u), Col: int32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return sparse.Symmetric(n, coords), nil
}

// WriteEdgeList writes the upper triangle of a symmetric adjacency as
// "u v" lines.
func WriteEdgeList(w io.Writer, adj *sparse.CSR) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < adj.Rows; i++ {
		for p := adj.RowPtr[i]; p < adj.RowPtr[i+1]; p++ {
			j := int(adj.ColIdx[p])
			if j > i {
				if _, err := fmt.Fprintf(bw, "%d %d\n", i, j); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// csrMagic identifies the binary CSR format.
const csrMagic = 0x43535231 // "CSR1"

// WriteCSR serializes a CSR in a compact little-endian binary format:
// magic, rows, cols, nnz (uint64), then rowptr (int64), colidx (int32),
// vals (float32 bits).
func WriteCSR(w io.Writer, m *sparse.CSR) error {
	bw := bufio.NewWriter(w)
	hdr := []uint64{csrMagic, uint64(m.Rows), uint64(m.Cols), uint64(m.NNZ())}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, m.RowPtr); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, m.ColIdx); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, m.Val); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSR deserializes a CSR written by WriteCSR. It rejects a stream
// whose arrays break the sparse.CSR invariant: row pointers that do not
// start at 0, end at nnz and never fall, or a row whose columns are not
// strictly ascending within [0, cols).
func ReadCSR(r io.Reader) (*sparse.CSR, error) {
	br := bufio.NewReader(r)
	var hdr [4]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("graph: reading CSR header: %w", err)
		}
	}
	if hdr[0] != csrMagic {
		return nil, fmt.Errorf("graph: bad CSR magic %#x", hdr[0])
	}
	const maxDim = 1 << 33
	if hdr[1] > maxDim || hdr[2] > maxDim || hdr[3] > maxDim*8 {
		return nil, fmt.Errorf("graph: implausible CSR dimensions %v", hdr[1:])
	}
	// Read index/value arrays in bounded chunks so a hostile header
	// cannot force a huge allocation before the stream proves it
	// actually carries that much data.
	rowPtr, err := readChunkedInt64(br, hdr[1]+1)
	if err != nil {
		return nil, err
	}
	colIdx, err := readChunkedInt32(br, hdr[3])
	if err != nil {
		return nil, err
	}
	vals, err := readChunkedFloat32(br, hdr[3])
	if err != nil {
		return nil, err
	}
	m := &sparse.CSR{
		Rows: int(hdr[1]), Cols: int(hdr[2]),
		RowPtr: rowPtr, ColIdx: colIdx, Val: vals,
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.Rows] != int64(hdr[3]) {
		return nil, fmt.Errorf("graph: corrupt CSR row pointers")
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return nil, fmt.Errorf("graph: non-monotone CSR row pointers at %d", i)
		}
	}
	for i := 0; i < m.Rows; i++ {
		row := m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]]
		for k, c := range row {
			if c < 0 || int(c) >= m.Cols {
				return nil, fmt.Errorf("graph: CSR column %d out of range in row %d", c, i)
			}
			if k > 0 && c <= row[k-1] {
				return nil, fmt.Errorf("graph: CSR row %d: column %d after %d, columns must strictly ascend", i, c, row[k-1])
			}
		}
	}
	return m, nil
}

// ReadLabels parses one integer label per line: a class in
// [0, classes), or -1 for an unlabeled vertex. Any other value is an
// error naming its line.
func ReadLabels(r io.Reader, n, classes int) ([]int32, error) {
	sc := bufio.NewScanner(r)
	labels := make([]int32, 0, n)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		v, err := strconv.Atoi(text)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad label %q", line, text)
		}
		if v < -1 || v >= classes {
			return nil, fmt.Errorf("graph: line %d: label %d outside [-1, %d)", line, v, classes)
		}
		labels = append(labels, int32(v))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(labels) != n {
		return nil, fmt.Errorf("graph: %d labels for %d vertices", len(labels), n)
	}
	return labels, nil
}

// chunkElems bounds per-read allocations while streaming array sections.
const chunkElems = 1 << 16

func readChunkedInt64(r io.Reader, n uint64) ([]int64, error) {
	out := make([]int64, 0, minU64(n, chunkElems))
	for uint64(len(out)) < n {
		c := minU64(n-uint64(len(out)), chunkElems)
		buf := make([]int64, c)
		if err := binary.Read(r, binary.LittleEndian, &buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out, nil
}

func readChunkedInt32(r io.Reader, n uint64) ([]int32, error) {
	out := make([]int32, 0, minU64(n, chunkElems))
	for uint64(len(out)) < n {
		c := minU64(n-uint64(len(out)), chunkElems)
		buf := make([]int32, c)
		if err := binary.Read(r, binary.LittleEndian, &buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out, nil
}

func readChunkedFloat32(r io.Reader, n uint64) ([]float32, error) {
	out := make([]float32, 0, minU64(n, chunkElems))
	for uint64(len(out)) < n {
		c := minU64(n-uint64(len(out)), chunkElems)
		buf := make([]float32, c)
		if err := binary.Read(r, binary.LittleEndian, &buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out, nil
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
