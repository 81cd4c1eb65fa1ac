package sparse

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// coordsFromBytes decodes a fuzz input: the row and column counts (1 to
// 24 each), then 6-byte records of row, column and the value's
// little-endian float32 bits.
func coordsFromBytes(data []byte) (r, c int, coords []Coord, ok bool) {
	if len(data) < 2 {
		return 0, 0, nil, false
	}
	r, c = 1+int(data[0])%24, 1+int(data[1])%24
	for body := data[2:]; len(body) >= 6; body = body[6:] {
		coords = append(coords, Coord{
			Row: int32(int(body[0]) % r),
			Col: int32(int(body[1]) % c),
			Val: math.Float32frombits(binary.LittleEndian.Uint32(body[2:6])),
		})
	}
	return r, c, coords, true
}

// rec encodes one coordsFromBytes record.
func rec(row, col byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32([]byte{row, col}, math.Float32bits(v))
}

// referenceFromCoords is FromCoords' specification, written the slow way:
// stable-sort a copy by (row, col), then sum each run of equal
// coordinates in input order starting from +0.
func referenceFromCoords(r, c int, coords []Coord) *CSR {
	sorted := slices.Clone(coords)
	slices.SortStableFunc(sorted, func(a, b Coord) int {
		return cmp.Or(cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col))
	})
	m := NewEmpty(r, c)
	for i := 0; i < len(sorted); {
		e, v := sorted[i], float32(0)
		for ; i < len(sorted) && sorted[i].Row == e.Row && sorted[i].Col == e.Col; i++ {
			v += sorted[i].Val
		}
		m.ColIdx = append(m.ColIdx, e.Col)
		m.Val = append(m.Val, v)
		m.RowPtr[e.Row+1]++
	}
	for i := 0; i < r; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// requireSameCSR fails unless got and want have the same shape and the
// same RowPtr, ColIdx and Val bits.
func requireSameCSR(t *testing.T, what string, got, want *CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || !slices.Equal(got.RowPtr, want.RowPtr) {
		t.Fatalf("%s: shape %dx%d RowPtr %v, want %dx%d RowPtr %v",
			what, got.Rows, got.Cols, got.RowPtr, want.Rows, want.Cols, want.RowPtr)
	}
	if !slices.Equal(got.ColIdx, want.ColIdx) {
		t.Fatalf("%s: ColIdx %v, want %v", what, got.ColIdx, want.ColIdx)
	}
	if len(got.Val) != len(want.Val) {
		t.Fatalf("%s: %d values, want %d", what, len(got.Val), len(want.Val))
	}
	for p := range want.Val {
		if g, w := math.Float32bits(got.Val[p]), math.Float32bits(want.Val[p]); g != w {
			t.Fatalf("%s: Val[%d] bits %08x, want %08x", what, p, g, w)
		}
	}
}

// FuzzFromCoords drives COO→CSR construction with arbitrary coordinate
// streams (duplicates, empty rows, unsorted rows, any float32 bits) and
// checks it bit for bit against referenceFromCoords, the CSR invariants,
// that the caller's slice is left as it was, and that Transpose is an
// exact involution on the result.
func FuzzFromCoords(f *testing.F) {
	f.Add(slices.Concat([]byte{8, 8}, rec(3, 5, 2), rec(3, 5, -10), rec(0, 0, 0.5))) // duplicate (3,5)
	f.Add(slices.Concat([]byte{1, 1}, rec(0, 0, 7)))
	// Three duplicates whose float32 sum depends on the order: 1e8 + 1
	// rounds back to 1e8, so (1e8, 1, -1e8) sums to 0 and (1e8, -1e8, 1)
	// to 1, and either reversed gives the other's sum.
	f.Add(slices.Concat([]byte{4, 4}, rec(2, 1, 1e8), rec(2, 3, 0.25), rec(2, 1, 1), rec(2, 0, 1e8),
		rec(2, 1, -1e8), rec(2, 0, -1e8), rec(2, 0, 1)))
	f.Add([]byte{16, 2})
	f.Add([]byte{})
	// One row of 27 entries, columns falling, longer than the rows the
	// sort handles by insertion: an unstable row sort reorders the 1e8, 1,
	// 4.5 and -1e8 at column 5, which sum to 8 in input order.
	long := []byte{0, 23}
	for k := 0; k < 24; k++ {
		long = append(long, rec(0, byte(23-k), float32(k)/4)...)
		switch k {
		case 2:
			long = append(long, rec(0, 5, 1e8)...)
		case 11:
			long = append(long, rec(0, 5, 1)...)
		case 20:
			long = append(long, rec(0, 5, -1e8)...)
		}
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, c, coords, ok := coordsFromBytes(data)
		if !ok {
			return
		}
		before := slices.Clone(coords)
		m := FromCoords(r, c, coords)
		for k, e := range coords {
			b := before[k]
			if e.Row != b.Row || e.Col != b.Col || math.Float32bits(e.Val) != math.Float32bits(b.Val) {
				t.Fatalf("coords[%d] changed from %v to %v", k, b, e)
			}
		}
		requireSameCSR(t, "FromCoords", m, referenceFromCoords(r, c, coords))
		for i := 0; i < r; i++ {
			for p := m.RowPtr[i] + 1; p < m.RowPtr[i+1]; p++ {
				if m.ColIdx[p] <= m.ColIdx[p-1] {
					t.Fatalf("columns not strictly increasing in row %d", i)
				}
			}
		}
		// Transpose is an involution, exactly.
		requireSameCSR(t, "transpose twice", m.Transpose().Transpose(), m)
	})
}

// doubledSymmetric is the pattern of E + Eᵀ built the way Symmetric's
// specification reads: both directions of every non-loop edge through
// FromCoords, duplicates merged, values reset to 1.
func doubledSymmetric(n int, edges []Coord) *CSR {
	var sym []Coord
	for _, e := range edges {
		if e.Row != e.Col {
			sym = append(sym, Coord{Row: e.Row, Col: e.Col, Val: 1}, Coord{Row: e.Col, Col: e.Row, Val: 1})
		}
	}
	m := FromCoords(n, n, sym)
	for p := range m.Val {
		m.Val[p] = 1
	}
	return m
}

// FuzzSymmetric checks Symmetric bit for bit against doubledSymmetric on
// arbitrary edge lists (FuzzFromCoords' layout, square, values ignored).
func FuzzSymmetric(f *testing.F) {
	// Both directions of 0-1, a repeat of it, a self loop, empty rows.
	f.Add(slices.Concat([]byte{6, 5}, rec(0, 1, 0), rec(1, 0, 0), rec(0, 1, 2), rec(3, 3, 1), rec(4, 2, 0)))
	f.Add(slices.Concat([]byte{1, 0}, rec(0, 0, 1)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, _, edges, ok := coordsFromBytes(data)
		if !ok {
			return
		}
		for k := range edges {
			edges[k].Col %= int32(n)
		}
		requireSameCSR(t, "Symmetric", Symmetric(n, edges), doubledSymmetric(n, edges))
	})
}
