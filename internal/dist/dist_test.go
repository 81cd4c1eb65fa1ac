package dist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/tensor"
)

func TestPartRange(t *testing.T) {
	// 10 items over 4 parts: 3,3,2,2.
	wants := [][2]int{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	for i, w := range wants {
		lo, hi := PartRange(10, 4, i)
		if lo != w[0] || hi != w[1] {
			t.Fatalf("part %d: [%d,%d) want %v", i, lo, hi, w)
		}
	}
	// Parts cover [0, n) exactly for arbitrary n, p.
	f := func(n, p uint8) bool {
		if p == 0 {
			return true
		}
		at := 0
		for i := 0; i < int(p); i++ {
			lo, hi := PartRange(int(n), int(p), i)
			if lo != at || hi < lo {
				return false
			}
			at = hi
		}
		return at == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutNormalize(t *testing.T) {
	if G(1).normalize(4) != H {
		t.Fatal("G(1) should normalize to H")
	}
	if G(4).normalize(4) != V {
		t.Fatal("G(P) should normalize to V")
	}
	if G(2).normalize(4).Kind != Grid {
		t.Fatal("G(2) should stay Grid at P=4")
	}
	if H.String() != "H" || V.String() != "V" || G(2).String() != "G2" || R.String() != "R" {
		t.Fatal("layout strings")
	}
}

func TestGridPJMustDivideP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for PJ not dividing P")
		}
	}()
	G(3).normalize(8)
}

func TestTileShapes(t *testing.T) {
	// P=4, 10x6 matrix.
	cases := []struct {
		l          Layout
		rank, r, c int
	}{
		{H, 0, 3, 6}, {H, 3, 2, 6},
		{V, 0, 10, 2}, {V, 2, 10, 1},
		{G(2), 0, 5, 3}, {G(2), 3, 5, 3},
		{R, 1, 10, 6},
	}
	for _, tc := range cases {
		r, c := TileShape(tc.l, 4, tc.rank, 10, 6)
		if r != tc.r || c != tc.c {
			t.Fatalf("%v rank %d: %dx%d want %dx%d", tc.l, tc.rank, r, c, tc.r, tc.c)
		}
	}
}

// TestSplitMatchesPartRange: Split's two-valued dimensions and cuts,
// and so TileShape, give every rank the tile its PartRange row and
// column ranges span, for every layout, on square, prime and composite
// P, with dimensions below, at and above P.
func TestSplitMatchesPartRange(t *testing.T) {
	want := func(l Layout, p, rank, rows, cols int) (int, int) {
		span := func(n, parts, i int) int {
			lo, hi := PartRange(n, parts, i)
			return hi - lo
		}
		switch l.normalize(p).Kind {
		case Horizontal:
			return span(rows, p, rank), cols
		case Vertical:
			return rows, span(cols, p, rank)
		case Grid:
			return span(rows, p/l.PJ, rank/l.PJ), span(cols, l.PJ, rank%l.PJ)
		}
		return rows, cols
	}
	for _, p := range []int{1, 2, 3, 4, 6, 12, 13, 16} {
		layouts := []Layout{H, V, R}
		for pj := 2; pj < p; pj++ {
			if p%pj == 0 {
				layouts = append(layouts, G(pj))
			}
		}
		for _, l := range layouts {
			for _, rows := range []int{0, 1, p - 1, p, 2*p + 3, 97} {
				for _, cols := range []int{1, 5, p + 1, 64} {
					s := Split(l, p, rows, cols)
					for r := range p {
						wr, wc := want(l, p, r, rows, cols)
						c := s.Class(r)
						gr, gc := s.Rows[c>>1], s.Cols[c&1]
						tr, tc := TileShape(l, p, r, rows, cols)
						if gr != wr || gc != wc || tr != wr || tc != wc {
							t.Fatalf("%v p=%d %dx%d rank %d: Split gives %dx%d, TileShape %dx%d, PartRange %dx%d", l, p, rows, cols, r, gr, gc, tr, tc, wr, wc)
						}
					}
				}
			}
		}
	}
}

func globalRand(rng *rand.Rand, r, c int) *tensor.Dense {
	m := tensor.NewDense(r, c)
	m.Randomize(rng, 1)
	return m
}

// runDist distributes `global` under layout `from` on p devices, applies
// fn per device, and assembles the results.
func runDist(t *testing.T, p int, global *tensor.Dense, from Layout, fn func(m *Mat) *Mat) (*tensor.Dense, *comm.Fabric) {
	t.Helper()
	outs := make([]*Mat, p)
	f := comm.Run(p, hw.A6000(), func(d *comm.Device) {
		m := Distribute(d, from, global)
		outs[d.Rank] = fn(m)
	})
	return Assemble(outs), f
}

func TestDistributeAssembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	global := globalRand(rng, 13, 9)
	for _, l := range []Layout{H, V, R, G(2)} {
		got, fab := runDist(t, 4, global, l, func(m *Mat) *Mat { return m })
		if tensor.MaxAbsDiff(got, global) != 0 {
			t.Fatalf("layout %v: assemble mismatch", l)
		}
		if fab.TotalVolume() != 0 {
			t.Fatalf("Distribute must not communicate (layout %v)", l)
		}
	}
}

func TestRedistributeAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	global := globalRand(rng, 17, 11)
	layouts := []Layout{H, V, G(2), R}
	for _, from := range layouts {
		for _, to := range layouts {
			got, _ := runDist(t, 4, global, from, func(m *Mat) *Mat {
				return m.Redistribute(to)
			})
			if tensor.MaxAbsDiff(got, global) != 0 {
				t.Fatalf("%v -> %v: values corrupted", from, to)
			}
		}
	}
}

func TestRedistributeIdentityFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	global := globalRand(rng, 8, 8)
	_, fab := runDist(t, 4, global, H, func(m *Mat) *Mat { return m.Redistribute(H) })
	if fab.TotalVolume() != 0 {
		t.Fatal("identity redistribution must be free")
	}
}

func TestRedistributionVolumeHV(t *testing.T) {
	// H -> V moves exactly (P-1)/P * N * f elements (Fig. 7 / §III-D).
	const n, fdim, p = 64, 32, 4
	rng := rand.New(rand.NewSource(4))
	global := globalRand(rng, n, fdim)
	_, fab := runDist(t, p, global, H, func(m *Mat) *Mat { return m.Redistribute(V) })
	wantBytes := int64((p - 1) * n * fdim / p * 4)
	if got := fab.Meters().Volume[hw.OpAllToAll]; got != wantBytes {
		t.Fatalf("H->V volume=%d want %d", got, wantBytes)
	}
}

func TestRedistributionVolumeConstantInP(t *testing.T) {
	// The paper's central scalability property: redistribution volume is
	// (P-1)/P·N·f — essentially constant (and bounded by N·f) in P.
	const n, fdim = 96, 24
	rng := rand.New(rand.NewSource(5))
	global := globalRand(rng, n, fdim)
	var prev int64
	for _, p := range []int{2, 4, 8} {
		_, fab := runDist(t, p, global, H, func(m *Mat) *Mat { return m.Redistribute(V) })
		v := fab.Meters().Volume[hw.OpAllToAll]
		want := int64((p - 1) * n * fdim / p * 4)
		if v != want {
			t.Fatalf("P=%d: volume %d want %d", p, v, want)
		}
		if v > int64(n*fdim*4) {
			t.Fatalf("P=%d: volume %d exceeds N*f bound", p, v)
		}
		if prev != 0 && float64(v) > 1.5*float64(prev) {
			t.Fatalf("volume must be ~constant in P: %d -> %d", prev, v)
		}
		prev = v
	}
}

func TestGridToHVolumeRowGroupLocal(t *testing.T) {
	// Grid(R_A) -> H exchanges only within row groups:
	// (R_A-1)/R_A · N · f elements total (§IV-A4).
	const n, fdim, p, ra = 64, 32, 8, 2
	rng := rand.New(rand.NewSource(6))
	global := globalRand(rng, n, fdim)
	_, fab := runDist(t, p, global, G(ra), func(m *Mat) *Mat { return m.Redistribute(H) })
	want := int64((ra - 1) * n * fdim / ra * 4)
	if got := fab.Meters().Volume[hw.OpAllToAll]; got != want {
		t.Fatalf("G%d->H volume=%d want %d", ra, got, want)
	}
}

func TestHToGridVolume(t *testing.T) {
	const n, fdim, p, ra = 64, 32, 8, 4
	rng := rand.New(rand.NewSource(7))
	global := globalRand(rng, n, fdim)
	_, fab := runDist(t, p, global, H, func(m *Mat) *Mat { return m.Redistribute(G(ra)) })
	want := int64((ra - 1) * n * fdim / ra * 4)
	if got := fab.Meters().Volume[hw.OpAllToAll]; got != want {
		t.Fatalf("H->G%d volume=%d want %d", ra, got, want)
	}
}

func TestReplicateAndBack(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	global := globalRand(rng, 10, 10)
	got, fab := runDist(t, 4, global, H, func(m *Mat) *Mat {
		rep := m.Redistribute(R)
		if rep.Local.Rows != 10 || rep.Local.Cols != 10 {
			t.Error("replicated tile must be full size")
		}
		return rep.Redistribute(V)
	})
	if tensor.MaxAbsDiff(got, global) != 0 {
		t.Fatal("replicate round trip corrupted values")
	}
	if fab.Meters().Volume[hw.OpAllGather] == 0 {
		t.Fatal("replicate must use allgather")
	}
}

func TestUnevenDimensions(t *testing.T) {
	// Dimensions not divisible by P or the grid.
	rng := rand.New(rand.NewSource(9))
	global := globalRand(rng, 19, 7)
	for _, to := range []Layout{V, G(2)} {
		got, _ := runDist(t, 4, global, H, func(m *Mat) *Mat { return m.Redistribute(to) })
		if tensor.MaxAbsDiff(got, global) != 0 {
			t.Fatalf("uneven H->%v corrupted", to)
		}
	}
}

func TestFromLocalValidation(t *testing.T) {
	fab := comm.NewFabric(2, hw.A6000())
	d := fab.Device(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape mismatch panic")
		}
	}()
	FromLocal(d, H, 10, 4, tensor.NewDense(3, 4)) // should be 5x4
}

// Property: any redistribution chain preserves values exactly.
func TestRedistributionChainProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, fd := 4+rng.Intn(40), 4+rng.Intn(20)
		global := globalRand(rng, n, fd)
		layouts := []Layout{H, V, G(2), R, V, H}
		outs := make([]*Mat, 4)
		comm.Run(4, hw.A6000(), func(d *comm.Device) {
			m := Distribute(d, H, global)
			for _, l := range layouts {
				m = m.Redistribute(l)
			}
			outs[d.Rank] = m
		})
		return tensor.MaxAbsDiff(Assemble(outs), global) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestRedistributeMask(t *testing.T) {
	// A 0/1 mask must survive redistribution and move only ~1/4 the bytes.
	const n, fdim, p = 32, 16, 4
	rng := rand.New(rand.NewSource(10))
	global := tensor.NewDense(n, fdim)
	for i := range global.Data {
		if rng.Float64() < 0.5 {
			global.Data[i] = 1
		}
	}
	outs := make([]*Mat, p)
	fabMask := comm.Run(p, hw.A6000(), func(d *comm.Device) {
		outs[d.Rank] = Distribute(d, H, global).RedistributeMask(V)
	})
	if tensor.MaxAbsDiff(Assemble(outs), global) != 0 {
		t.Fatal("mask corrupted by packed redistribution")
	}
	fabFull := comm.Run(p, hw.A6000(), func(d *comm.Device) {
		outs[d.Rank] = Distribute(d, H, global).Redistribute(V)
	})
	mv, fv := fabMask.Meters().Volume[hw.OpAllToAll], fabFull.Meters().Volume[hw.OpAllToAll]
	if mv*3 > fv {
		t.Fatalf("packed mask volume %d should be ~1/4 of %d", mv, fv)
	}
	// Replicated endpoints unsupported.
	fab := comm.NewFabric(1, hw.A6000())
	m := Distribute(fab.Device(0), R, global)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for replicated mask redistribution")
		}
	}()
	m.RedistributeMask(H)
}

// TestOverlapCountMatchesVisits checks the O(p) pair count against the
// enumerator it sizes buffers for, over every layout pair of small
// shapes: empty tiles (rows or cols below the part count), uneven
// parts and replicated sides included.
func TestOverlapCountMatchesVisits(t *testing.T) {
	for p := 1; p <= 12; p++ {
		layouts := []Layout{H, V, R}
		for pj := 2; pj < p; pj++ {
			if p%pj == 0 {
				layouts = append(layouts, G(pj))
			}
		}
		for _, from := range layouts {
			for _, to := range layouts {
				for rows := 1; rows <= 14; rows++ {
					for cols := 1; cols <= 9; cols++ {
						visits := 0
						OverlapPairs(from, to, p, rows, cols, func(_, _, _, _, _, _ int) { visits++ })
						if n := OverlapCount(from, to, p, rows, cols); n != visits {
							t.Fatalf("P=%d %v->%v on %dx%d: OverlapCount %d, OverlapPairs visited %d",
								p, from, to, rows, cols, n, visits)
						}
					}
				}
			}
		}
	}
}
