package costmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gnnrdm/internal/hw"
)

func TestConfigIDRoundTrip(t *testing.T) {
	for _, layers := range []int{1, 2, 3, 4} {
		for id := 0; id < NumConfigs(layers); id++ {
			c := ConfigFromID(id, layers)
			if c.ID() != id {
				t.Fatalf("L=%d: id %d round-trips to %d", layers, id, c.ID())
			}
		}
	}
}

func TestConfigIDBitMapping(t *testing.T) {
	// The paper's case 10 is the dense-sparse-dense-sparse ordering:
	// fwd1=D, fwd2=S, bwd2=D, bwd1=S (§III-C / Fig. 4).
	c := ConfigFromID(10, 2)
	if c.Fwd[0] != DenseFirst || c.Fwd[1] != SparseFirst {
		t.Fatalf("ID 10 forward = %v", c.Fwd)
	}
	if c.Bwd[1] != DenseFirst || c.Bwd[0] != SparseFirst {
		t.Fatalf("ID 10 backward = %v", c.Bwd)
	}
	if c.String() != "fwd[DS] bwd[SD]" {
		t.Fatalf("String = %q", c.String())
	}
}

func net2(fin, fh, fout int, p int) Network {
	return Network{Dims: []int{fin, fh, fout}, N: 1000, NNZ: 50000, P: p, RA: p}
}

// TestGeneratorMatchesTableIV validates the whole-network cost generator
// against a literal transcription of the paper's Table IV on randomized
// feature widths. Rows 13 and 15 are known paper errata (see
// KnownTableIVErrata); for them the transcription encodes the printed
// values and only the sparse column (row 13) is compared.
func TestGeneratorMatchesTableIV(t *testing.T) {
	rows := TableIV()
	errata := map[int]bool{}
	for _, id := range KnownTableIVErrata {
		errata[id] = true
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		fin := 1 + rng.Intn(700)
		fh := 1 + rng.Intn(700)
		fout := 1 + rng.Intn(700)
		n := net2(fin, fh, fout, 4)
		for _, row := range rows {
			got := Evaluate(n, ConfigFromID(row.ID, 2))
			wantComm := row.Comm(float64(fin), float64(fh), float64(fout))
			wantSparse := row.Sparse(float64(fin), float64(fh), float64(fout))
			if !errata[row.ID] {
				if math.Abs(got.CommUnits-wantComm) > 1e-6 {
					t.Fatalf("ID %d (f=%d,%d,%d): comm %v want %v", row.ID, fin, fh, fout, got.CommUnits, wantComm)
				}
			}
			if row.ID != 15 { // row 15's sparse entry is also erroneous
				if math.Abs(got.SparseUnits-wantSparse) > 1e-6 {
					t.Fatalf("ID %d (f=%d,%d,%d): sparse %v want %v", row.ID, fin, fh, fout, got.SparseUnits, wantSparse)
				}
			}
		}
	}
}

func TestErratumRow13Model(t *testing.T) {
	// Config 13 = config 9 with backward layer 1 GEMM-first instead of
	// SpMM-first. Layer 1's backward cost changes from one f_h
	// redistribution (SpMM-first on an already-vertical G^1) to one f_h
	// mismatch redistribution plus the f_in input-gradient
	// redistribution; the weight-gradient reuse stays free either way.
	// Net difference: exactly +f_in — so the printed table, which lists
	// identical communication for 9 and 13, cannot be right.
	n := net2(600, 128, 40, 8)
	c9 := Evaluate(n, ConfigFromID(9, 2))
	c13 := Evaluate(n, ConfigFromID(13, 2))
	want := c9.CommUnits + 600
	if math.Abs(c13.CommUnits-want) > 1e-6 {
		t.Fatalf("row13 comm %v want %v (c9=%v)", c13.CommUnits, want, c9.CommUnits)
	}
}

func TestTableVIParetoCandidates(t *testing.T) {
	// Table VI: pareto-optimal configuration IDs for the eight datasets,
	// 2-layer GCN, f_h = 128.
	cases := []struct {
		name           string
		fin, fh, fout  int
		wantCandidates []int
	}{
		{"OGB-Arxiv", 128, 128, 40, []int{5}},
		{"OGB-MAG", 128, 128, 349, []int{10}},
		{"OGB-Products", 100, 128, 47, []int{5}},
		{"Reddit", 602, 128, 41, []int{2, 3, 10}},
		{"Web-Google", 256, 128, 100, []int{2, 3, 10}},
		{"Com-Orkut", 128, 128, 100, []int{5, 10}},
		{"CAMI-Airways", 256, 128, 25, []int{2, 3, 10}},
		{"CAMI-Oral", 256, 128, 32, []int{2, 3, 10}},
	}
	for _, tc := range cases {
		got := ParetoConfigs(net2(tc.fin, tc.fh, tc.fout, 8))
		if !equalInts(got, tc.wantCandidates) {
			t.Errorf("%s: pareto %v want %v", tc.name, got, tc.wantCandidates)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestParetoBasics(t *testing.T) {
	costs := []Cost{
		{ID: 0, CommElems: 10, SparseOps: 10},
		{ID: 1, CommElems: 5, SparseOps: 20},
		{ID: 2, CommElems: 20, SparseOps: 5},
		{ID: 3, CommElems: 10, SparseOps: 10}, // exact tie with 0 -> dropped
		{ID: 4, CommElems: 30, SparseOps: 30}, // dominated
	}
	got := Pareto(costs)
	if !equalInts(got, []int{0, 1, 2}) {
		t.Fatalf("pareto = %v", got)
	}
}

// Property: Pareto members are mutually non-dominating and every
// non-member is dominated or tied by some member.
func TestParetoProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := Network{
			Dims: []int{1 + rng.Intn(512), 1 + rng.Intn(512), 1 + rng.Intn(512)},
			N:    1000, NNZ: 10000, P: 8, RA: 8,
		}
		costs := EvaluateAll(n)
		ids := Pareto(costs)
		if len(ids) == 0 {
			return false
		}
		inSet := map[int]bool{}
		for _, id := range ids {
			inSet[id] = true
		}
		for _, a := range ids {
			for _, b := range ids {
				if a == b {
					continue
				}
				ca, cb := costs[a], costs[b]
				if cb.CommElems <= ca.CommElems && cb.SparseOps <= ca.SparseOps {
					return false // a member is (weakly) dominated by another
				}
			}
		}
		for id, c := range costs {
			if inSet[id] {
				continue
			}
			covered := false
			for _, m := range ids {
				cm := costs[m]
				if cm.CommElems <= c.CommElems && cm.SparseOps <= c.SparseOps {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateAbsoluteScaling(t *testing.T) {
	// CommElems must scale with N and SparseOps with nnz.
	a := Evaluate(Network{Dims: []int{64, 64, 8}, N: 1000, NNZ: 5000, P: 4, RA: 4}, ConfigFromID(0, 2))
	b := Evaluate(Network{Dims: []int{64, 64, 8}, N: 2000, NNZ: 10000, P: 4, RA: 4}, ConfigFromID(0, 2))
	if math.Abs(b.CommElems/a.CommElems-2) > 1e-9 || math.Abs(b.SparseOps/a.SparseOps-2) > 1e-9 {
		t.Fatalf("scaling wrong: %v %v", b.CommElems/a.CommElems, b.SparseOps/a.SparseOps)
	}
}

func TestRAReplicationCost(t *testing.T) {
	// RA < P adds (P/RA-1)·N·F broadcast per SpMM and shrinks each
	// redistribution to (RA-1)/RA·N·f.
	base := Network{Dims: []int{128, 128, 128}, N: 1000, NNZ: 50000, P: 8, RA: 8}
	half := base
	half.RA = 4
	cfg := ConfigFromID(10, 2)
	full := Evaluate(base, cfg)
	repl := Evaluate(half, cfg)
	// ID 10 comm = 4 redistributions of f_h and 4 SpMMs of width f_h.
	wantFull := float64(4.0 * 128 * float64(base.N) * 7 / 8)
	if math.Abs(full.CommElems-wantFull) > 1e-6 {
		t.Fatalf("full replication comm %v want %v", full.CommElems, wantFull)
	}
	wantRepl := float64(4.0*128*float64(base.N)*3/4) + float64(4.0*128*float64(base.N)*1)
	if math.Abs(repl.CommElems-wantRepl) > 1e-6 {
		t.Fatalf("RA=4 comm %v want %v", repl.CommElems, wantRepl)
	}
	if repl.SparseOps != full.SparseOps {
		t.Fatal("RA must not change sparse op count")
	}
}

func TestRAOneMovesMoreThanRDM(t *testing.T) {
	// RA=1 (the CAGNET regime) must communicate more than RA=P for any
	// realistic shape.
	n := Network{Dims: []int{128, 128, 40}, N: 100000, NNZ: 1000000, P: 8, RA: 8}
	n1 := n
	n1.RA = 1
	for id := 0; id < 16; id++ {
		cfg := ConfigFromID(id, 2)
		if Evaluate(n1, cfg).CommElems <= Evaluate(n, cfg).CommElems {
			t.Fatalf("ID %d: RA=1 should move more data", id)
		}
	}
}

func TestChooseRA(t *testing.T) {
	// Plenty of memory -> full replication.
	if got := ChooseRA(8, 48<<30, 1<<30, 1<<30); got != 8 {
		t.Fatalf("abundant memory: RA=%d want 8", got)
	}
	// Adjacency 4x the free memory per device -> RA = P/4 = 2.
	if got := ChooseRA(8, 1<<30, 0, 4<<30); got != 2 {
		t.Fatalf("tight memory: RA=%d want 2", got)
	}
	// No room at all -> RA=1.
	if got := ChooseRA(8, 1<<20, 8<<20, 64<<30); got != 1 {
		t.Fatalf("no memory: RA=%d want 1", got)
	}
	// Zero-size adjacency -> full replication.
	if got := ChooseRA(4, 1<<30, 0, 0); got != 4 {
		t.Fatalf("empty adj: RA=%d", got)
	}
	// Result always divides P.
	for p := 1; p <= 8; p *= 2 {
		for _, adj := range []int64{1 << 20, 1 << 28, 1 << 34} {
			ra := ChooseRA(p, 1<<30, 1<<28, adj)
			if p%ra != 0 || ra < 1 || ra > p {
				t.Fatalf("invalid RA=%d for P=%d", ra, p)
			}
		}
	}
}

func TestSpaceModelMonotonicInRA(t *testing.T) {
	// Table X: memory grows with RA; RA=1 is the CAGNET footprint.
	n := Network{Dims: []int{128, 128, 40}, N: 169343, NNZ: 2332486, P: 8, RA: 1}
	prev := int64(0)
	for _, ra := range []int{1, 2, 4, 8} {
		n.RA = ra
		s := SpaceModel(n)
		if s <= prev {
			t.Fatalf("space must grow with RA: %d at RA=%d", s, ra)
		}
		prev = s
	}
	// Sanity: OGB-Arxiv CAGNET footprint is a few tens of MB (Table X
	// reports 26MB).
	n.RA = 1
	s := SpaceModel(n)
	if s < 10<<20 || s > 80<<20 {
		t.Fatalf("arxiv CAGNET footprint %dMB implausible", s>>20)
	}
}

func TestThreeLayerEnumeration(t *testing.T) {
	n := Network{Dims: []int{128, 128, 128, 40}, N: 10000, NNZ: 100000, P: 8, RA: 8}
	costs := EvaluateAll(n)
	if len(costs) != 64 {
		t.Fatalf("3-layer space = %d configs, want 64", len(costs))
	}
	pareto := ParetoConfigs(n)
	if len(pareto) == 0 || len(pareto) > 16 {
		t.Fatalf("implausible pareto set size %d", len(pareto))
	}
	// All-sparse config must be valid and strictly costlier in comm than
	// the best.
	best := costs[pareto[0]]
	for _, id := range pareto[1:] {
		if costs[id].CommElems < best.CommElems {
			best = costs[id]
		}
	}
	if best.CommElems <= 0 {
		t.Fatal("comm must be positive")
	}
}

func TestValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("bad RA", func() {
		Evaluate(Network{Dims: []int{8, 8}, N: 10, NNZ: 10, P: 8, RA: 3}, ConfigFromID(0, 1))
	})
	expectPanic("layer mismatch", func() {
		Evaluate(Network{Dims: []int{8, 8}, N: 10, NNZ: 10, P: 2, RA: 2}, ConfigFromID(0, 2))
	})
	expectPanic("no layers", func() {
		Evaluate(Network{Dims: []int{8}, N: 10, NNZ: 10, P: 2, RA: 2}, Config{})
	})
}

func TestNoMemoIncreasesCost(t *testing.T) {
	base := Network{Dims: []int{128, 128, 40}, N: 100000, NNZ: 1000000, P: 8, RA: 8}
	nm := base
	nm.NoMemo = true
	// Config 10 relies on the memoized forward product for Y^2.
	cfg := ConfigFromID(10, 2)
	withMemo := Evaluate(base, cfg)
	without := Evaluate(nm, cfg)
	if without.CommElems <= withMemo.CommElems {
		t.Fatalf("no-memo comm %v should exceed %v", without.CommElems, withMemo.CommElems)
	}
	// Config 0 (all SpMM-first) never needs the memo: identical costs.
	cfg0 := ConfigFromID(0, 2)
	if Evaluate(base, cfg0) != Evaluate(nm, cfg0) {
		t.Fatal("all-S config must not depend on memoization")
	}
}

func TestCommVolumeBytes(t *testing.T) {
	c := Cost{CommElems: 10.4}
	if c.CommVolumeBytes() != 40 {
		t.Fatalf("bytes=%d", c.CommVolumeBytes())
	}
}

func TestPredictEpochTimePositiveAndOrdered(t *testing.T) {
	h := hw.A6000()
	n := Network{Dims: []int{602, 128, 41}, N: 232965, NNZ: 229930679, P: 8, RA: 8}
	tBest := PredictEpochTime(n, ConfigFromID(10, 2), h)
	tWorst := PredictEpochTime(n, ConfigFromID(12, 2), h)
	if tBest <= 0 || tWorst <= 0 {
		t.Fatal("predictions must be positive")
	}
	// Config 12 (2f_in+4f_h comm, 2f_in+2f_h sparse, f_in=602) must be
	// predicted slower than config 10 (4f_h each).
	if tBest >= tWorst {
		t.Fatalf("prediction ordering wrong: best %v worst %v", tBest, tWorst)
	}
}

func TestPredictEpochTimeRASensitivity(t *testing.T) {
	h := hw.A6000()
	n := Network{Dims: []int{128, 128, 40}, N: 1000000, NNZ: 50000000, P: 8, RA: 8}
	full := PredictEpochTime(n, ConfigFromID(10, 2), h)
	n.RA = 1
	cagnetLike := PredictEpochTime(n, ConfigFromID(10, 2), h)
	if cagnetLike <= full {
		t.Fatalf("RA=1 should be predicted slower: %v vs %v", cagnetLike, full)
	}
}
