package plan

import (
	"fmt"
	"strings"
	"testing"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
)

func spec2(n, cfg, p, ra int, memo bool) Spec {
	return Spec{
		N: n, Dims: []int{16, 12, 8},
		Config: costmodel.ConfigFromID(cfg, 2),
		P:      p, RA: ra, Memoize: memo, InputGrad: true,
	}
}

// TestPriceMatchesCostModel is the planner's source-of-truth
// crosscheck: for every Table IV ordering, device count, replication
// factor and memoization setting, the optimized schedule's priced RDM
// bytes must equal costmodel.EvaluateEngine — which the simulator's
// meters are already tested byte-equal to (internal/verify).
func TestPriceMatchesCostModel(t *testing.T) {
	dims := []int{16, 12, 8}
	const n = 64 // divisible by every P so the closed-form units are exact
	h := hw.A6000()
	for _, p := range []int{1, 2, 4, 8} {
		for ra := 1; ra <= p; ra++ {
			if p%ra != 0 {
				continue
			}
			for cfg := 0; cfg < costmodel.NumConfigs(2); cfg++ {
				for _, memo := range []bool{true, false} {
					sp := spec2(n, cfg, p, ra, memo)
					sched := Compile(sp).Optimize()
					got := sched.Price(100, h).RDMBytes()
					net := costmodel.Network{Dims: dims, N: n, NNZ: 100, P: p, RA: ra, NoMemo: !memo}
					want := costmodel.EvaluateEngine(net, sp.Config).CommVolumeBytes()
					if got != want {
						t.Errorf("P=%d RA=%d cfg=%d memo=%v: priced %d bytes, cost model %d (Δ=%d)\n%s",
							p, ra, cfg, memo, got, want, got-want, sched)
					}
				}
			}
		}
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	specs := []Spec{
		spec2(64, 0, 4, 4, true),
		spec2(64, 10, 8, 2, true),
		spec2(64, 15, 4, 2, false),
		spec2(7, 3, 2, 1, true), // ragged rows
		{N: 64, Dims: []int{16, 12, 10, 8}, Config: costmodel.ConfigFromID(37, 3), P: 4, RA: 2, Memoize: true, InputGrad: true},
		{N: 64, Dims: []int{16, 12, 8}, Config: costmodel.ConfigFromID(6, 2), P: 4, RA: 4, SAGE: true, Memoize: true},
	}
	var scheds []*Schedule
	for _, sp := range specs {
		scheds = append(scheds, Compile(sp), Compile(sp).Optimize())
	}
	scheds = append(scheds, sparseABCInference()...)
	seen := map[string]bool{}
	for i, s := range scheds {
		d1 := s.String()
		parsed, err := Parse(d1)
		if err != nil {
			t.Fatalf("schedule %d: parse own dump: %v\n%s", i, err, d1)
		}
		if d2 := parsed.String(); d2 != d1 {
			t.Fatalf("schedule %d: dump not a parse fixed point:\n--- first\n%s--- second\n%s", i, d1, d2)
		}
		for _, line := range strings.Split(d1, "\n") {
			if f := strings.Fields(line); strings.HasPrefix(line, "  s") {
				if len(f) > 2 && f[2] == "=" {
					f = f[2:]
				}
				seen[f[1]] = true
			}
		}
	}
	// Every mnemonic of the op table must have round-tripped.
	for _, f := range opTable {
		for _, mn := range []string{f.mn, f.flagMn} {
			if mn != "" && !seen[mn] {
				t.Errorf("no round-trip case prints %q", mn)
			}
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	good := Compile(spec2(64, 0, 4, 4, true)).Optimize().String()
	bad := []string{
		"",
		"schedule p=0 ra=1 n=4 dims=2,2 config=0 sage=0 memoize=0 inputgrad=0 regs=1 weights=1",
		"schedule p=4 ra=3 n=4 dims=2,2 config=0 sage=0 memoize=0 inputgrad=0 regs=1 weights=1",
		strings.Replace(good, "section init", "section bogus", 1),
		strings.Replace(good, "r0 = input", "r0 = inptu", 1),
		good + "  s1 update\n", // op after final section with duplicate step
		strings.Replace(good, "weights=2", "weights=5", 1),
		// Text String never emits: padded numbers, extra spaces,
		// trailing header tokens, a missing final newline.
		strings.Replace(good, "p=4", "p=04", 1),
		strings.Replace(good, "section init", "section  init", 1),
		strings.Replace(good, "r0 = input", "r0 =  input", 1),
		strings.Replace(good, "weights=2", "weights=2 junk", 1),
		strings.TrimSuffix(good, "\n"),
	}
	for i, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("case %d: malformed schedule accepted:\n%s", i, text)
		}
	}
	// A DAG dump whose header carries trailing tokens once made ParseDAG
	// slice its own dump at the input's offset and panic.
	trailing := "schedule p=1 ra=1 n=4 dims=3,2 config=0 sage=0 memoize=0 inputgrad=0 regs=0 weights=1" +
		strings.Repeat(" x", 50) + "\nedges\n"
	if _, err := ParseDAG(trailing); err == nil {
		t.Error("ParseDAG accepted a header with trailing tokens")
	}
}

func TestValidateCatchesLayoutViolations(t *testing.T) {
	s := Compile(spec2(64, 0, 4, 2, true)).Optimize()
	// Find the first SpMM and corrupt its layout.
	for i := range s.Sections {
		for j := range s.Sections[i].Ops {
			if s.Sections[i].Ops[j].Kind == KSpMM {
				s.Sections[i].Ops[j].Layout = dist.H
				if err := s.Validate(); err == nil {
					t.Fatal("spmm with non-grid layout validated")
				}
				return
			}
		}
	}
	t.Fatal("no spmm in schedule")
}

// TestElideRedistributions: once the grid layout folds to H (R_A = 1 at
// any P, or P = 1), every redistribution in the epoch is an identity
// and the pass must remove all of them.
func TestElideRedistributions(t *testing.T) {
	for _, tc := range []struct{ p, ra int }{{1, 1}, {4, 1}} {
		naive := Compile(spec2(64, 0, tc.p, tc.ra, true))
		if countKind(naive, KRedist, false) == 0 {
			t.Fatalf("P=%d RA=%d: naive schedule should carry identity redists", tc.p, tc.ra)
		}
		opt := naive.Optimize()
		if n := countKind(opt, KRedist, false); n != 0 {
			t.Fatalf("P=%d RA=%d: %d redists survive elision:\n%s", tc.p, tc.ra, n, opt)
		}
	}
	// With a real grid the cross-layout redistributions must survive.
	if n := countKind(Compile(spec2(64, 0, 4, 4, true)).Optimize(), KRedist, false); n == 0 {
		t.Fatal("P=4 RA=4: elision removed real redistributions")
	}
}

// TestDeadInputGradElimination: without ComputeInputGrad the G^0 chain
// of layer 1 is dead and must be pruned, strictly reducing both the op
// count and (for a GEMM-first backward layer 1) the priced volume.
func TestDeadInputGradElimination(t *testing.T) {
	h := hw.A6000()
	withG := spec2(64, 5, 4, 4, true)
	withoutG := withG
	withoutG.InputGrad = false
	a := Compile(withG).Optimize()
	b := Compile(withoutG).Optimize()
	if b.Ops() >= a.Ops() {
		t.Fatalf("dead G^0 chain not pruned: %d ops vs %d", b.Ops(), a.Ops())
	}
	if len(b.Outputs) != 0 {
		t.Fatalf("no-input-grad schedule has outputs %v", b.Outputs)
	}
	if va, vb := a.Price(100, h).RDMBytes(), b.Price(100, h).RDMBytes(); vb >= va {
		t.Fatalf("skipping G^0 should reduce volume: %d vs %d", vb, va)
	}
}

// TestMemoizeReuse: with memoization the all-SpMM-first config reuses
// every layer's forward product in the backward pass; without it no
// memoize/reuse ops survive.
func TestMemoizeReuse(t *testing.T) {
	with := Compile(spec2(64, 0, 4, 4, true)).Optimize()
	if countKind(with, KMemoize, false) != 2 || countKind(with, KReuse, false) != 2 {
		t.Fatalf("cfg0 memoized: want 2 memoize + 2 reuse, got %d + %d\n%s",
			countKind(with, KMemoize, false), countKind(with, KReuse, false), with)
	}
	without := Compile(spec2(64, 0, 4, 4, false)).Optimize()
	if countKind(without, KMemoize, false) != 0 || countKind(without, KReuse, false) != 0 {
		t.Fatal("memoization off but memoize/reuse ops present")
	}
	// A memoization nothing reads (backward reuses tb instead) is dead.
	for i := range with.Sections {
		sec := with.Sections[i]
		if sec.Phase == "fwd" {
			for _, op := range sec.Ops {
				if op.Kind == KMemoize && !reused(with, op.Dst) {
					t.Fatalf("unread memoize r%d survived DCE", op.Dst)
				}
			}
		}
	}
}

func reused(s *Schedule, r Reg) bool {
	for i := range s.Sections {
		for _, op := range s.Sections[i].Ops {
			if op.Kind == KReuse && op.A == r {
				return true
			}
		}
	}
	return false
}

// TestChooserPicksMixedOrdering: with a wide hidden layer between
// narrow input and output, the forward slots split — SpMM first on the
// narrow input, GEMM first into the narrow output (row 5, fwd[SD]
// bwd[DS]). TestChooseIsExact covers optimality.
func TestChooserPicksMixedOrdering(t *testing.T) {
	sp := Spec{
		N: 4096, Dims: []int{16, 256, 16},
		P: 4, RA: 4, Memoize: true, InputGrad: true,
	}
	cfg := Choose(sp, 8*4096, hw.A6000(), nil, false)
	if cfg.Fwd[0] != costmodel.SparseFirst || cfg.Fwd[1] != costmodel.DenseFirst {
		t.Fatalf("expected mixed fwd [S D] for dims 16-256-16, got %v", cfg)
	}
}

// TestSAGESchedule: GraphSAGE layers carry self-term adds and
// double-width gradient slots through compilation.
func TestSAGESchedule(t *testing.T) {
	sp := Spec{N: 64, Dims: []int{16, 12, 8}, Config: costmodel.ConfigFromID(6, 2),
		P: 4, RA: 2, SAGE: true, Memoize: true, InputGrad: true}
	s := Compile(sp).Optimize()
	if s.NumWeights != 4 {
		t.Fatalf("SAGE weights = %d, want 4", s.NumWeights)
	}
	if countKind(s, KAdd, false) != 4 {
		t.Fatalf("SAGE adds = %d, want 2 fwd + 2 bwd\n%s", countKind(s, KAdd, false), s)
	}
	if countKind(s, KAllReduceGrad, false) != 4 {
		t.Fatalf("SAGE grad reduces = %d, want 4", countKind(s, KAllReduceGrad, false))
	}
}

// TestOptimizeIdempotent: a second pass over an optimized schedule must
// change nothing.
func TestOptimizeIdempotent(t *testing.T) {
	s := Compile(spec2(64, 10, 8, 2, true)).Optimize()
	if again := s.Optimize().String(); again != s.String() {
		t.Fatalf("Optimize not idempotent:\n--- first\n%s--- second\n%s", s, again)
	}
}

// The executor slices X once per register file and every later epoch
// reads that slice again (core.execOp's KInput arm), which is only sound
// while no op writes it: no in-place op — KReLU, KReLUGrad, KAdd — may
// target a KInput register or an alias of one. Aliases are what the
// executor makes of KMemoize and KReuse (register copies) and of a
// redistribution between layouts that normalize equal (Redistribute
// returns its receiver). Checked on the naive and the optimized schedule
// of every Table IV ordering × P × R_A × SAGE × Memoize × InputGrad, a
// 3-layer grid, and the inference compile.
func TestInputRegistersReadOnly(t *testing.T) {
	check := func(name string, s *Schedule) {
		t.Helper()
		input := make([]bool, s.NumRegs)
		for i := range s.Sections {
			for _, op := range s.Sections[i].Ops {
				switch op.Kind {
				case KInput:
					input[op.Dst] = true
				case KMemoize, KReuse:
					input[op.Dst] = input[op.A]
				case KRedist:
					input[op.Dst] = input[op.A] && op.From.Normalize(s.P) == op.To.Normalize(s.P)
				case KReLU, KReLUGrad, KAdd:
					if input[op.A] {
						t.Fatalf("%s: s%d %s writes an input register in place\n%s", name, op.Step, op.OpString(), s)
					}
				}
			}
		}
	}
	for _, layers := range []int{2, 3} {
		dims := []int{16, 12, 8}
		if layers == 3 {
			dims = []int{16, 12, 10, 8}
		}
		for _, p := range []int{1, 2, 3, 4, 8} {
			for _, ra := range []int{p, p / 2} {
				if ra < 1 || p%ra != 0 {
					continue
				}
				for cfg := 0; cfg < costmodel.NumConfigs(layers); cfg++ {
					for flags := 0; flags < 8; flags++ {
						sp := Spec{
							N: 29, Dims: dims, Config: costmodel.ConfigFromID(cfg, layers), P: p, RA: ra,
							SAGE: flags&1 != 0, Memoize: flags&2 != 0, InputGrad: flags&4 != 0,
						}
						name := fmt.Sprintf("L=%d P=%d RA=%d cfg=%d flags=%03b", layers, p, ra, cfg, flags)
						check(name+" naive", Compile(sp))
						check(name, Compile(sp).Optimize())
						check(name+" inference", CompileInference(sp).Optimize())
					}
				}
			}
		}
	}
}
