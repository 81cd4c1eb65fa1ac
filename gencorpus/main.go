// Command gencorpus regenerates the checked-in seed corpora under each
// package's testdata/fuzz directory. Run from the repo root after
// changing a fuzzed binary format:
//
//	go run ./gencorpus
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"

	"gnnrdm/internal/core"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/member"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
)

func write(dir, name string, lines ...string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	content := "go test fuzz v1\n"
	for _, l := range lines {
		content += l + "\n"
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		log.Fatal(err)
	}
}

func bs(data []byte) string { return fmt.Sprintf("[]byte(%q)", data) }

func bytesArgs(vals ...byte) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("byte(%q)", v)
	}
	return out
}

func main() {
	// internal/graph: edge-list text parser.
	el := "internal/graph/testdata/fuzz/FuzzReadEdgeList"
	write(el, "seed-path", `string("0 1\n1 2\n2 3\n3 4\n4 5\n")`, "int(8)")
	write(el, "seed-weighted", `string("0 1 0.25\n1 2 4\n2 0 1e-3\n")`, "int(4)")
	write(el, "seed-comments", `string("# planted\n% matrix\n3 3\n0 2\n\n2 1\n")`, "int(6)")
	write(el, "seed-dense-pair", `string("7 0\n0 7\n7 0\n")`, "int(9)")

	// internal/graph: label-file parser.
	lb := "internal/graph/testdata/fuzz/FuzzReadLabels"
	write(lb, "seed-unlabeled", `string("1\n# c\n0\n-1\n2\n")`, "int(4)", "int(3)")
	write(lb, "seed-too-large", `string("0\n7\n")`, "int(2)", "int(2)")
	write(lb, "seed-wraps-int32", `string("4294967297\n")`, "int(1)", "int(2)")
	write(lb, "seed-negative", `string("-2\n0\n")`, "int(2)", "int(2)")

	// internal/graph: binary CSR reader.
	adj := sparse.FromCoords(6, 6, []sparse.Coord{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1},
		{Row: 1, Col: 2, Val: 0.5}, {Row: 2, Col: 1, Val: 0.5},
		{Row: 3, Col: 5, Val: 2}, {Row: 5, Col: 3, Val: 2},
		{Row: 4, Col: 4, Val: 1},
	})
	var csrBuf bytes.Buffer
	if err := graph.WriteCSR(&csrBuf, adj); err != nil {
		log.Fatal(err)
	}
	rc := "internal/graph/testdata/fuzz/FuzzReadCSR"
	write(rc, "seed-valid", bs(csrBuf.Bytes()))
	write(rc, "seed-truncated", bs(csrBuf.Bytes()[:csrBuf.Len()/2]))
	write(rc, "seed-header-only", bs(csrBuf.Bytes()[:minInt(16, csrBuf.Len())]))

	// internal/core: checkpoint reader. A structurally valid 2-layer
	// checkpoint plus a truncation of it.
	dims := []int{4, 3, 2}
	mk := func(r, c int, base float32) *tensor.Dense {
		m := tensor.NewDense(r, c)
		for i := range m.Data {
			m.Data[i] = base + float32(i)*0.125
		}
		return m
	}
	cp := &core.Checkpoint{
		Dims: dims, Step: 3,
		Weights: []*tensor.Dense{mk(4, 3, 0.5), mk(3, 2, -1)},
		AdamM:   []*tensor.Dense{mk(4, 3, 0), mk(3, 2, 0)},
		AdamV:   []*tensor.Dense{mk(4, 3, 0.01), mk(3, 2, 0.01)},
	}
	var cpBuf bytes.Buffer
	if err := cp.Write(&cpBuf); err != nil {
		log.Fatal(err)
	}
	ck := "internal/core/testdata/fuzz/FuzzReadCheckpoint"
	write(ck, "seed-valid", bs(cpBuf.Bytes()))
	write(ck, "seed-truncated", bs(cpBuf.Bytes()[:2*cpBuf.Len()/3]))
	// Classified v2 failure modes: a cut CRC trailer, bit rot past the
	// header (only the CRC catches it), and a foreign version word.
	write(ck, "seed-cut-trailer", bs(cpBuf.Bytes()[:cpBuf.Len()-4]))
	rot := append([]byte(nil), cpBuf.Bytes()...)
	rot[len(rot)/2] ^= 0x10
	write(ck, "seed-bitrot", bs(rot))
	ver := append([]byte(nil), cpBuf.Bytes()...)
	ver[8] = 99
	write(ck, "seed-badversion", bs(ver))

	// internal/fault: -faults schedule grammar parser.
	fz := "internal/fault/testdata/fuzz/FuzzFaultSchedule"
	write(fz, "seed-crash-epoch", `string("crash@rank2:epoch3")`)
	write(fz, "seed-crash-time", `string("crash@rank5:t0.25")`)
	write(fz, "seed-slow", `string("slow@rank0:1.5x")`)
	write(fz, "seed-degrade", `string("degrade@rank1:alpha2:beta4")`)
	write(fz, "seed-flip", `string("flip@rank3:epoch1")`)
	write(fz, "seed-drop-n", `string("drop@rank0:epoch2:n2")`)
	write(fz, "seed-multi", `string("crash@rank0:t1e-3,degrade@rank2:alpha1.5:beta3,drop@rank1:epoch0")`)
	write(fz, "seed-simultaneous", `string("crash@rank1:epoch2,crash@rank3:epoch2,crash@rank5:epoch2,crash@rank7:epoch2")`)
	write(fz, "seed-spaces", `string(" crash@rank2:epoch3 , flip@rank0:epoch0 ")`)
	write(fz, "seed-bad-verb", `string("boom@rank0:epoch1")`)
	write(fz, "seed-partition", `string("partition@0+1|2+3:epoch2")`)
	write(fz, "seed-partition-lopsided", `string("partition@0|1+2+3+4+5+6+7:epoch1")`)
	write(fz, "seed-partition-noncanonical", `string("partition@3+1|0+2:epoch4")`)
	write(fz, "seed-partition-mixed", `string("crash@rank5:epoch3,partition@0+1|2+3:epoch1")`)
	write(fz, "seed-partition-overlap", `string("partition@0+1|1+2:epoch1")`)
	write(fz, "seed-partition-empty-side", `string("partition@|0+1:epoch1")`)
	write(fz, "seed-partition-missing-bar", `string("partition@0+1+2+3:epoch1")`)

	// internal/member: gossip wire format (strict Encode/Decode round
	// trip). Well-formed frames of each message type plus the classified
	// rejects: truncation, trailing garbage, and a count/payload mismatch.
	mm := "internal/member/testdata/fuzz/FuzzMemberMsg"
	ping := member.Msg{Type: member.MsgPing, From: 2, To: 5, Seq: 9, Updates: []member.Update{
		{Rank: 3, State: member.Suspect, Inc: 1},
		{Rank: 7, State: member.Dead, Inc: 0},
	}}
	ack := member.Msg{Type: member.MsgAck, From: 5, To: 2, Seq: 9, Updates: []member.Update{
		{Rank: 5, State: member.Alive, Inc: 2},
	}}
	pingReq := member.Msg{Type: member.MsgPingReq, From: 0, To: 4, Seq: 17, Target: 6}
	write(mm, "seed-ping", bs(ping.Encode()))
	write(mm, "seed-ack", bs(ack.Encode()))
	write(mm, "seed-ping-req", bs(pingReq.Encode()))
	enc := ping.Encode()
	write(mm, "seed-truncated", bs(enc[:len(enc)-3]))
	write(mm, "seed-trailing", bs(append(append([]byte(nil), enc...), 0)))
	bad := append([]byte(nil), enc...)
	bad[0] = 9 // no such message type
	write(mm, "seed-bad-type", bs(bad))

	// internal/sparse: COO→CSR construction. The row and column counts,
	// then per coordinate its row, its column and its value's float32
	// bits, little-endian.
	type rec struct {
		row, col byte
		val      float32
	}
	coords := func(r, c byte, recs ...rec) string {
		data := []byte{r, c}
		for _, e := range recs {
			data = binary.LittleEndian.AppendUint32(append(data, e.row, e.col), math.Float32bits(e.val))
		}
		return bs(data)
	}
	fc := "internal/sparse/testdata/fuzz/FuzzFromCoords"
	write(fc, "seed-duplicates", coords(8, 8, rec{3, 5, 10}, rec{3, 5, -10}, rec{3, 5, 1}, rec{0, 0, -0.5}))
	write(fc, "seed-single-cell", coords(1, 1, rec{0, 0, 1}, rec{0, 0, 2}, rec{0, 0, 3}))
	write(fc, "seed-empty-rows", coords(24, 24, rec{23, 23, 7}))
	write(fc, "seed-cancellation", coords(4, 4, rec{2, 2, 5}, rec{2, 2, -5}))
	// 1e8 + 1 rounds back to 1e8: (1e8, 1, -1e8) sums to 0 and (1e8, -1e8,
	// 1) to 1, and either reversed gives the other's sum.
	write(fc, "seed-order-dependent-sum", coords(4, 4, rec{2, 1, 1e8}, rec{2, 3, 0.25}, rec{2, 1, 1},
		rec{2, 0, 1e8}, rec{2, 1, -1e8}, rec{2, 0, -1e8}, rec{2, 0, 1}))
	// A lone -0 is stored as 0 + -0 = +0; unsorted rows with repeats.
	write(fc, "seed-negative-zero", coords(2, 2, rec{1, 0, float32(math.Copysign(0, -1))}))
	write(fc, "seed-unsorted-rows", coords(3, 9, rec{0, 7, 0.1}, rec{0, 2, 0.2}, rec{1, 4, 0.3}, rec{0, 7, 0.4},
		rec{1, 1, 0.5}, rec{0, 0, 0.6}, rec{0, 2, 0.7}))
	// internal/sparse: E + Eᵀ through Symmetric, in the same layout; the
	// column count is ignored and values do not matter.
	sy := "internal/sparse/testdata/fuzz/FuzzSymmetric"
	write(sy, "seed-both-directions", coords(6, 6, rec{0, 1, 0}, rec{1, 0, 0}, rec{0, 1, 0}, rec{3, 3, 0}, rec{4, 2, 0}))
	write(sy, "seed-star", coords(9, 9, rec{4, 0, 0}, rec{1, 4, 0}, rec{4, 8, 0}, rec{7, 4, 0}, rec{4, 4, 0}, rec{2, 4, 0}))
	write(sy, "seed-loops-only", coords(3, 3, rec{0, 0, 0}, rec{2, 2, 0}))

	// internal/tensor: the row kernel against the Go loop. Width, entry
	// count, rows-1, slice offsets; then (index byte, value) per entry, the
	// f words of out and the words of the dense operand, row-major.
	type entry struct {
		col byte
		val float32
	}
	kernelInput := func(data []byte, entries []entry, out, in []float32) string {
		for _, e := range entries {
			data = binary.LittleEndian.AppendUint32(append(data, e.col), math.Float32bits(e.val))
		}
		for _, v := range out {
			data = binary.LittleEndian.AppendUint32(data, math.Float32bits(v))
		}
		for _, v := range in {
			data = binary.LittleEndian.AppendUint32(data, math.Float32bits(v))
		}
		return bs(data)
	}
	rowAcc := func(f, rows, offsets byte, entries []entry, out []float32, in ...float32) string {
		return kernelInput([]byte{f, byte(len(entries)), rows - 1, offsets}, entries, out, in)
	}
	rows := func(f int, vs ...float32) []float32 {
		var out []float32
		for _, v := range vs {
			for j := 0; j < f; j++ {
				out = append(out, v)
			}
		}
		return out
	}
	ra := "internal/tensor/testdata/fuzz/FuzzRowAcc"
	// internal/sparse: one CSR row through SpMMInto, which overwrites out,
	// so its layout is FuzzRowAcc's without out's words. Every row seed but
	// seed-nan-out seeds both targets.
	sr := "internal/sparse/testdata/fuzz/FuzzSpMMRow"
	both := func(name string, f, rows, offsets byte, entries []entry, out []float32, in ...float32) {
		write(ra, name, rowAcc(f, rows, offsets, entries, out, in...))
		write(sr, name, rowAcc(f, rows, offsets, entries, nil, in...))
	}
	// 55 = 32+16+4+3 floats reach every chunk. The first entry leaves
	// -(1+2^-11) in each accumulator; (1+2^-12)^2 then rounds to 1+2^-11 and
	// the unfused sum is 0, where a fused multiply-add would leave 2^-24.
	both("seed-fma-witness", 55, 2, 0x6, []entry{{0, 1}, {1, 1 + 1.0/4096}},
		rows(55, 0), rows(55, -(1+1.0/2048), 1+1.0/4096)...)
	// Quiet NaNs with distinct payloads: the product's payload must win
	// each add (input row 2 over row 1 over row 0) and the input's each
	// multiply (row 2's over the value's).
	qnan := func(payload uint32) float32 { return math.Float32frombits(0x7fc00000 | payload) }
	both("seed-nan-payload-order", 55, 3, 0x9,
		[]entry{{0, 1}, {1, 1}, {2, qnan(4)}}, rows(55, 0), rows(55, qnan(1), qnan(2), qnan(3))...)
	// Finite products onto a NaN out: a kernel that started its
	// accumulators from +0 instead of out would return numbers.
	write(ra, "seed-nan-out", rowAcc(55, 2, 0x6, []entry{{0, 1}, {1, -2}},
		rows(55, qnan(5)), rows(55, 1.5, 0.25)...))
	both("seed-width-zero", 0, 2, 0x5, []entry{{1, 2}, {0xfa, 3}, {0, -1}}, nil)
	both("seed-repeated-column", 37, 4, 0x3,
		[]entry{{2, 0.5}, {2, -1.25}, {1, 0}, {2, 3}, {0, 1e30}, {2, float32(math.Copysign(0, -1))}},
		rows(37, 0.75), rows(37, 1.5, float32(math.Inf(1)), -0.375, 1e-39)...)
	// A bad index after two good ones: nothing may be added to out.
	both("seed-bad-column", 20, 3, 0x0, []entry{{0, 1}, {1, 1}, {0xfa, 1}},
		rows(20, 7), rows(20, 1, 2)...)
	// 127 = 64+32+16+8+4+2+1 floats: on an AVX host the 64- and 32-float
	// VEX chunks and every SSE2 tail in one row, so the witnesses above
	// reach the widest chunk too.
	write(ra, "seed-fma-witness-wide", rowAcc(127, 2, 0x6, []entry{{0, 1}, {1, 1 + 1.0/4096}},
		rows(127, 0), rows(127, -(1+1.0/2048), 1+1.0/4096)...))
	write(ra, "seed-nan-payload-order-wide", rowAcc(127, 3, 0x9,
		[]entry{{0, 1}, {1, 1}, {2, qnan(4)}}, rows(127, 0), rows(127, qnan(1), qnan(2), qnan(3))...))
	// A bad index met in the 64-float chunk's pass: nothing added.
	write(ra, "seed-bad-column-wide", rowAcc(100, 3, 0x0, []entry{{0, 1}, {1, 1}, {0xfa, 1}},
		rows(100, 7), rows(100, 1, 2)...))

	// internal/tensor: runs of rows through the row kernel. FuzzRowAcc's
	// layout with a run byte (the row count) after the offsets and then ptr
	// (the first offset, then each row's length); out holds every row's
	// words.
	runs := func(f, rows, offsets, first byte, lens []byte, entries []entry, out []float32, in ...float32) string {
		head := append([]byte{f, byte(len(entries)), rows - 1, offsets, byte(len(lens)), first}, lens...)
		return kernelInput(head, entries, out, in)
	}
	rr := "internal/tensor/testdata/fuzz/FuzzRowAccRuns"
	// 63 = 32+16+8+4+2+1 floats reach every chunk; two witness rows around
	// an empty one.
	witnessRow := []entry{{0, 1}, {1, 1 + 1.0/4096}}
	write(rr, "seed-fma-witness", runs(63, 2, 0x6, 0, []byte{2, 0, 2}, append(witnessRow, witnessRow...),
		rows(3*63, 0), rows(63, -(1+1.0/2048), 1+1.0/4096)...))
	write(rr, "seed-nan-payload-order", runs(63, 3, 0x9, 0, []byte{3, 3},
		[]entry{{0, 1}, {1, 1}, {2, qnan(4)}, {2, 1}, {0, qnan(6)}, {1, 1}},
		rows(2*63, 0), rows(63, qnan(1), qnan(2), qnan(3))...))
	// Empty first, middle and last rows after an unused entry, at 8+2 floats.
	write(rr, "seed-empty-rows", runs(10, 3, 0x7, 1, []byte{0, 2, 0, 0, 1, 0},
		[]entry{{2, 9}, {0, 0.5}, {2, -1.25}, {1, 3}},
		rows(6*10, 0.75), rows(10, 1.5, -0.375, 1e-39)...))
	// A bad index in the last row: the rows before are done, it is not.
	write(rr, "seed-bad-last-row", runs(11, 2, 0x2, 0, []byte{2, 1, 2},
		[]entry{{0, 1}, {1, 2}, {1, -1}, {0, 1}, {0xfa, 1}},
		rows(3*11, 7), rows(11, 1, 2)...))
	// The same at 127 floats, every VEX and SSE2 chunk.
	write(rr, "seed-fma-witness-wide", runs(127, 2, 0x6, 0, []byte{2, 0, 2}, append(witnessRow, witnessRow...),
		rows(3*127, 0), rows(127, -(1+1.0/2048), 1+1.0/4096)...))
	write(rr, "seed-nan-payload-order-wide", runs(127, 3, 0x9, 0, []byte{3, 3},
		[]entry{{0, 1}, {1, 1}, {2, qnan(4)}, {2, 1}, {0, qnan(6)}, {1, 1}},
		rows(2*127, 0), rows(127, qnan(1), qnan(2), qnan(3))...))
	write(rr, "seed-bad-last-row-wide", runs(100, 2, 0x2, 0, []byte{2, 1, 2},
		[]entry{{0, 1}, {1, 2}, {1, -1}, {0, 1}, {0xfa, 1}},
		rows(3*100, 7), rows(100, 1, 2)...))

	// internal/tensor: one entry of weight s onto y, as the comm reductions
	// call the row kernel. Two offset bytes, then s and (x[j], y[j]) pairs
	// as little-endian float32 bits.
	axpy := func(xo, yo byte, s float32, xy ...float32) string {
		data := []byte{xo, yo}
		for _, v := range append([]float32{s}, xy...) {
			data = binary.LittleEndian.AppendUint32(data, math.Float32bits(v))
		}
		return bs(data)
	}
	ramp := func(n int) []float32 {
		xy := make([]float32, 2*n)
		for i := range xy {
			xy[i] = float32(i%7)*0.375 - 1
		}
		return xy
	}
	inf, nan := float32(math.Inf(1)), math.Float32frombits(0x7fc12345)
	ax := "internal/tensor/testdata/fuzz/FuzzAxpy"
	write(ax, "seed-scalar-tail-only", axpy(0, 0, 0.5, ramp(3)...))
	write(ax, "seed-body-and-both-tails", axpy(1, 3, -1.25, ramp(16+4+3)...))
	write(ax, "seed-two-bodies-unaligned", axpy(3, 2, 3, ramp(32)...))
	// (1+2^-12)^2 rounds to 1+2^-11, so the unfused sum is 0 where a fused
	// multiply-add would leave 2^-24; 23 pairs reach the 16-, 4- and 1-float
	// chunks.
	witness := make([]float32, 0, 2*23)
	for i := 0; i < 23; i++ {
		witness = append(witness, 1+1.0/4096, -(1 + 1.0/2048))
	}
	write(ax, "seed-fma-witness", axpy(0, 1, 1+1.0/4096, witness...))
	write(ax, "seed-specials", axpy(2, 1, inf,
		0, 1, float32(math.Copysign(0, -1)), -inf, 1e-45, 1e-45, -1e-39, inf,
		nan, 1, 1, nan, inf, -inf, 1e30, -1e30, 1e-30, 0))
	write(ax, "seed-empty", axpy(0, 0, 1))

	// internal/plan: schedule dump grammar (Parse/String fixed point).
	sched := func(sp plan.Spec, optimize bool) string {
		s := plan.Compile(sp)
		if optimize {
			s = s.Optimize()
		}
		return fmt.Sprintf("string(%q)", s.String())
	}
	pl := "internal/plan/testdata/fuzz/FuzzPlanString"
	write(pl, "seed-header-only",
		`string("schedule p=1 ra=1 n=4 dims=3,2 config=0 sage=0 memoize=0 inputgrad=0 regs=0 weights=1\n")`)
	write(pl, "seed-cfg0-opt", sched(plan.Spec{
		N: 64, Dims: []int{16, 12, 8}, Config: costmodel.ConfigFromID(0, 2),
		P: 4, RA: 4, Memoize: true, InputGrad: true,
	}, true))
	write(pl, "seed-cfg15-grid", sched(plan.Spec{
		N: 64, Dims: []int{16, 12, 8}, Config: costmodel.ConfigFromID(15, 2),
		P: 8, RA: 2, InputGrad: true,
	}, true))
	write(pl, "seed-sage-naive", sched(plan.Spec{
		N: 7, Dims: []int{5, 4, 3, 2}, P: 2, RA: 2, SAGE: true, Memoize: true,
	}, false))
	// DAG-bearing seeds: reduced replication (colGroup resources), a
	// SAGE+grid mix, and a full DAG dump so mutations explore ParseDAG's
	// edges grammar (the fuzz body round-trips any dump it accepts).
	write(pl, "seed-cfg6-ra2", sched(plan.Spec{
		N: 48, Dims: []int{16, 12, 8}, Config: costmodel.ConfigFromID(6, 2),
		P: 8, RA: 2, Memoize: true, InputGrad: true,
	}, true))
	write(pl, "seed-sage-grid", sched(plan.Spec{
		N: 32, Dims: []int{8, 6, 4}, Config: costmodel.ConfigFromID(9, 2),
		P: 4, RA: 2, SAGE: true, Memoize: true, InputGrad: true,
	}, true))
	dagDump := plan.MustBuildDAG(plan.Compile(plan.Spec{
		N: 64, Dims: []int{16, 12, 8}, Config: costmodel.ConfigFromID(10, 2),
		P: 4, RA: 4, Memoize: true, InputGrad: true,
	}).Optimize()).String()
	write(pl, "seed-dag-dump", fmt.Sprintf("string(%q)", dagDump))
	// Seeds reaching the sparse header and every op-table row: a sparse
	// schedule (redist.sp), its ABC rewrite (spmm.abc), an inference
	// schedule, and an empty DAG dump whose header carries trailing
	// tokens (once a ParseDAG slice-bounds panic).
	sparseSched := plan.Compile(plan.Spec{
		N: 64, Dims: []int{16, 8}, Config: costmodel.ConfigFromID(1, 1),
		P: 4, RA: 4, Memoize: true, InputGrad: true, Live: 4, SparseSeed: 3,
	}).Optimize()
	write(pl, "seed-sparse", fmt.Sprintf("string(%q)", sparseSched.String()))
	write(pl, "seed-abc", fmt.Sprintf("string(%q)", sparseSched.ABC().String()))
	write(pl, "seed-inference", fmt.Sprintf("string(%q)", plan.CompileInference(plan.Spec{
		N: 32, Dims: []int{8, 6, 4}, Config: costmodel.ConfigFromID(9, 2),
		P: 4, RA: 2, SAGE: true,
	}).Optimize().String()))
	write(pl, "seed-header-trailing", fmt.Sprintf("string(%q)",
		"schedule p=1 ra=1 n=4 dims=3,2 config=0 sage=0 memoize=0 inputgrad=0 regs=0 weights=1"+
			strings.Repeat(" x", 50)+"\nedges\n"))

	// internal/dist: divide/exchange/merge redistribution.
	rg := "internal/dist/testdata/fuzz/FuzzRegrid"
	write(rg, "seed-ragged-p3", bytesArgs(7, 5, 2, 0, 1, 0)...)
	write(rg, "seed-grid-p4", bytesArgs(12, 4, 3, 2, 0, 0)...)
	write(rg, "seed-single-device", bytesArgs(1, 1, 0, 0, 0, 0)...)
	write(rg, "seed-wide", bytesArgs(3, 9, 1, 1, 0, 0)...)
	// The sixth byte picks the destination tile: 1 a NaN-filled one of
	// the right shape, 2 a misshapen one, 3 the source itself.
	write(rg, "seed-dirty-old-p4", bytesArgs(11, 7, 3, 0, 1, 1)...)
	write(rg, "seed-dirty-old-grid", bytesArgs(12, 4, 3, 2, 1, 1)...)
	write(rg, "seed-misfit-old", bytesArgs(7, 5, 2, 1, 0, 2)...)
	write(rg, "seed-aliasing-old-square", bytesArgs(5, 5, 1, 0, 1, 3)...)
	write(rg, "seed-aliasing-old-single", bytesArgs(4, 3, 0, 0, 1, 3)...)

	// internal/dist: overlap-pair enumerator vs the quadratic
	// TileOverlap oracle. Args: rows, cols, pSel, srcSel, dstSel (layouts
	// index {H, V, R, G(proper divisors)...}).
	op := "internal/dist/testdata/fuzz/FuzzOverlapPairs"
	write(op, "seed-ragged-p3", bytesArgs(7, 5, 2, 0, 1)...)
	write(op, "seed-single-device", bytesArgs(1, 1, 0, 0, 0)...)
	write(op, "seed-cols-below-p12", bytesArgs(40, 3, 11, 4, 1)...)
	write(op, "seed-rows-below-p17", bytesArgs(2, 30, 16, 1, 0)...)
	write(op, "seed-grid-to-grid-p24", bytesArgs(47, 39, 23, 3, 7)...)
	write(op, "seed-replicated", bytesArgs(9, 4, 5, 2, 0)...)

	// internal/dist: two-round sparse row-set redistribution
	// (codec round-trip + sparse-vs-dense differential). Args:
	// rows, cols, pSel, srcSel, dstSel, liveCount, seed.
	sx := "internal/dist/testdata/fuzz/FuzzSparseExchange"
	write(sx, "seed-quarter-live", bytesArgs(12, 5, 2, 0, 1, 4, 3)...)
	write(sx, "seed-tall-p4", bytesArgs(24, 3, 3, 1, 0, 6, 9)...)
	write(sx, "seed-grid-dst", bytesArgs(8, 4, 1, 2, 0, 2, 1)...)
	write(sx, "seed-single-device", bytesArgs(1, 1, 0, 0, 0, 0, 0)...)
	write(sx, "seed-all-live", bytesArgs(16, 6, 3, 0, 1, 16, 5)...)
	write(sx, "seed-empty-live", bytesArgs(10, 2, 1, 0, 1, 0, 7)...)

	// internal/topo: interconnect spec grammar (parse/String fixed
	// point). Valid specs across the class table plus malformed shapes
	// the parser must reject.
	ts := "internal/topo/testdata/fuzz/FuzzTopoSpec"
	write(ts, "seed-reference", `string("8x4:nvlink,ib")`)
	write(ts, "seed-single-node", `string("1x8:pcie")`)
	write(ts, "seed-ethernet", `string("2x2:nvlink,eth")`)
	write(ts, "seed-one-per-node", `string("16x1:pcie3,ib")`)
	write(ts, "seed-degenerate", `string("1x1:eth")`)
	write(ts, "seed-missing-inter", `string("8x4:nvlink")`)
	write(ts, "seed-zero-nodes", `string("0x0:nvlink,ib")`)
	write(ts, "seed-punctuation", `string(":,")`)
	write(ts, "seed-non-numeric", `string("axb:c,d")`)

	// internal/serve: traffic-spec grammar (parse/String fixed point).
	// Valid specs across the parameter ranges plus malformed shapes the
	// parser must reject.
	tf := "internal/serve/testdata/fuzz/FuzzTrafficSpec"
	write(tf, "seed-default", `string("traffic q=512 users=1000000 zipf=1.5 rate=2000 seed=7")`)
	write(tf, "seed-minimal", `string("traffic q=0 users=1 zipf=1.001 rate=0.5 seed=-1")`)
	write(tf, "seed-extremes", `string("traffic q=1 users=1099511627776 zipf=64 rate=1e12 seed=0")`)
	write(tf, "seed-scientific", `string("traffic q=64 users=3000000 zipf=2 rate=1e6 seed=42")`)
	write(tf, "seed-bad-skew", `string("traffic q=8 users=10 zipf=1 rate=100 seed=3")`)
	write(tf, "seed-missing-field", `string("traffic q=8 users=10 zipf=1.5")`)
	write(tf, "seed-garbage", `string("traffic q=x users=y zipf=z rate=w seed=v")`)

	// internal/serve: single-pass admission against the goroutine queue
	// oracle. A stream byte is a query: vertex in the low three bits,
	// arrival-gap class in the high five (0-2 ties, 31 a step back);
	// then maxBatch-1 and the deadline in milliseconds, both modular.
	ac := "internal/serve/testdata/fuzz/FuzzCoalesce"
	write(ac, "seed-ties", append([]string{bs([]byte{0, 9, 18, 3, 12, 5, 6, 7, 1})}, bytesArgs(2, 1)...)...)
	write(ac, "seed-deadline-zero", append([]string{bs([]byte{0, 41, 42, 51, 4, 61, 6})}, bytesArgs(7, 0)...)...)
	write(ac, "seed-batch-one", append([]string{bs([]byte{0, 1, 2, 3, 44, 45})}, bytesArgs(0, 2)...)...)
	write(ac, "seed-batch-exceeds-stream", append([]string{bs([]byte{2, 35, 4, 53})}, bytesArgs(15, 3)...)...)
	write(ac, "seed-empty", append([]string{bs(nil)}, bytesArgs(7, 1)...)...)
	write(ac, "seed-decreasing", append([]string{bs([]byte{0, 40, 255, 3})}, bytesArgs(3, 1)...)...)

	// internal/bench: the rdmbench scale sweep grammar
	// (P[@topoSpec|@flat], ";"-separated).
	sc := "internal/bench/testdata/fuzz/FuzzScaleSpec"
	write(sc, "seed-default", `string("256;1024;4096")`)
	write(sc, "seed-explicit", `string("8@flat;32@4x8:nvlink,ib")`)
	write(sc, "seed-spaces", `string(" 16 ; 16@2x8:nvlink,eth ")`)
	write(sc, "seed-max", `string("65536")`)
	write(sc, "seed-too-small-topo", `string("16@1x8:nvlink,ib")`)
	write(sc, "seed-garbage", `string("0;;@;x@y")`)

	fmt.Println("corpora written")
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
