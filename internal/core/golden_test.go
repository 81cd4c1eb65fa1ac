package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gnnrdm/internal/hw"
	"gnnrdm/internal/tensor"
	"gnnrdm/internal/topo"
	"gnnrdm/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// denseSHA hashes matrices by shape and float32 bits, so a golden line
// moves on any bit of any value.
func denseSHA(ms ...*tensor.Dense) string {
	h := sha256.New()
	for _, m := range ms {
		if m == nil {
			h.Write([]byte{0})
			continue
		}
		binary.Write(h, binary.LittleEndian, [2]int64{int64(m.Rows), int64(m.Cols)})
		for _, v := range m.Data {
			binary.Write(h, binary.LittleEndian, math.Float32bits(v))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenRun renders every EpochStats field (floats at %.17g) and the
// hashes of the logits, the weights, the final checkpoint's wire bytes
// and, when traced, the Chrome trace.
func goldenRun(t *testing.T, b *strings.Builder, name string, res *Result, cp *Checkpoint, tr *trace.Tracer) {
	t.Helper()
	fmt.Fprintf(b, "%s\n", name)
	for i, e := range res.Epochs {
		fmt.Fprintf(b, "  epoch %d loss %.17g acc %.17g time %.17g comm %.17g compute %.17g bytes %d\n",
			i, e.Loss, e.EvalAcc, e.Time, e.CommTime, e.ComputeTime, e.CommBytes)
	}
	fmt.Fprintf(b, "  logits %s\n", denseSHA(res.Logits))
	fmt.Fprintf(b, "  weights %s\n", denseSHA(res.Weights...))
	if cp != nil {
		var buf bytes.Buffer
		if err := cp.Write(&buf); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "  checkpoint %x\n", sha256.Sum256(buf.Bytes()))
	}
	if tr != nil {
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, tr); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "  trace %x\n", sha256.Sum256(buf.Bytes()))
	}
}

// checkGoldenFile compares got with testdata/name, or rewrites it under
// -update.
func checkGoldenFile(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("run differs from %s; rerun with -update if intended\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestTrainGolden pins every field Train and TrainResumable report —
// timings, bytes, losses, logits, weights, checkpoint and trace — over
// the ordering × overlap × topology grid and the option corners
// (replication, evaluation mask, SAGE, zero epochs, resume).
func TestTrainGolden(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	dims := []int{12, 10, 6}
	sp, err := topo.ParseSpec("2x2:nvlink,ib")
	if err != nil {
		t.Fatal(err)
	}
	tp := sp.MustTopology(4)
	var b strings.Builder
	run := func(name string, o Options, epochs int) {
		res, cp := TrainResumable(4, hw.A6000(), prob, o, epochs, nil)
		goldenRun(t, &b, name, res, cp, o.Tracer)
	}
	for _, id := range []int{0, 10, 15} {
		for _, overlap := range []bool{false, true} {
			for _, onTopo := range []bool{false, true} {
				o := testOpts(dims, id)
				o.Overlap = overlap
				o.Tracer = trace.NewTracer(0)
				name := fmt.Sprintf("cfg%02d overlap=%v", id, overlap)
				if onTopo {
					o.Topology = tp
					name += " topo=2x2:nvlink,ib"
				}
				run(name, o, 3)
			}
		}
	}
	for _, ra := range []int{1, 2} {
		o := testOpts(dims, 10)
		o.RA = ra
		run(fmt.Sprintf("cfg10 ra=%d", ra), o, 3)
	}
	o := testOpts(dims, 10)
	o.EvalMask = make([]bool, prob.N())
	for i := range o.EvalMask {
		o.EvalMask[i] = i%3 == 0
	}
	run("cfg10 evalmask", o, 3)
	o = testOpts(dims, 5)
	o.SAGE = true
	run("cfg05 sage", o, 3)
	run("cfg10 zero-epochs", testOpts(dims, 10), 0)

	o = testOpts(dims, 10)
	first, cp := TrainResumable(4, hw.A6000(), prob, o, 3, nil)
	goldenRun(t, &b, "cfg10 resumable first-3", first, cp, nil)
	second, cp2 := TrainResumable(4, hw.A6000(), prob, o, 3, cp)
	goldenRun(t, &b, "cfg10 resumable next-3", second, cp2, nil)

	checkGoldenFile(t, "train_golden.txt", b.String())
}
