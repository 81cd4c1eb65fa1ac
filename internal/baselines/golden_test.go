package baselines

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

	"gnnrdm/internal/core"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/tensor"
	"gnnrdm/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// denseSHA hashes matrices by shape and float32 bits.
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

// TestHarnessGolden pins every field the baseline harness and the sim
// executor report — per-epoch timings and bytes (floats at %.17g),
// losses, logits and weights bits, and the trace — for one CAGNET, one
// DGCL and one SimExecutor run.
func TestHarnessGolden(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	dims := []int{12, 10, 6}
	var b strings.Builder
	emit := func(name string, res *core.Result, tr *trace.Tracer) {
		fmt.Fprintf(&b, "%s\n", name)
		for i, e := range res.Epochs {
			fmt.Fprintf(&b, "  epoch %d loss %.17g acc %.17g time %.17g comm %.17g compute %.17g bytes %d\n",
				i, e.Loss, e.EvalAcc, e.Time, e.CommTime, e.ComputeTime, e.CommBytes)
		}
		fmt.Fprintf(&b, "  logits %s\n", denseSHA(res.Logits))
		fmt.Fprintf(&b, "  weights %s\n", denseSHA(res.Weights...))
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, tr); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "  trace %x\n", sha256.Sum256(buf.Bytes()))
	}

	tr := trace.NewTracer(0)
	emit("cagnet p=4 c=2", TrainCAGNET(4, hw.A6000(), prob,
		Options{Dims: dims, LR: 0.01, Seed: 7, Replication: 2, Tracer: tr}, 3), tr)
	tr = trace.NewTracer(0)
	emit("dgcl p=4", TrainDGCL(4, hw.A6000(), prob,
		Options{Dims: dims, LR: 0.01, Seed: 7, Tracer: tr}, 3), tr)
	tr = trace.NewTracer(0)
	emit("sim p=4 cfg10", core.SimExecutor{}.Train(4, hw.A6000(), prob, core.Options{
		Dims: dims, Config: costmodel.ConfigFromID(10, 2), Memoize: true,
		LR: 0.01, Seed: 7, Tracer: tr,
	}, 3), tr)

	path := filepath.Join("testdata", "harness_golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("run differs from %s; rerun with -update if intended\n--- got\n%s--- want\n%s", path, got, want)
	}
}
