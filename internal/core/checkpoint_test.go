package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/tensor"
)

func TestCheckpointRoundTripResume(t *testing.T) {
	prob := testProblem(t, 48, 12, 6)
	dims := []int{12, 10, 6}
	for _, overlap := range []bool{false, true} {
		t.Run(fmt.Sprintf("overlap=%v", overlap), func(t *testing.T) {
			opts := testOpts(dims, 10)
			opts.Overlap = overlap

			// Train 6 epochs straight through.
			straight := Train(2, hw.A6000(), prob, opts, 6)

			// Train 3 epochs, checkpoint through the wire format, resume 3 more.
			var buf bytes.Buffer
			fab := comm.NewFabric(2, hw.A6000())
			fab.Run(func(d *comm.Device) {
				eng := NewEngine(d, prob, opts)
				for i := 0; i < 3; i++ {
					eng.Epoch()
				}
				if d.Rank == 0 {
					if err := eng.Snapshot().Write(&buf); err != nil {
						t.Error(err)
					}
				}
			})
			cp, err := ReadCheckpoint(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if cp.Step != 3 || !equalIntsCP(cp.Dims, dims) {
				t.Fatalf("checkpoint metadata: step=%d dims=%v", cp.Step, cp.Dims)
			}

			var resumedLoss float64
			var resumedW *tensor.Dense
			fab2 := comm.NewFabric(2, hw.A6000())
			fab2.Run(func(d *comm.Device) {
				eng := NewEngine(d, prob, opts)
				if err := eng.Restore(cp); err != nil {
					t.Error(err)
					return
				}
				var loss float64
				for i := 0; i < 3; i++ {
					loss = eng.Epoch()
				}
				if d.Rank == 0 {
					resumedLoss = loss
					resumedW = eng.Weights()[0]
				}
			})
			if math.Abs(resumedLoss-straight.Epochs[len(straight.Epochs)-1].Loss) > 1e-6 {
				t.Fatalf("resumed loss %v != straight %v", resumedLoss, straight.Epochs[len(straight.Epochs)-1].Loss)
			}
			if d := tensor.MaxAbsDiff(resumedW, straight.Weights[0]); d > 1e-6 {
				t.Fatalf("resumed weights diff %v", d)
			}
		})
	}
}

func TestCheckpointValidation(t *testing.T) {
	prob := testProblem(t, 32, 8, 4)
	fab := comm.NewFabric(1, hw.A6000())
	eng := NewEngine(fab.Device(0), prob, testOpts([]int{8, 6, 4}, 0))
	cp := eng.Snapshot()

	other := NewEngine(fab.Device(0), prob, testOpts([]int{8, 5, 4}, 0))
	if err := other.Restore(cp); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	sage := testOpts([]int{8, 6, 4}, 0)
	sage.SAGE = true
	if err := NewEngine(fab.Device(0), prob, sage).Restore(cp); err == nil {
		t.Fatal("SAGE mismatch accepted")
	}

	// Corrupted stream: every failure mode maps to its typed sentinel.
	var buf bytes.Buffer
	if err := cp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] ^= 0xFF
	if _, err := ReadCheckpoint(bytes.NewReader(raw)); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCheckpointCorrupt", err)
	}
	raw[0] ^= 0xFF
	if _, err := ReadCheckpoint(bytes.NewReader(raw[:len(raw)/3])); !errors.Is(err, ErrCheckpointTruncated) {
		t.Fatalf("truncated checkpoint: got %v, want ErrCheckpointTruncated", err)
	}
	// Stream cut inside the CRC trailer itself.
	if _, err := ReadCheckpoint(bytes.NewReader(raw[:len(raw)-4])); !errors.Is(err, ErrCheckpointTruncated) {
		t.Fatalf("cut trailer: got %v, want ErrCheckpointTruncated", err)
	}
	// Foreign version word.
	vbuf := append([]byte(nil), raw...)
	vbuf[8] = 99
	if _, err := ReadCheckpoint(bytes.NewReader(vbuf)); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("foreign version: got %v, want ErrCheckpointVersion", err)
	}
}

func TestCheckpointCRCDetectsBitRot(t *testing.T) {
	prob := testProblem(t, 32, 8, 4)
	fab := comm.NewFabric(1, hw.A6000())
	eng := NewEngine(fab.Device(0), prob, testOpts([]int{8, 6, 4}, 0))
	eng.Epoch()
	var buf bytes.Buffer
	if err := eng.Snapshot().Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one payload bit well past the header; only the CRC trailer
	// can catch it.
	mid := len(raw) / 2
	raw[mid] ^= 0x10
	if _, err := ReadCheckpoint(bytes.NewReader(raw)); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("bit rot: got %v, want ErrCheckpointCorrupt", err)
	}
	raw[mid] ^= 0x10
	if _, err := ReadCheckpoint(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
}

func TestCheckpointSAGE(t *testing.T) {
	prob := testProblem(t, 32, 8, 4)
	opts := testOpts([]int{8, 6, 4}, 0)
	opts.SAGE = true
	fab := comm.NewFabric(1, hw.A6000())
	eng := NewEngine(fab.Device(0), prob, opts)
	eng.Epoch()
	var buf bytes.Buffer
	if err := eng.Snapshot().Write(&buf); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.SAGE || len(cp.Weights) != 4 {
		t.Fatalf("SAGE checkpoint wrong: sage=%v weights=%d", cp.SAGE, len(cp.Weights))
	}
	eng2 := NewEngine(fab.Device(0), prob, opts)
	if err := eng2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(eng2.Weights()[3], eng.Weights()[3]) != 0 {
		t.Fatal("SAGE weights not restored")
	}
}

func equalIntsCP(a, b []int) bool {
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
