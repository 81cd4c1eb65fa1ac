package comm_test

// External-package tests for the collective error contract: data errors
// (nil buffers, cross-rank length disagreement) are delivered
// cooperatively to every rank instead of panicking one goroutine or
// deadlocking the rest, structural misuse fails fast before the
// rendezvous, and a failed round leaves the fabric usable.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/hw"
)

// runGuarded runs fn on every device of a fresh 2-device fabric and
// fails the test (instead of hanging go test) if the collective does not
// complete promptly — the deadlock guard the error contract promises to
// make unnecessary.
func runGuarded(t *testing.T, p int, fn func(d *comm.Device)) *comm.Fabric {
	t.Helper()
	f := comm.NewFabric(p, hw.A6000())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(fn)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("collective deadlocked")
	}
	return f
}

// collectErrs runs fn on each rank and returns the per-rank errors.
func collectErrs(t *testing.T, p int, fn func(d *comm.Device) error) []error {
	t.Helper()
	errs := make([]error, p)
	var mu sync.Mutex
	runGuarded(t, p, func(d *comm.Device) {
		err := fn(d)
		mu.Lock()
		errs[d.Rank] = err
		mu.Unlock()
	})
	return errs
}

// wantAll asserts every rank failed with the given sentinel cause and a
// CollectiveError wrapper naming the op and that rank.
func wantAll(t *testing.T, errs []error, op string, sentinel error) {
	t.Helper()
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: expected error, got nil", r)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("rank %d: error %v does not wrap %v", r, err, sentinel)
		}
		var ce *comm.CollectiveError
		if !errors.As(err, &ce) {
			t.Fatalf("rank %d: error %T is not a CollectiveError", r, err)
		}
		if ce.Op != op || ce.Rank != r {
			t.Fatalf("rank %d: CollectiveError{Op:%q Rank:%d}, want {%q %d}", r, ce.Op, ce.Rank, op, r)
		}
	}
}

func TestNilBufferCooperative(t *testing.T) {
	// One rank passes nil; EVERY rank must get ErrNilBuffer, no deadlock.
	cases := []struct {
		op string
		fn func(d *comm.Device) error
	}{
		{"broadcast", func(d *comm.Device) error {
			var data []float32
			if d.Rank == 0 {
				data = nil // root's buffer is the nil one
			} else {
				data = []float32{1}
			}
			_, err := d.TryBroadcast(d.World(), 0, data)
			return err
		}},
		{"allgather", func(d *comm.Device) error {
			local := []float32{1}
			if d.Rank == 1 {
				local = nil
			}
			_, err := d.TryAllGatherFlat(d.World(), local, nil)
			return err
		}},
		{"allreduce", func(d *comm.Device) error {
			local := []float32{1}
			if d.Rank == 0 {
				local = nil
			}
			_, err := d.TryAllReduceSum(d.World(), local)
			return err
		}},
		{"alltoall", func(d *comm.Device) error {
			parts := [][]float32{{1}, {2}}
			if d.Rank == 1 {
				parts = nil
			}
			_, err := d.TryAllToAll(d.World(), parts)
			return err
		}},
		{"reducescatter", func(d *comm.Device) error {
			local := []float32{1, 2}
			if d.Rank == 0 {
				local = nil
			}
			_, err := d.TryReduceScatterSum(d.World(), local, []int{1, 1})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.op, func(t *testing.T) {
			wantAll(t, collectErrs(t, 2, tc.fn), tc.op, comm.ErrNilBuffer)
		})
	}
}

func TestLengthMismatchCooperative(t *testing.T) {
	t.Run("allreduce", func(t *testing.T) {
		errs := collectErrs(t, 2, func(d *comm.Device) error {
			local := make([]float32, 2+d.Rank) // 2 elems on rank 0, 3 on rank 1
			_, err := d.TryAllReduceSum(d.World(), local)
			return err
		})
		wantAll(t, errs, "allreduce", comm.ErrLengthMismatch)
	})
	t.Run("reducescatter", func(t *testing.T) {
		errs := collectErrs(t, 2, func(d *comm.Device) error {
			// Rank 1's counts sum to its own (longer) buffer, so its
			// structural checks pass; the disagreement is only visible
			// once both contributions meet in the rendezvous.
			local := make([]float32, 2+2*d.Rank)
			counts := []int{1 + d.Rank, 1 + d.Rank}
			_, err := d.TryReduceScatterSum(d.World(), local, counts)
			return err
		})
		wantAll(t, errs, "reducescatter", comm.ErrLengthMismatch)
	})
}

func TestStructuralErrorsFailFast(t *testing.T) {
	// Structural misuse must surface from a single caller, with no
	// rendezvous (and therefore no other participating rank needed).
	f := comm.NewFabric(4, hw.A6000())
	d := f.Device(0)
	cases := []struct {
		name     string
		sentinel error
		err      error
	}{
		{"empty group", comm.ErrBadGroup, d.TryBarrier(nil)},
		{"unsorted group", comm.ErrBadGroup, d.TryBarrier([]int{1, 0})},
		{"duplicate rank", comm.ErrBadGroup, d.TryBarrier([]int{0, 0})},
		{"caller outside group", comm.ErrBadGroup, d.TryBarrier([]int{1, 2})},
		{"root outside group", comm.ErrBadGroup, func() error {
			_, err := d.TryBroadcast([]int{0, 1}, 3, []float32{1})
			return err
		}()},
		{"alltoall part count", comm.ErrCountMismatch, func() error {
			_, err := d.TryAllToAll([]int{0, 1}, [][]float32{{1}})
			return err
		}()},
		{"reducescatter count len", comm.ErrCountMismatch, func() error {
			_, err := d.TryReduceScatterSum([]int{0, 1}, []float32{1, 2}, []int{2})
			return err
		}()},
		{"reducescatter count sum", comm.ErrCountMismatch, func() error {
			_, err := d.TryReduceScatterSum([]int{0, 1}, []float32{1, 2, 3}, []int{1, 1})
			return err
		}()},
		{"reducescatter negative count", comm.ErrCountMismatch, func() error {
			_, err := d.TryReduceScatterSum([]int{0, 1}, []float32{1}, []int{2, -1})
			return err
		}()},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Fatalf("%s: expected error, got nil", tc.name)
		}
		if !errors.Is(tc.err, tc.sentinel) {
			t.Fatalf("%s: error %v does not wrap %v", tc.name, tc.err, tc.sentinel)
		}
	}
}

func TestSingleRankGroupErrors(t *testing.T) {
	f := comm.NewFabric(1, hw.A6000())
	d := f.Device(0)
	if _, err := d.TryBroadcast([]int{0}, 0, nil); !errors.Is(err, comm.ErrNilBuffer) {
		t.Fatalf("broadcast: %v", err)
	}
	if _, err := d.TryAllGatherFlat([]int{0}, nil, nil); !errors.Is(err, comm.ErrNilBuffer) {
		t.Fatalf("allgather: %v", err)
	}
	if _, err := d.TryAllReduceSum([]int{0}, nil); !errors.Is(err, comm.ErrNilBuffer) {
		t.Fatalf("allreduce: %v", err)
	}
	if _, err := d.TryAllToAll([]int{0}, nil); !errors.Is(err, comm.ErrNilBuffer) {
		t.Fatalf("alltoall: %v", err)
	}
	if _, err := d.TryReduceScatterSum([]int{0}, nil, []int{0}); !errors.Is(err, comm.ErrNilBuffer) {
		t.Fatalf("reducescatter: %v", err)
	}
	// Zero-length non-nil buffers stay valid.
	if _, err := d.TryAllReduceSum([]int{0}, []float32{}); err != nil {
		t.Fatalf("empty buffer should be valid: %v", err)
	}
}

func TestFabricUsableAfterFailedCollective(t *testing.T) {
	// A failed round must not wedge the group: the same group must
	// complete a correct collective immediately afterwards, and the
	// failed round must meter no volume.
	var mu sync.Mutex
	sums := make(map[int]float32)
	f := runGuarded(t, 2, func(d *comm.Device) {
		local := []float32{1}
		if d.Rank == 0 {
			local = nil
		}
		if _, err := d.TryAllReduceSum(d.World(), local); !errors.Is(err, comm.ErrNilBuffer) {
			t.Errorf("rank %d: first round: %v", d.Rank, err)
		}
		got, err := d.TryAllReduceSum(d.World(), []float32{float32(d.Rank + 1)})
		if err != nil {
			t.Errorf("rank %d: second round: %v", d.Rank, err)
			return
		}
		mu.Lock()
		sums[d.Rank] = got[0]
		mu.Unlock()
	})
	for r, s := range sums {
		if s != 3 {
			t.Fatalf("rank %d: sum=%v want 3", r, s)
		}
	}
	if v := f.Meters().Volume[hw.OpAllReduce]; v != 2*4*1 {
		t.Fatalf("only the successful round should meter volume: got %d want 8", v)
	}
	// Failed rounds still synchronize clocks: both devices agree.
	if f.Device(0).Clock() != f.Device(1).Clock() {
		t.Fatalf("clocks diverged: %v vs %v", f.Device(0).Clock(), f.Device(1).Clock())
	}
}

func TestPanicWrappersStillPanic(t *testing.T) {
	f := comm.NewFabric(2, hw.A6000())
	defer func() {
		err, ok := recover().(error)
		if !ok || !errors.Is(err, comm.ErrBadGroup) {
			t.Fatalf("wrapper should panic with the wrapped error, got %v", err)
		}
	}()
	f.Device(0).Barrier([]int{1, 0})
}

func TestCollectiveErrorFormat(t *testing.T) {
	inner := comm.ErrNilBuffer
	ce := &comm.CollectiveError{Op: "allgather", Rank: 3, Err: inner}
	want := "comm: allgather on rank 3: nil buffer"
	if ce.Error() != want {
		t.Fatalf("Error()=%q want %q", ce.Error(), want)
	}
	if !errors.Is(ce, inner) {
		t.Fatal("Unwrap should expose the cause")
	}
}

func TestSideChannelVolume(t *testing.T) {
	f := runGuarded(t, 2, func(d *comm.Device) {
		d.AllGatherFlat(d.World(), make([]float32, 4), nil) // primary: 2*16 bytes moved
		d.SetSideChannel(true)
		d.AllGatherFlat(d.World(), make([]float32, 2), nil) // side: 2*8 bytes moved
		d.SetSideChannel(false)
		d.AllGatherFlat(d.World(), make([]float32, 1), nil) // primary again: 2*4 bytes
	})
	const wantPrimary, wantSide = 32 + 8, 16
	if v := f.Meters().Volume[hw.OpAllGather]; v != wantPrimary {
		t.Fatalf("primary volume=%d want %d", v, wantPrimary)
	}
	if v := f.Meters().SideVolume[hw.OpAllGather]; v != wantSide {
		t.Fatalf("side volume=%d want %d", v, wantSide)
	}
	if v := f.TotalVolume(); v != wantPrimary+wantSide {
		t.Fatalf("total volume=%d want %d", v, wantPrimary+wantSide)
	}
	if v := f.Meters().TotalSideVolume(); v != wantSide {
		t.Fatalf("total side volume=%d want %d", v, wantSide)
	}
	if c := f.Calls(hw.OpAllGather); c != 3 {
		t.Fatalf("calls=%d want 3 (side-channel rounds still count)", c)
	}
}
