package comm_test

// TryAllToAllRecv hands received parts over in place, and TryAllToAll is
// its private-copying caller: these tests pin the delivery contract
// (ascending positions, own part included, exactly once, nothing on a
// failed round) and that the copying form's results did not move. The
// callbacks run outside the group lock, side by side, so the suite is
// meant for -race -count=10 (TESTING.md).

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/hw"
)

// partFor is the part rank from addresses to rank to: to+1 elements, so
// lengths differ per pair, except 2 -> 1, a nil "send nothing" entry.
func partFor(from, to int) []float32 {
	if from == 2 && to == 1 {
		return nil
	}
	part := make([]float32, to+1)
	for k := range part {
		part[k] = float32(100*from + 10*to + k)
	}
	return part
}

type delivery struct {
	pos  int
	part []float32
}

func TestAllToAllRecvDeliversInOrderOnce(t *testing.T) {
	for _, group := range [][]int{{0, 1, 2, 3}, {1, 3}, {2}} {
		t.Run(fmt.Sprint(group), func(t *testing.T) {
			f := comm.NewFabric(4, hw.A6000())
			got := make([][]delivery, 4)
			runBounded(t, f, func(d *comm.Device) {
				in := false
				for _, r := range group {
					in = in || r == d.Rank
				}
				if !in {
					return
				}
				parts := make([][]float32, len(group))
				for j, r := range group {
					parts[j] = partFor(d.Rank, r)
				}
				err := d.TryAllToAllRecv(group, parts, func(i int, part []float32) {
					// part is only valid during the call: keep a copy.
					got[d.Rank] = append(got[d.Rank], delivery{i, append([]float32(nil), part...)})
				})
				if err != nil {
					t.Errorf("rank %d: %v", d.Rank, err)
				}
			})
			for _, r := range group {
				if len(got[r]) != len(group) {
					t.Fatalf("rank %d: %d deliveries for a %d-member group", r, len(got[r]), len(group))
				}
				for i, dv := range got[r] {
					if dv.pos != i {
						t.Fatalf("rank %d: delivery %d is for position %d", r, i, dv.pos)
					}
					want := partFor(group[i], r)
					if len(dv.part) != len(want) {
						t.Fatalf("rank %d: position %d delivered %d elements, want %d", r, i, len(dv.part), len(want))
					}
					for k := range want {
						if dv.part[k] != want[k] {
							t.Fatalf("rank %d: position %d element %d = %v, want %v", r, i, k, dv.part[k], want[k])
						}
					}
				}
			}
		})
	}
}

// The receivers' callbacks overlap in time: every member reads the same
// deposited buffers while the others do, which is only safe because none
// of them writes shared memory. Under -race this is the test that would
// catch a callback path that does.
func TestAllToAllRecvCallbacksRunSideBySide(t *testing.T) {
	const p, rounds, elems = 4, 50, 2048
	f := comm.NewFabric(p, hw.A6000())
	runBounded(t, f, func(d *comm.Device) {
		parts := make([][]float32, p)
		for j := range parts {
			parts[j] = make([]float32, elems)
		}
		dst := make([]float32, p*elems)
		for round := 0; round < rounds; round++ {
			for j := range parts {
				for k := range parts[j] {
					parts[j][k] = float32(round*p*p + d.Rank*p + j)
				}
			}
			err := d.TryAllToAllRecv(d.World(), parts, func(i int, part []float32) {
				copy(dst[i*elems:], part)
			})
			if err != nil {
				t.Errorf("rank %d round %d: %v", d.Rank, round, err)
				return
			}
			for i := 0; i < p; i++ {
				want := float32(round*p*p + i*p + d.Rank)
				if dst[i*elems] != want || dst[(i+1)*elems-1] != want {
					t.Errorf("rank %d round %d: from %d got %v..%v, want %v", d.Rank, round, i,
						dst[i*elems], dst[(i+1)*elems-1], want)
					return
				}
			}
		}
	})
}

func TestAllToAllRecvSilentOnFailedRounds(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fail, max int
		wantCalls int
		wantErr   error
	}{
		{"retried", 2, 3, 2, nil},
		{"budget exhausted", 1 << 30, 2, 0, comm.ErrTransient},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := comm.NewFabric(2, hw.A6000())
			hook := &flakyHook{match: "alltoall", fail: tc.fail}
			f.SetFaultHook(hook)
			f.SetRetryPolicy(comm.RetryPolicy{Max: tc.max, Backoff: 10e-6, Multiplier: 2})
			runBounded(t, f, func(d *comm.Device) {
				calls, roundsSeen := 0, -1
				err := d.TryAllToAllRecv(d.World(), [][]float32{{1}, {2}}, func(i int, part []float32) {
					calls++
					hook.mu.Lock()
					roundsSeen = hook.rounds
					hook.mu.Unlock()
				})
				if calls != tc.wantCalls {
					t.Errorf("rank %d: %d deliveries, want %d", d.Rank, calls, tc.wantCalls)
				}
				if tc.wantErr == nil {
					if err != nil {
						t.Errorf("rank %d: %v", d.Rank, err)
					}
					// Delivered by the round that succeeded, not before.
					if roundsSeen != tc.fail+1 {
						t.Errorf("rank %d: delivered after %d rounds, want %d", d.Rank, roundsSeen, tc.fail+1)
					}
					return
				}
				var fe *comm.FaultError
				if !errors.As(err, &fe) || !errors.Is(err, tc.wantErr) {
					t.Errorf("rank %d: got %v, want FaultError wrapping %v", d.Rank, err, tc.wantErr)
				}
			})
		})
	}
}

func TestAllToAllRecvErrorsMatchAllToAll(t *testing.T) {
	never := func(t *testing.T, d *comm.Device) func(int, []float32) {
		return func(i int, _ []float32) { t.Errorf("rank %d: delivery for position %d on a failed call", d.Rank, i) }
	}
	t.Run("count mismatch before rendezvous", func(t *testing.T) {
		wantAll(t, collectErrs(t, 2, func(d *comm.Device) error {
			return d.TryAllToAllRecv(d.World(), [][]float32{{1}}, never(t, d))
		}), "alltoall", comm.ErrCountMismatch)
	})
	t.Run("nil parts cooperative", func(t *testing.T) {
		wantAll(t, collectErrs(t, 2, func(d *comm.Device) error {
			parts := [][]float32{{1}, {2}}
			if d.Rank == 1 {
				parts = nil
			}
			return d.TryAllToAllRecv(d.World(), parts, never(t, d))
		}), "alltoall", comm.ErrNilBuffer)
	})
	t.Run("single member", func(t *testing.T) {
		d := comm.NewFabric(1, hw.A6000()).Device(0)
		if err := d.TryAllToAllRecv([]int{0}, nil, never(t, d)); !errors.Is(err, comm.ErrNilBuffer) {
			t.Fatalf("nil parts: got %v, want ErrNilBuffer", err)
		}
		own := []float32{4}
		calls := 0
		err := d.TryAllToAllRecv([]int{0}, [][]float32{own}, func(i int, part []float32) {
			calls++
			if i != 0 || &part[0] != &own[0] {
				t.Errorf("single member: position %d, part %v", i, part)
			}
		})
		if err != nil || calls != 1 {
			t.Fatalf("single member: err %v, %d deliveries", err, calls)
		}
		if f := d.F; f.Calls(hw.OpAllToAll) != 0 || f.TotalVolume() != 0 {
			t.Fatal("single-member exchange must not touch the meters")
		}
	})
	t.Run("not in group", func(t *testing.T) {
		d := comm.NewFabric(2, hw.A6000()).Device(0)
		if err := d.TryAllToAllRecv([]int{1}, [][]float32{{1}}, never(t, d)); !errors.Is(err, comm.ErrBadGroup) {
			t.Fatalf("got %v, want ErrBadGroup", err)
		}
	})
}

// TryAllToAll's results as they were before it became a caller of the
// Recv form: own part passed through without copy, every other part a
// private copy that survives the sender reusing its buffer, a nil part
// received as an empty non-nil slice, identical meters.
func TestAllToAllCopiesStayPrivate(t *testing.T) {
	const p = 3
	f := comm.NewFabric(p, hw.A6000())
	var mu sync.Mutex
	outs := make([][][]float32, p)
	runBounded(t, f, func(d *comm.Device) {
		parts := make([][]float32, p)
		for j := range parts {
			parts[j] = partFor(d.Rank, j)
		}
		own := parts[d.Rank]
		out, err := d.TryAllToAll(d.World(), parts)
		if err != nil {
			t.Errorf("rank %d: %v", d.Rank, err)
			return
		}
		if &out[d.Rank][0] != &own[0] {
			t.Errorf("rank %d: own part was copied", d.Rank)
		}
		// Scribble over everything sent: the peers' copies must not move.
		for j := range parts {
			for k := range parts[j] {
				if j != d.Rank {
					parts[j][k] = -1
				}
			}
		}
		d.Barrier(d.World())
		mu.Lock()
		outs[d.Rank] = out
		mu.Unlock()
	})
	var wantBytes int64
	for r := 0; r < p; r++ {
		for i := 0; i < p; i++ {
			want := partFor(i, r)
			got := outs[r][i]
			if got == nil || len(got) != len(want) {
				t.Fatalf("rank %d from %d: got %v, want %d elements (nil part arrives empty, not nil)", r, i, got, len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("rank %d from %d: element %d = %v, want %v", r, i, k, got[k], want[k])
				}
			}
			if i != r {
				wantBytes += int64(len(want)) * 4
			}
		}
	}
	if got := f.Meters().Volume[hw.OpAllToAll]; got != wantBytes || f.Calls(hw.OpAllToAll) != 1 {
		t.Fatalf("metered %d bytes in %d calls, want %d in 1", got, f.Calls(hw.OpAllToAll), wantBytes)
	}
}
