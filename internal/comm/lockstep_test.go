package comm_test

// LockstepAllToAll is the rendezvous all-to-all run by one host
// goroutine for every member. Its oracle is TryAllToAllRecv under Run:
// the same parts must arrive, and every clock, comm time, meter and trace
// event must come out bit for bit the same.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
	"gnnrdm/internal/trace"
)

// receipt is one part a rank received: the round, the sender's group
// position, and a copy of the part that keeps nil apart from empty.
type receipt struct {
	round, src int
	part       []float32
}

// lockstepPlan is a sequence of all-to-all rounds: round k runs over
// groups[k], and parts[k][i][j] is what position i sends to position j.
type lockstepPlan struct {
	groups [][]int
	parts  [][][][]float32
}

// newLockstepPlan alternates the world and its odd ranks (a one-member
// group at P = 2 and 3), with random part lengths and nil and empty
// parts mixed in.
func newLockstepPlan(rng *rand.Rand, p, rounds int) lockstepPlan {
	var odd []int
	for r := 1; r < p; r += 2 {
		odd = append(odd, r)
	}
	world := make([]int, p)
	for r := range world {
		world[r] = r
	}
	var lp lockstepPlan
	for k := 0; k < rounds; k++ {
		group := world
		if k%2 == 1 && len(odd) > 0 {
			group = odd
		}
		parts := make([][][]float32, len(group))
		for i := range parts {
			parts[i] = make([][]float32, len(group))
			for j := range parts[i] {
				switch rng.Intn(5) {
				case 0: // nil: send nothing
				case 1:
					parts[i][j] = []float32{}
				default:
					parts[i][j] = make([]float32, 1+rng.Intn(300))
					for x := range parts[i][j] {
						parts[i][j][x] = rng.Float32()
					}
				}
			}
		}
		lp.groups = append(lp.groups, group)
		lp.parts = append(lp.parts, parts)
	}
	return lp
}

// load is the compute rank d charges before round k, different on every
// rank so the members reach each round at different clocks.
func load(d *comm.Device, k int) { d.ChargeGemm(64*(d.Rank+1), 32+k, 48) }

// lockstepFabric builds a traced fabric with rank p-1's link degraded and
// the side channel set as asked.
func lockstepFabric(t *testing.T, p int, spec string, side bool) (*comm.Fabric, *trace.Tracer) {
	t.Helper()
	f := comm.NewFabric(p, hw.A6000())
	if spec != "" {
		sp, err := topo.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		f.SetTopology(sp.MustTopology(p))
	}
	f.SetLinkFault(p-1, 3, 2)
	for r := 0; r < p; r++ {
		f.Device(r).SetSideChannel(side)
	}
	tr := trace.NewTracer(0)
	f.SetTracer(tr, "lockstep")
	return f, tr
}

func TestLockstepAllToAllMatchesRendezvous(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, spec := range []string{"", "4x2:nvlink,ib"} {
			for _, side := range []bool{false, true} {
				t.Run(fmt.Sprintf("P%d_%q_side%v", p, spec, side), func(t *testing.T) {
					lp := newLockstepPlan(rand.New(rand.NewSource(int64(p))), p, 6)

					rf, rt := lockstepFabric(t, p, spec, side)
					rgot := make([][]receipt, p)
					runBounded(t, rf, func(d *comm.Device) {
						for k, group := range lp.groups {
							load(d, k)
							i := slices.Index(group, d.Rank)
							if i < 0 {
								continue
							}
							err := d.TryAllToAllRecv(group, lp.parts[k][i], func(src int, part []float32) {
								rgot[d.Rank] = append(rgot[d.Rank], receipt{k, src, slices.Clone(part)})
							})
							if err != nil {
								t.Errorf("rank %d round %d: %v", d.Rank, k, err)
							}
						}
					})

					lf, lt := lockstepFabric(t, p, spec, side)
					lgot := make([][]receipt, p)
					for k, group := range lp.groups {
						for r := 0; r < p; r++ {
							load(lf.Device(r), k)
						}
						err := lf.LockstepAllToAll(group, lp.parts[k], func(dst, src int, part []float32) {
							lgot[group[dst]] = append(lgot[group[dst]], receipt{k, src, slices.Clone(part)})
						})
						if err != nil {
							t.Fatalf("round %d: %v", k, err)
						}
					}

					if !reflect.DeepEqual(lgot, rgot) {
						t.Fatalf("receipts differ:\nlockstep   %v\nrendezvous %v", lgot, rgot)
					}
					sameFabrics(t, lf, rf)
					for r := 0; r < p; r++ {
						le, re := lt.Sessions()[0].Events(r), rt.Sessions()[0].Events(r)
						if !reflect.DeepEqual(le, re) {
							t.Fatalf("rank %d trace:\nlockstep   %+v\nrendezvous %+v", r, le, re)
						}
					}
				})
			}
		}
	}

	// A fault hook or CRC keeps the round on the rendezvous; malformed
	// shapes are refused too. Either way nothing moves.
	for _, c := range []struct {
		name  string
		arm   func(f *comm.Fabric)
		group []int
		parts [][][]float32
		want  error
	}{
		{"hook", func(f *comm.Fabric) { f.SetFaultHook(&flakyHook{}) }, []int{0, 1}, nil, errors.ErrUnsupported},
		{"crc", func(f *comm.Fabric) { f.EnableCRC(true) }, []int{0, 1}, nil, errors.ErrUnsupported},
		{"outside", func(*comm.Fabric) {}, []int{1, 3}, nil, comm.ErrBadGroup},
		{"unsorted", func(*comm.Fabric) {}, []int{1, 0}, nil, comm.ErrBadGroup},
		{"count", func(*comm.Fabric) {}, []int{0, 1}, [][][]float32{{nil, nil}}, comm.ErrCountMismatch},
		{"nil", func(*comm.Fabric) {}, []int{0, 1}, [][][]float32{{nil, nil}, nil}, comm.ErrCountMismatch},
		{"short", func(*comm.Fabric) {}, []int{0, 1}, [][][]float32{{nil, nil}, {nil}}, comm.ErrCountMismatch},
	} {
		t.Run("refuses_"+c.name, func(t *testing.T) {
			f, tr := lockstepFabric(t, 2, "", false)
			c.arm(f)
			parts := c.parts
			if parts == nil {
				parts = [][][]float32{{{1}, {2}}, {{3}, {4}}}
			}
			err := f.LockstepAllToAll(c.group, parts, func(int, int, []float32) {
				t.Error("a refused round delivered a part")
			})
			if !errors.Is(err, c.want) {
				t.Fatalf("got %v, want an error wrapping %v", err, c.want)
			}
			for r := 0; r < 2; r++ {
				if d := f.Device(r); d.Clock() != 0 || d.CommTime() != 0 || len(tr.Sessions()[0].Events(r)) != 0 {
					t.Fatalf("rank %d moved: clock %v, comm %v, %d events", r, d.Clock(), d.CommTime(), len(tr.Sessions()[0].Events(r)))
				}
			}
			if f.TotalVolume() != 0 || f.Calls(hw.OpAllToAll) != 0 {
				t.Fatalf("a refused round metered %d bytes over %d calls", f.TotalVolume(), f.Calls(hw.OpAllToAll))
			}
		})
	}
}

// sameFabrics fails unless two fabrics agree on every device's clock and
// comm time and on every meter.
func sameFabrics(t *testing.T, a, b *comm.Fabric) {
	t.Helper()
	for r := 0; r < a.P; r++ {
		da, db := a.Device(r), b.Device(r)
		if da.Clock() != db.Clock() || da.CommTime() != db.CommTime() {
			t.Fatalf("rank %d: clock %v / comm %v, oracle %v / %v", r, da.Clock(), da.CommTime(), db.Clock(), db.CommTime())
		}
	}
	if am, bm := a.Meters(), b.Meters(); am != bm {
		t.Fatalf("meters %+v, oracle %+v", am, bm)
	}
}
