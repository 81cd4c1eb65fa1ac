package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"gnnrdm/internal/comm"
)

// Injector executes a Schedule against a comm fabric. One Injector
// spans an entire elastic run: after a crash shrinks the world, Remap
// points it at the survivors and event fire-counts persist, so each
// scheduled flip/drop executes at most once even when checkpoint
// rollback replays its trigger epoch.
//
// Determinism: crash/slow/degrade decisions read only immutable schedule
// state and the observing device's own fields; flip/drop decisions fire
// exclusively on world-group rounds, which are totally ordered (every
// device participates), so concurrent subgroup rounds can never race the
// fire-counts into a schedule-order-dependent state. Flip bit positions
// come from a per-event RNG seeded by (seed, event index), independent
// of execution interleaving.
type Injector struct {
	sched *Schedule
	seed  int64

	orig []int       // orig[fabricRank] = original rank
	fab  map[int]int // original rank -> fabric rank, live ranks only

	mu    sync.Mutex
	fired []int // per-event fire count (Flip, Drop)
}

// NewInjector creates an injector for a full world of p ranks (fabric
// rank == original rank until the first Remap).
func NewInjector(s *Schedule, seed int64, p int) *Injector {
	in := &Injector{sched: s, seed: seed, fired: make([]int, len(s.Events))}
	world := make([]int, p)
	for i := range world {
		world[i] = i
	}
	in.Remap(world)
	return in
}

// Remap points the injector at a re-formed world: orig[fabricRank] is
// the original rank each surviving device represents. Events addressing
// dead original ranks deactivate.
func (in *Injector) Remap(orig []int) {
	in.orig = append([]int(nil), orig...)
	in.fab = make(map[int]int, len(orig))
	for f, o := range orig {
		in.fab[o] = f
	}
}

// Arm applies the schedule's standing perturbations (stragglers, link
// degradation) to a fabric and attaches the injector as its fault hook
// when any crash/flip/drop events are pending. Call after Remap, before
// fabric.Run.
func (in *Injector) Arm(f *comm.Fabric) {
	hookNeeded := false
	for i, ev := range in.sched.Events {
		if ev.Kind == Partition {
			// A cut is pending while unfired and both sides still
			// have live members; Rank alone (GroupA[0]) may be dead
			// without deactivating the event.
			if in.fired[i] < fireLimit(ev) && in.groupsLive(ev) {
				hookNeeded = true
			}
			continue
		}
		fr, live := in.fab[ev.Rank]
		if !live {
			continue
		}
		switch ev.Kind {
		case Slow:
			f.Device(fr).SetComputeSlowdown(ev.Factor)
		case Degrade:
			f.SetLinkFault(fr, ev.Alpha, ev.Beta)
		case Crash:
			hookNeeded = true
		case Flip, Drop:
			if in.fired[i] < fireLimit(ev) {
				hookNeeded = true
			}
		}
	}
	if hookNeeded {
		f.SetFaultHook(in)
	}
}

func fireLimit(ev Event) int {
	if ev.Kind == Drop {
		return ev.Count
	}
	return 1
}

// groupsLive reports whether both sides of a partition still hold at
// least one live member; a cut whose side is entirely dead is inert.
func (in *Injector) groupsLive(ev Event) bool {
	side := func(g []int) bool {
		for _, r := range g {
			if _, live := in.fab[r]; live {
				return true
			}
		}
		return false
	}
	return side(ev.GroupA) && side(ev.GroupB)
}

// AtEpochStart fires epoch-triggered crashes: a device whose original
// rank is scheduled to crash at this epoch panics with comm.Killed,
// which Fabric.Run contains (peers see ErrPeerDead). Drivers call it on
// every device at the top of each epoch.
func (in *Injector) AtEpochStart(d *comm.Device, epoch int) {
	o := in.orig[d.Rank]
	for _, ev := range in.sched.Events {
		if ev.Kind == Crash && ev.Rank == o && ev.Epoch == epoch {
			panic(comm.Killed{Rank: d.Rank, Reason: ev.String()})
		}
	}
}

// BeforeCollective fires time-triggered crashes: the device dies at its
// first collective after its simulated clock passes the scheduled time.
func (in *Injector) BeforeCollective(d *comm.Device, op string) {
	o := in.orig[d.Rank]
	for _, ev := range in.sched.Events {
		if ev.Kind == Crash && ev.Rank == o && ev.Epoch < 0 && d.Clock() >= ev.Time {
			panic(comm.Killed{Rank: d.Rank, Reason: ev.String()})
		}
	}
}

// OnRound executes flip, drop, and partition events on world-group
// rounds. Drops and partitions take precedence: a failed round carries
// no corruption, so a pending flip waits for the next round. Flips mutate the scheduled rank's
// deposited payload in place; with the CRC side-channel enabled the
// fabric detects and rolls the flip back (a retried round), without it
// the corruption propagates into training.
func (in *Injector) OnRound(d *comm.Device, op string, group []int, seq uint64, slots []any) error {
	if len(group) != d.P() {
		return nil // subgroup rounds are exempt, keeping firing totally ordered
	}
	epoch := d.FaultEpoch()
	if epoch < 0 {
		return nil // recovery traffic is not a fault target
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, ev := range in.sched.Events {
		if (ev.Kind != Drop && ev.Kind != Partition) || ev.Epoch != epoch || in.fired[i] >= fireLimit(ev) {
			continue
		}
		if ev.Kind == Partition {
			if !in.groupsLive(ev) {
				continue
			}
		} else if _, live := in.fab[ev.Rank]; !live {
			continue
		}
		in.fired[i]++
		return fmt.Errorf("%s (round %d of %s): %w", ev, seq, op, comm.ErrTransient)
	}
	for i, ev := range in.sched.Events {
		if ev.Kind != Flip || ev.Epoch != epoch || in.fired[i] > 0 {
			continue
		}
		fr, live := in.fab[ev.Rank]
		if !live {
			continue
		}
		if flipPayloadBit(slots[fr], rand.New(rand.NewSource(in.seed^int64(i+1)*0x9E3779B9))) {
			in.fired[i]++
		}
		// Payload-less rounds (barriers) leave the flip pending for the
		// next world round of the epoch.
	}
	return nil
}

// flipPayloadBit flips one seeded-random low-mantissa bit of one
// element of the payload (keeping the value finite: sign/exponent bits
// stay intact so corruption perturbs training instead of producing
// NaN/Inf immediately). Returns false when the payload holds no
// elements.
func flipPayloadBit(payload any, rng *rand.Rand) bool {
	var bufs [][]float32
	switch v := payload.(type) {
	case []float32:
		bufs = [][]float32{v}
	case [][]float32:
		bufs = v
	default:
		return false
	}
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return false
	}
	idx := rng.Intn(total)
	bit := uint(rng.Intn(22)) // low mantissa bits only
	for _, b := range bufs {
		if idx < len(b) {
			b[idx] = math.Float32frombits(math.Float32bits(b[idx]) ^ (1 << bit))
			return true
		}
		idx -= len(b)
	}
	return false
}

// RandomSchedule draws a small reproducible chaos schedule for a world
// of p ranks (p >= 3) training for the given epochs (>= 2): one or two
// crashes plus, on coin flips, a straggler, a degraded link, a payload
// flip, and a transient drop. The same seed always yields the same
// schedule.
func RandomSchedule(seed int64, p, epochs int) *Schedule {
	if p < 3 || epochs < 2 {
		panic("fault: RandomSchedule needs p >= 3 and epochs >= 2")
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{}
	nCrash := 1 + rng.Intn(2)
	perm := rng.Perm(p)
	for i := 0; i < nCrash; i++ {
		s.Events = append(s.Events, Event{
			Kind: Crash, Rank: perm[i], Epoch: 1 + rng.Intn(epochs-1),
		})
	}
	victim := func() int { return perm[nCrash+rng.Intn(p-nCrash)] }
	if rng.Intn(2) == 0 {
		s.Events = append(s.Events, Event{Kind: Slow, Rank: victim(), Epoch: -1,
			Factor: 1.25 + float64(rng.Float64())})
	}
	if rng.Intn(2) == 0 {
		s.Events = append(s.Events, Event{Kind: Degrade, Rank: victim(), Epoch: -1,
			Alpha: 1 + float64(rng.Float64()*3), Beta: 1 + float64(rng.Float64()*3)})
	}
	if rng.Intn(2) == 0 {
		s.Events = append(s.Events, Event{Kind: Flip, Rank: victim(), Epoch: rng.Intn(epochs)})
	}
	if rng.Intn(2) == 0 {
		s.Events = append(s.Events, Event{Kind: Drop, Rank: victim(), Epoch: rng.Intn(epochs),
			Count: 1 + rng.Intn(2)})
	}
	return s
}
