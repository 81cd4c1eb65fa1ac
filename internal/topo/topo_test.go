package topo

import (
	"math"
	"testing"

	"gnnrdm/internal/hw"
)

func group(p int) []int {
	g := make([]int, p)
	for i := range g {
		g[i] = i
	}
	return g
}

func TestSpecRoundTrip(t *testing.T) {
	cases := []struct {
		in      string
		out     string // canonical form; "" means parse must fail
		devices int
	}{
		{"8x4:nvlink,ib", "8x4:nvlink,ib", 32},
		{"1x8:pcie", "1x8:pcie", 8},
		{"1x8:pcie,eth", "1x8:pcie", 8}, // 1-node inter class normalized away
		{"2x2:nvlink,eth", "2x2:nvlink,eth", 4},
		{"16x1:nvlink,ib", "16x1:nvlink,ib", 16},
		{"4x8:pcie3,ib", "4x8:pcie3,ib", 32},
		{"8x4", "", 0},              // no link classes
		{"8:nvlink,ib", "", 0},      // no shape
		{"0x4:nvlink,ib", "", 0},    // zero nodes
		{"8x-1:nvlink,ib", "", 0},   // negative per-node
		{"8x4:warp,ib", "", 0},      // unknown intra class
		{"8x4:nvlink,warp", "", 0},  // unknown inter class
		{"8x4:nvlink", "", 0},       // multi-node needs inter class
		{"axb:nvlink,ib", "", 0},    // non-numeric shape
		{"999999x999:ib,ib", "", 0}, // over device limit
	}
	for _, c := range cases {
		s, err := ParseSpec(c.in)
		if c.out == "" {
			if err == nil {
				t.Errorf("ParseSpec(%q) = %+v, want error", c.in, s)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if s.String() != c.out {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", c.in, s.String(), c.out)
		}
		if s.Devices() != c.devices {
			t.Errorf("%q: Devices() = %d, want %d", c.in, s.Devices(), c.devices)
		}
		// String must be a parse fixed point.
		again, err := ParseSpec(s.String())
		if err != nil || again != s {
			t.Errorf("%q: re-parse gave %+v, %v; want %+v", c.in, again, err, s)
		}
	}
}

func TestParseClassAndAlgorithm(t *testing.T) {
	for _, c := range classes {
		got, err := ParseClass(c.Name)
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %+v, %v", c.Name, got, err)
		}
	}
	if _, err := ParseClass("carrier-pigeon"); err == nil {
		t.Error("ParseClass must reject unknown classes")
	}
	for a, want := range []string{"auto", "ring", "rhd", "hier", "unknown"} {
		if got := Algorithm(a).String(); got != want {
			t.Errorf("Algorithm(%d).String() = %q, want %q", a, got, want)
		}
	}
}

func TestTopologyShape(t *testing.T) {
	tp := must(t, "8x4:nvlink,ib", 32)
	if tp.NodeOf(0) != 0 || tp.NodeOf(3) != 0 || tp.NodeOf(4) != 1 || tp.NodeOf(31) != 7 {
		t.Fatal("NodeOf wrong")
	}
	if tp.Tier(0, 3) != TierIntra || tp.Tier(0, 4) != TierInter || tp.Tier(5, 30) != TierInter {
		t.Fatal("Tier wrong")
	}
	if tp.worstTier([]int{0, 1, 2, 3}) != TierIntra || tp.worstTier([]int{3, 4}) != TierInter {
		t.Fatal("worstTier wrong")
	}
	if _, err := ParseSpec("8x4:nvlink,ib"); err != nil {
		t.Fatal(err)
	}
	s, _ := ParseSpec("8x4:nvlink,ib")
	if _, err := s.Topology(33); err == nil {
		t.Fatal("Topology must reject p beyond the spec's device count")
	}
	if _, err := s.Topology(0); err == nil {
		t.Fatal("Topology must reject p < 1")
	}

	nodes, ok := tp.nodeGroups(group(8))
	if !ok || len(nodes) != 2 || len(nodes[0]) != 4 {
		t.Fatalf("nodeGroups(0..7) = %v, %v", nodes, ok)
	}
	if _, ok := tp.nodeGroups([]int{0, 1, 2, 3}); ok {
		t.Fatal("single-node group must not qualify for hierarchical")
	}
	if _, ok := tp.nodeGroups([]int{0, 1, 4}); ok {
		t.Fatal("ragged group must not qualify for hierarchical")
	}
	if _, ok := tp.nodeGroups([]int{0, 4, 8, 12}); !ok {
		t.Fatal("one-per-node plane group must qualify")
	}

	flat := Flat(8, hw.A6000())
	if flat.Tiers != 1 || flat.NodeOf(7) != 0 || flat.worstTier(group(8)) != TierIntra {
		t.Fatal("Flat topology must be single-tier")
	}
}

func must(t *testing.T, spec string, p int) *Topology {
	t.Helper()
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s.MustTopology(p)
}

// TestFlatMatchesHW pins the backward-compat contract: on a flat
// topology built from h, every ring cost's time equals
// hw.CollectiveTime on h bit-for-bit, everything lands on tier 0, and
// totals equal the classic formulas the fabric metered before
// topologies existed.
func TestFlatMatchesHW(t *testing.T) {
	h := hw.A6000()
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		tp := Flat(p, h)
		g := group(p)
		B := int64(1 << 20)

		_, ar := tp.AllReduce(h, Auto, g, B)
		if ar.Time != h.CollectiveTime(hw.OpAllReduce, p, B) {
			t.Fatalf("p=%d: flat allreduce time %v != hw %v", p, ar.Time, h.CollectiveTime(hw.OpAllReduce, p, B))
		}
		wantAR := int64(0)
		if p > 1 {
			wantAR = 2 * B * int64(p-1)
		}
		if ar.Tier[TierInter] != 0 || ar.Bytes() != wantAR {
			t.Fatalf("p=%d: flat allreduce tiers %v, want [%d 0]", p, ar.Tier, wantAR)
		}

		chunks := make([]int64, p)
		var total int64
		for i := range chunks {
			chunks[i] = int64(4 * (100 + i))
			total += chunks[i]
		}
		_, ag := tp.AllGather(h, Auto, g, chunks)
		if ag.Time != h.CollectiveTime(hw.OpAllGather, p, total) {
			t.Fatalf("p=%d: flat allgather time mismatch", p)
		}
		wantAG := int64(0)
		if p > 1 {
			wantAG = total * int64(p-1)
		}
		if ag.Tier[TierInter] != 0 || ag.Bytes() != wantAG {
			t.Fatalf("p=%d: flat allgather tiers %v, want [%d 0]", p, ag.Tier, wantAG)
		}

		_, rs := tp.ReduceScatter(h, Auto, g, chunks)
		if rs.Time != h.CollectiveTime(hw.OpReduceScatter, p, total) {
			t.Fatalf("p=%d: flat reducescatter time mismatch", p)
		}
		wantRS := int64(0)
		if p > 1 {
			wantRS = total * int64(p-1)
		}
		if rs.Bytes() != wantRS {
			t.Fatalf("p=%d: flat reducescatter bytes %d, want %d", p, rs.Bytes(), wantRS)
		}

		pairB := func(i, j int) int64 { return int64(4 * (1 + i + 2*j)) }
		var a2aTotal, maxInj int64
		for i := 0; i < p; i++ {
			var inj int64
			for j := 0; j < p; j++ {
				if i != j {
					inj += pairB(i, j)
				}
			}
			a2aTotal += inj
			if inj > maxInj {
				maxInj = inj
			}
		}
		_, a2a := tp.AllToAll(h, Auto, g, pairB)
		if a2a.Time != h.CollectiveTime(hw.OpAllToAll, p, maxInj) {
			t.Fatalf("p=%d: flat alltoall time mismatch", p)
		}
		if a2a.Bytes() != a2aTotal || a2a.Tier[TierInter] != 0 {
			t.Fatalf("p=%d: flat alltoall bytes %d, want %d", p, a2a.Bytes(), a2aTotal)
		}

		bc := tp.Broadcast(h, g, 0, B)
		if bc.Time != h.CollectiveTime(hw.OpBroadcast, p, B) {
			t.Fatalf("p=%d: flat broadcast time mismatch", p)
		}
		wantBC := int64(0)
		if p > 1 {
			wantBC = B * int64(p-1)
		}
		if bc.Bytes() != wantBC {
			t.Fatalf("p=%d: flat broadcast bytes %d, want %d", p, bc.Bytes(), wantBC)
		}
	}
}

// TestAutoIsRingOnFlat pins the autotuner rule that keeps flat
// topologies byte- and clock-identical to the pre-topology fabric:
// single-tier groups always resolve to Ring even where RHD would be
// cheaper on paper.
func TestAutoIsRingOnFlat(t *testing.T) {
	h := hw.A6000()
	tp := Flat(8, h)
	g := group(8)
	if alg, _ := tp.AllReduce(h, Auto, g, 1<<20); alg != Ring {
		t.Fatalf("auto allreduce on flat picked %v, want ring", alg)
	}
	if alg, _ := tp.AllGather(h, Auto, g, evenChunks(1<<20, 8)); alg != Ring {
		t.Fatal("auto allgather on flat must pick ring")
	}
	if alg, _ := tp.ReduceScatter(h, Auto, g, evenChunks(1<<20, 8)); alg != Ring {
		t.Fatal("auto reducescatter on flat must pick ring")
	}
	if alg, _ := tp.AllToAll(h, Auto, g, func(i, j int) int64 { return 4096 }); alg != Ring {
		t.Fatal("auto alltoall on flat must pick ring")
	}
	// Same rule for a single-node subgroup of a hierarchical topology.
	tp2 := must(t, "8x4:nvlink,ib", 32)
	if alg, _ := tp2.AllReduce(h, Auto, []int{0, 1, 2, 3}, 1<<20); alg != Ring {
		t.Fatal("auto on an intra-node group must pick ring")
	}
}

// TestByteConservation checks the exact byte accounting of every
// algorithm: allreduce always moves 2B(p-1) and allgather B(p-1) under
// ring, RHD, and hierarchical scheduling (they trade latency and tier
// placement, never volume); ring/RHD reduce-scatter moves B(p-1);
// Bruck and hierarchical variants move at least the direct volume.
func TestByteConservation(t *testing.T) {
	h := hw.A6000()
	tp := must(t, "8x4:nvlink,ib", 32)
	for _, p := range []int{8, 16, 32} {
		g := group(p)
		B := int64(4 * 1024)
		want := 2 * B * int64(p-1)
		for _, alg := range []Algorithm{Ring, RHD, Hier} {
			got, c := tp.AllReduce(h, alg, g, B)
			if got != alg {
				t.Fatalf("p=%d: explicit %v allreduce resolved to %v", p, alg, got)
			}
			if c.Bytes() != want {
				t.Fatalf("p=%d %v: allreduce bytes %d, want %d", p, alg, c.Bytes(), want)
			}
		}

		chunks := make([]int64, p)
		var total int64
		for i := range chunks {
			chunks[i] = int64(4 * (50 + 3*i))
			total += chunks[i]
		}
		want = total * int64(p-1)
		for _, alg := range []Algorithm{Ring, RHD, Hier} {
			got, c := tp.AllGather(h, alg, g, chunks)
			if got != alg {
				t.Fatalf("p=%d: explicit %v allgather resolved to %v", p, alg, got)
			}
			if c.Bytes() != want {
				t.Fatalf("p=%d %v: allgather bytes %d, want %d", p, alg, c.Bytes(), want)
			}
		}

		for _, alg := range []Algorithm{Ring, RHD} {
			_, c := tp.ReduceScatter(h, alg, g, chunks)
			if c.Bytes() != want {
				t.Fatalf("p=%d %v: reducescatter bytes %d, want %d", p, alg, c.Bytes(), want)
			}
		}
		_, hrs := tp.ReduceScatter(h, Hier, g, chunks)
		if hrs.Bytes() < want {
			t.Fatalf("p=%d: hier reducescatter bytes %d below direct %d", p, hrs.Bytes(), want)
		}

		pairB := func(i, j int) int64 { return int64(4 * ((i+j)%5 + 1)) }
		var direct int64
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i != j {
					direct += pairB(i, j)
				}
			}
		}
		_, ra := tp.AllToAll(h, Ring, g, pairB)
		if ra.Bytes() != direct {
			t.Fatalf("p=%d: ring alltoall bytes %d, want %d", p, ra.Bytes(), direct)
		}
		_, ba := tp.AllToAll(h, RHD, g, pairB)
		if ba.Bytes() < direct {
			t.Fatalf("p=%d: bruck alltoall bytes %d below direct %d", p, ba.Bytes(), direct)
		}
		_, ha := tp.AllToAll(h, Hier, g, pairB)
		if ha.Bytes() < direct {
			t.Fatalf("p=%d: hier alltoall bytes %d below direct %d", p, ha.Bytes(), direct)
		}
	}
}

// TestHierBeatsRingProperty is the satellite property test: on a
// two-tier spec, hierarchical all-reduce never costs more simulated
// time than the flat ring for any P >= 16 (strictly less whenever the
// group is node-uniform and spans nodes), and on a 1-node spec the two
// are exactly equal.
func TestHierBeatsRingProperty(t *testing.T) {
	h := hw.A6000()
	s, err := ParseSpec("16x4:nvlink,ib")
	if err != nil {
		t.Fatal(err)
	}
	bytes := int64(4 * 1024) // 1024 float32 elements
	for p := 16; p <= s.Devices(); p++ {
		tp := s.MustTopology(p)
		g := group(p)
		_, ring := tp.AllReduce(h, Ring, g, bytes)
		alg, hier := tp.AllReduce(h, Hier, g, bytes)
		if hier.Time > ring.Time {
			t.Fatalf("P=%d: hier allreduce %v slower than ring %v", p, hier.Time, ring.Time)
		}
		if alg == Hier && p%4 == 0 && hier.Time >= ring.Time {
			t.Fatalf("P=%d: node-uniform hier allreduce %v not strictly faster than ring %v",
				p, hier.Time, ring.Time)
		}
		autoAlg, auto := tp.AllReduce(h, Auto, g, bytes)
		if auto.Time > hier.Time || auto.Time > ring.Time {
			t.Fatalf("P=%d: auto (%v, %v) worse than an explicit candidate", p, autoAlg, auto.Time)
		}
	}

	// 1-node spec: hierarchical does not apply; it must price exactly the
	// ring, bit-for-bit.
	one := mustSpec(t, "1x32:nvlink")
	for _, p := range []int{16, 24, 32} {
		tp := one.MustTopology(p)
		g := group(p)
		_, ring := tp.AllReduce(h, Ring, g, bytes)
		_, hier := tp.AllReduce(h, Hier, g, bytes)
		if hier != ring {
			t.Fatalf("P=%d: 1-node hier %+v != ring %+v", p, hier, ring)
		}
	}

	// Degenerate hierarchical shapes collapse to the ring exactly: one
	// device per node makes stage 2 the whole collective.
	perOne := mustSpec(t, "16x1:nvlink,ib")
	tp := perOne.MustTopology(16)
	g := group(16)
	_, ring := tp.AllReduce(h, Ring, g, bytes)
	_, hier := tp.AllReduce(h, Hier, g, bytes)
	if hier.Time != ring.Time || hier.Bytes() != ring.Bytes() {
		t.Fatalf("g=1 hier %+v must equal ring %+v", hier, ring)
	}
}

func mustSpec(t *testing.T, s string) Spec {
	t.Helper()
	sp, err := ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestHierTierPlacement checks that hierarchical scheduling actually
// moves the bulk of traffic onto the fast intra-node tier: for the
// 8x4 spec at P=32, the ring pushes every byte across the worst
// (inter-node) tier while hier's inter-node share is exactly the
// stage-2 plane traffic.
func TestHierTierPlacement(t *testing.T) {
	h := hw.A6000()
	tp := must(t, "8x4:nvlink,ib", 32)
	g := group(32)
	B := int64(1 << 20)
	_, ring := tp.AllReduce(h, Ring, g, B)
	if ring.Tier[TierIntra] == 0 || ring.Tier[TierInter] == 0 {
		t.Fatalf("ring over 8 nodes of 4 must cross both tiers: %v", ring.Tier)
	}
	_, hier := tp.AllReduce(h, Hier, g, B)
	// Stage 2 moves 2*B*(m-1) bytes over tier 1 (m=8 planes of chunk
	// sums B); stages 1+3 keep 2*m*Bnode*(g-1) on tier 0.
	wantInter := 2 * B * int64(8-1)
	if hier.Tier[TierInter] != wantInter {
		t.Fatalf("hier inter-tier bytes %d, want %d", hier.Tier[TierInter], wantInter)
	}
	if hier.Tier[TierIntra] != hier.Bytes()-wantInter {
		t.Fatalf("hier tier split inconsistent: %v", hier.Tier)
	}
	if hier.Tier[TierInter] >= ring.Tier[TierInter] {
		t.Fatalf("hier must reduce inter-node traffic: %d vs ring %d",
			hier.Tier[TierInter], ring.Tier[TierInter])
	}
}

// TestRHD covers the halving/doubling family: power-of-two groups get
// log-round schedules whose totals match the ring, non-power-of-two
// groups fall back to Ring, and the latency advantage is visible at
// small payloads.
func TestRHD(t *testing.T) {
	h := hw.A6000()
	tp := Flat(8, h)
	g := group(8)

	alg, _ := tp.AllReduce(h, RHD, group(6)[:5], 4096)
	if alg != Ring {
		t.Fatalf("RHD on p=5 resolved to %v, want ring fallback", alg)
	}

	// Tiny payload: RHD's log2(p) rounds beat the ring's 2(p-1) alpha
	// terms.
	_, rhd := tp.AllReduce(h, RHD, g, 64)
	_, ring := tp.AllReduce(h, Ring, g, 64)
	if rhd.Time >= ring.Time {
		t.Fatalf("small-payload RHD %v must beat ring %v", rhd.Time, ring.Time)
	}

	// Uneven allgather chunks and reduce-scatter counts conserve bytes.
	chunks := []int64{4, 8, 400, 0, 44, 120, 4, 20}
	var total int64
	for _, c := range chunks {
		total += c
	}
	_, ag := tp.AllGather(h, RHD, g, chunks)
	if ag.Bytes() != total*7 {
		t.Fatalf("rhd allgather bytes %d, want %d", ag.Bytes(), total*7)
	}
	_, rs := tp.ReduceScatter(h, RHD, g, chunks)
	if rs.Bytes() != total*7 {
		t.Fatalf("rhd reducescatter bytes %d, want %d", rs.Bytes(), total*7)
	}
}

// TestZeroWork pins the uniform zero-work rule across the algorithm
// library: no bytes and p>1 costs exactly one kernel launch; p<=1
// costs zero.
func TestZeroWork(t *testing.T) {
	h := hw.A6000()
	tp := must(t, "8x4:nvlink,ib", 32)
	g := group(8)
	zero := func(i, j int) int64 { return 0 }
	for _, alg := range []Algorithm{Ring, RHD, Hier} {
		if _, c := tp.AllReduce(h, alg, g, 0); c.Time != h.KernelLaunch && alg != Hier {
			t.Errorf("%v: zero-byte allreduce time %v, want launch %v", alg, c.Time, h.KernelLaunch)
		}
		if _, c := tp.AllToAll(h, alg, g, zero); alg != Hier && c.Time != h.KernelLaunch {
			t.Errorf("%v: zero alltoall time %v, want launch %v", alg, c.Time, h.KernelLaunch)
		}
	}
	// Hierarchical zero-work honestly charges one launch per stage (its
	// three rendezvous still happen); Auto therefore picks a cheaper
	// algorithm for zero-work groups.
	if _, c := tp.AllReduce(h, Hier, g, 0); c.Time != 3*h.KernelLaunch {
		t.Errorf("hier zero-byte allreduce = %v, want 3 launches", c.Time)
	}
	if _, c := tp.AllReduce(h, Auto, g, 0); c.Time > h.KernelLaunch {
		t.Errorf("auto zero-byte allreduce = %v, want <= one launch", c.Time)
	}
	for _, alg := range []Algorithm{Ring, RHD, Hier} {
		if _, c := tp.AllReduce(h, alg, group(1), 1<<20); c.Time != 0 || c.Bytes() != 0 {
			t.Errorf("%v: p=1 allreduce must be free", alg)
		}
	}
}

// TestDegradedMatchesHW: degrading a topology must track hw.Degraded's
// float operations exactly, so fault-injected runs stay bit-identical
// between the flat fabric path and the topology path.
func TestDegradedMatchesHW(t *testing.T) {
	h := hw.A6000()
	hd := h.Degraded(3, 2.5)
	td := Flat(8, h).Degraded(3, 2.5)
	if td.Links[TierIntra].Alpha != hd.LinkLatency || td.Links[TierIntra].Beta != hd.LinkBandwidth {
		t.Fatalf("degraded flat link %+v != degraded hw (%v, %v)",
			td.Links[TierIntra], hd.LinkLatency, hd.LinkBandwidth)
	}
	// Multipliers below 1 clamp to 1 on both paths.
	if got := Flat(8, h).Degraded(0.5, 0.25); got.Links[0] != Flat(8, h).Links[0] {
		t.Fatal("sub-1 multipliers must clamp to identity")
	}
	g := group(8)
	_, a := td.AllReduce(hd, Ring, g, 1<<16)
	if a.Time != hd.CollectiveTime(hw.OpAllReduce, 8, 1<<16) {
		t.Fatal("degraded flat topology must price like the degraded hw model")
	}
}

func TestBarrier(t *testing.T) {
	h := hw.A6000()
	tp := must(t, "8x4:nvlink,ib", 32)
	if tp.Barrier(h, group(1)) != 0 {
		t.Fatal("1-member barrier must be free")
	}
	if got := tp.Barrier(h, []int{0, 1, 2, 3}); got != tp.Links[TierIntra].Alpha {
		t.Fatalf("intra-node barrier = %v, want %v", got, tp.Links[TierIntra].Alpha)
	}
	if got := tp.Barrier(h, group(32)); got != tp.Links[TierInter].Alpha {
		t.Fatalf("world barrier = %v, want %v", got, tp.Links[TierInter].Alpha)
	}
	flat := Flat(4, h)
	if got := flat.Barrier(h, group(4)); got != h.LinkLatency {
		t.Fatalf("flat barrier = %v, want hw latency %v", got, h.LinkLatency)
	}
}

// TestStageTimeComposition recomputes the hierarchical all-reduce and
// all-gather from their three stages, each priced by the public ring
// (and broadcast) entry points on its subgroups: Hier's time must be the
// sum of the worst concurrent stage times, and its per-tier bytes the
// sum of every stage's census, which for these two kinds also equals
// the flat ring's total. The shapes include ragged ones: an all-reduce
// that does not split evenly over a node, and unequal all-gather chunks.
func TestStageTimeComposition(t *testing.T) {
	h := hw.A6000()
	ragged := func(p int) []int64 {
		ch := make([]int64, p)
		for i := range ch {
			ch[i] = int64(4 * (10 + i))
		}
		return ch
	}
	for _, c := range []struct {
		spec   string
		p      int
		bytes  int64   // all-reduce buffer
		chunks []int64 // all-gather contributions
	}{
		{"8x4:nvlink,ib", 32, 4 * 4096, ragged(32)},
		{"4x2:nvlink,ib", 8, 4 * 257, ragged(8)},
	} {
		tp := must(t, c.spec, c.p)
		g := group(c.p)
		nodes, ok := tp.nodeGroups(g)
		if !ok {
			t.Fatalf("%s: %d ranks must be node-uniform", c.spec, c.p)
		}
		per := len(nodes[0])
		var want Cost
		stage := func(costs ...Cost) {
			st := 0.0
			for _, s := range costs {
				want.addTier(s.Tier)
				st = math.Max(st, s.Time)
			}
			want.Time += st
		}
		check := func(kind string, got, ring Cost) {
			t.Helper()
			if got.Time != want.Time {
				t.Errorf("%s hier %s time %v != stage sum %v", c.spec, kind, got.Time, want.Time)
			}
			if got.Tier != want.Tier {
				t.Errorf("%s hier %s tier bytes %v != stage sum %v", c.spec, kind, got.Tier, want.Tier)
			}
			if got.Bytes() != ring.Bytes() {
				t.Errorf("%s hier %s moves %d bytes, flat ring %d", c.spec, kind, got.Bytes(), ring.Bytes())
			}
		}

		// All-reduce: intra-node reduce-scatter into even chunks, each
		// position's plane all-reduces its chunk across nodes, intra-node
		// all-gather.
		ch := evenChunks(c.bytes, per)
		var s1, s2, s3 []Cost
		for _, nd := range nodes {
			_, rs := tp.ReduceScatter(h, Ring, nd, ch)
			_, ag := tp.AllGather(h, Ring, nd, ch)
			s1, s3 = append(s1, rs), append(s3, ag)
		}
		for i := 0; i < per; i++ {
			plane := make([]int, len(nodes))
			for j, nd := range nodes {
				plane[j] = nd[i]
			}
			_, ar := tp.AllReduce(h, Ring, plane, ch[i])
			s2 = append(s2, ar)
		}
		want = Cost{}
		stage(s1...)
		stage(s2...)
		stage(s3...)
		_, hier := tp.AllReduce(h, Hier, g, c.bytes)
		_, ring := tp.AllReduce(h, Ring, g, c.bytes)
		check("all-reduce", hier, ring)

		// All-gather: intra-node all-gather of the node's own chunks, the
		// node leaders all-gather the node totals, then each leader
		// broadcasts the remote nodes' bytes inside its node.
		totals := make([]int64, len(nodes))
		leaders := make([]int, len(nodes))
		var all int64
		s1, s3 = nil, nil
		for j, nd := range nodes {
			own := c.chunks[j*per : (j+1)*per]
			_, ag := tp.AllGather(h, Ring, nd, own)
			s1 = append(s1, ag)
			totals[j], leaders[j] = sum(own), nd[0]
			all += totals[j]
		}
		_, lead := tp.AllGather(h, Ring, leaders, totals)
		for j, nd := range nodes {
			s3 = append(s3, tp.Broadcast(h, nd, 0, all-totals[j]))
		}
		want = Cost{}
		stage(s1...)
		stage(lead)
		stage(s3...)
		_, hier = tp.AllGather(h, Hier, g, c.chunks)
		_, ring = tp.AllGather(h, Ring, g, c.chunks)
		check("all-gather", hier, ring)
	}
}

func TestEvenChunks(t *testing.T) {
	cases := []struct {
		bytes int64
		p     int
		want  []int64
	}{
		{4096, 4, []int64{1024, 1024, 1024, 1024}},
		{4 * 10, 4, []int64{12, 12, 8, 8}},
		{0, 3, []int64{0, 0, 0}},
		{6, 2, []int64{6, 0}}, // stray non-element bytes ride chunk 0
	}
	for _, c := range cases {
		got := evenChunks(c.bytes, c.p)
		var total int64
		for i, g := range got {
			if g != c.want[i] {
				t.Errorf("evenChunks(%d, %d) = %v, want %v", c.bytes, c.p, got, c.want)
				break
			}
			total += g
		}
		if total != c.bytes {
			t.Errorf("evenChunks(%d, %d) loses bytes: %v", c.bytes, c.p, got)
		}
	}
}
