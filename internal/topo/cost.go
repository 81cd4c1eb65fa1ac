package topo

import (
	"math"

	"gnnrdm/internal/hw"
)

// Algorithm selects how a collective is scheduled over the topology.
type Algorithm int

const (
	// Auto picks the cheapest applicable algorithm from the cost model
	// (the per-collective autotuner). Groups whose members share a node
	// — including every group on a flat topology — always resolve to
	// Ring, so single-node machines reproduce the pre-topology fabric
	// exactly.
	Auto Algorithm = iota
	// Ring is the flat ring family (the NCCL-regime formulas of
	// hw.CollectiveTime): pipelined ring for allgather/allreduce/
	// reduce-scatter, a latency-optimal tree broadcast, and direct
	// pairwise exchange for all-to-all.
	Ring
	// RHD is recursive halving/doubling (classic MPI log-round
	// algorithms; Bruck for all-to-all). Halving/doubling applies to
	// power-of-two groups; other groups fall back to Ring.
	RHD
	// Hier is the two-level hierarchical schedule: intra-node
	// reduce/gather, inter-node exchange between peer positions, then
	// intra-node broadcast/scatter. It applies to node-uniform
	// multi-node groups (every node contributing the same member
	// count); other groups fall back to Ring.
	Hier
)

func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case Ring:
		return "ring"
	case RHD:
		return "rhd"
	case Hier:
		return "hier"
	}
	return "unknown"
}

// Cost prices one collective: the modelled makespan (time until the
// last participant finishes) and the exact bytes crossing each link
// tier. Tier[0]+Tier[1] is what the fabric's volume meter records.
type Cost struct {
	Time float64
	Tier [NumTiers]int64
}

// Bytes returns the total metered volume across tiers.
func (c Cost) Bytes() int64 { return c.Tier[TierIntra] + c.Tier[TierInter] }

func (c *Cost) addTier(t [NumTiers]int64) {
	c.Tier[TierIntra] += t[TierIntra]
	c.Tier[TierInter] += t[TierInter]
}

// ---------------------------------------------------------------------
// Ring algorithms. Times come from hw.CollectiveTime on the worst
// participating tier's link (a ring is as slow as its slowest link),
// which on a flat topology reproduces the pre-topology fabric clocks
// bit-for-bit. Per-tier bytes come from an exact integer census of the
// ring's links, whose total equals the classic formulas: B·(p-1) for
// allgather/reduce-scatter/broadcast, 2B·(p-1) for allreduce, and the
// sum of cross pairs for all-to-all.

func (t *Topology) ringTime(h *hw.Model, kind hw.CollectiveKind, group []int, bytes int64) float64 {
	return t.model(h, t.worstTier(group)).CollectiveTime(kind, len(group), bytes)
}

// ringAllGather prices a ring allgather of per-position chunks (bytes).
// Ring link ℓ (position ℓ → ℓ+1) carries every chunk except position
// ℓ+1's own: B − chunks[ℓ+1].
func (t *Topology) ringAllGather(h *hw.Model, group []int, chunks []int64) Cost {
	p := len(group)
	total := sum(chunks)
	c := Cost{Time: t.ringTime(h, hw.OpAllGather, group, total)}
	if p <= 1 {
		return c
	}
	for l := 0; l < p; l++ {
		next := (l + 1) % p
		c.Tier[t.Tier(group[l], group[next])] += total - chunks[next]
	}
	return c
}

// ringReduceScatter prices a ring reduce-scatter of a total-byte buffer
// into per-position counts (bytes). Link ℓ carries B − counts[ℓ].
func (t *Topology) ringReduceScatter(h *hw.Model, group []int, counts []int64) Cost {
	p := len(group)
	total := sum(counts)
	c := Cost{Time: t.ringTime(h, hw.OpReduceScatter, group, total)}
	if p <= 1 {
		return c
	}
	for l := 0; l < p; l++ {
		c.Tier[t.Tier(group[l], group[(l+1)%p])] += total - counts[l]
	}
	return c
}

// ringAllReduce prices a ring allreduce (reduce-scatter over even
// chunks, then allgather): link ℓ carries (B − cℓ) + (B − cℓ₊₁).
func (t *Topology) ringAllReduce(h *hw.Model, group []int, bytes int64) Cost {
	p := len(group)
	c := Cost{Time: t.ringTime(h, hw.OpAllReduce, group, bytes)}
	if p <= 1 {
		return c
	}
	ch := evenChunks(bytes, p)
	for l := 0; l < p; l++ {
		next := (l + 1) % p
		c.Tier[t.Tier(group[l], group[next])] += (bytes - ch[l]) + (bytes - ch[next])
	}
	return c
}

// ringBroadcast prices a broadcast from the root position: the p−1
// links of the pipeline path from the root each carry the full buffer.
func (t *Topology) ringBroadcast(h *hw.Model, group []int, rootIdx int, bytes int64) Cost {
	p := len(group)
	c := Cost{Time: t.ringTime(h, hw.OpBroadcast, group, bytes)}
	if p <= 1 {
		return c
	}
	for k := 0; k < p-1; k++ {
		a := group[(rootIdx+k)%p]
		b := group[(rootIdx+k+1)%p]
		c.Tier[t.Tier(a, b)] += bytes
	}
	return c
}

// Pair is one entry of an all-to-all's byte census: group position Src
// sends position Dst Bytes bytes. Lists hold only the non-empty cross
// pairs (Src != Dst, Bytes > 0), so a regrid whose tiles mostly miss
// each other is priced in time proportional to the pairs that meet.
type Pair struct {
	Src, Dst int32
	Bytes    int64
}

// PairList collects the non-empty cross pairs of a dense per-pair byte
// function over p group positions.
func PairList(p int, pair func(i, j int) int64) []Pair {
	var pairs []Pair
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if b := pair(i, j); j != i && b > 0 {
				pairs = append(pairs, Pair{int32(i), int32(j), b})
			}
		}
	}
	return pairs
}

// ringAllToAll prices direct pairwise exchange of the listed pairs.
func (t *Topology) ringAllToAll(h *hw.Model, group []int, pairs []Pair) Cost {
	var c Cost
	inj := make([]int64, len(group))
	for _, pr := range pairs {
		c.Tier[t.Tier(group[pr.Src], group[pr.Dst])] += pr.Bytes
		inj[pr.Src] += pr.Bytes
	}
	c.Time = t.ringTime(h, hw.OpAllToAll, group, maxOf(inj))
	return c
}

// ---------------------------------------------------------------------
// Recursive halving/doubling. Classic hypercube schedules for
// power-of-two groups: halving exchanges at distances p/2 … 1 with
// message sizes shrinking by half each round; doubling reverses. Total
// bytes equal the ring algorithms' exactly — only the latency profile
// (log₂p rounds instead of p−1) and the per-tier placement differ.

func isPow2(p int) bool { return p > 0 && p&(p-1) == 0 }

// rhdHalving prices the reduce-scatter direction over final ownership
// segments seg (bytes per group position): at distance d each pair
// splits its current contiguous segment range at the midpoint, every
// device sending the half it gives up. Requires pow-2 len(group).
func (t *Topology) rhdHalving(h *hw.Model, group []int, seg []int64) Cost {
	p := len(group)
	pre := prefix(seg)
	lo := make([]int, p)
	hi := make([]int, p)
	for i := range hi {
		hi[i] = p
	}
	var c Cost
	for d := p / 2; d >= 1; d /= 2 {
		var maxSend int64
		var tb [NumTiers]int64
		wt := TierIntra
		for i := 0; i < p; i++ {
			j := i ^ d
			if j < i {
				continue
			}
			mid := (lo[i] + hi[i]) / 2
			sendI := pre[hi[i]] - pre[mid]
			sendJ := pre[mid] - pre[lo[j]]
			tier := t.Tier(group[i], group[j])
			tb[tier] += sendI + sendJ
			if tier > wt {
				wt = tier
			}
			if sendI > maxSend {
				maxSend = sendI
			}
			if sendJ > maxSend {
				maxSend = sendJ
			}
			hi[i] = mid
			lo[j] = mid
		}
		link := t.model(h, wt)
		c.Time += link.LinkLatency + float64(maxSend)/link.LinkBandwidth
		c.addTier(tb)
	}
	return c
}

// rhdDoubling prices the allgather direction over contributed segments
// seg: at distance d each pair exchanges everything accumulated so far.
func (t *Topology) rhdDoubling(h *hw.Model, group []int, seg []int64) Cost {
	p := len(group)
	acc := append([]int64(nil), seg...)
	var c Cost
	for d := 1; d < p; d *= 2 {
		var maxSend int64
		var tb [NumTiers]int64
		wt := TierIntra
		for i := 0; i < p; i++ {
			j := i ^ d
			if j < i {
				continue
			}
			tier := t.Tier(group[i], group[j])
			tb[tier] += acc[i] + acc[j]
			if tier > wt {
				wt = tier
			}
			if acc[i] > maxSend {
				maxSend = acc[i]
			}
			if acc[j] > maxSend {
				maxSend = acc[j]
			}
			s := acc[i] + acc[j]
			acc[i], acc[j] = s, s
		}
		link := t.model(h, wt)
		c.Time += link.LinkLatency + float64(maxSend)/link.LinkBandwidth
		c.addTier(tb)
	}
	return c
}

func (t *Topology) rhdAllReduce(h *hw.Model, group []int, bytes int64) Cost {
	if bytes <= 0 {
		return Cost{Time: h.KernelLaunch}
	}
	ch := evenChunks(bytes, len(group))
	c := t.rhdHalving(h, group, ch)
	d := t.rhdDoubling(h, group, ch)
	c.Time += d.Time
	c.addTier(d.Tier)
	return c
}

func (t *Topology) rhdAllGather(h *hw.Model, group []int, chunks []int64) Cost {
	if sum(chunks) <= 0 {
		return Cost{Time: h.KernelLaunch}
	}
	return t.rhdDoubling(h, group, chunks)
}

func (t *Topology) rhdReduceScatter(h *hw.Model, group []int, counts []int64) Cost {
	if sum(counts) <= 0 {
		return Cost{Time: h.KernelLaunch}
	}
	return t.rhdHalving(h, group, counts)
}

// bruckAllToAll prices the Bruck log-round all-to-all (any group
// size): the block for offset o = (dst−src) mod p hops at every set
// bit of o, so total volume exceeds direct exchange by the popcount —
// the classic latency-for-bandwidth trade. Round d moves each block
// with bit d set one hop v → v+d mod p, so a round is a pass over the
// pairs that sums each hop's bytes into inj[v], then a pass over the
// p senders that reads each hop's tier once. Pairs carry Bytes > 0,
// so the senders with inj[v] > 0 are exactly the hops a block crosses.
func (t *Topology) bruckAllToAll(h *hw.Model, group []int, pairs []Pair) Cost {
	p := len(group)
	var c Cost
	any := false
	inj := make([]int64, p)
	for d := 1; d < p; d *= 2 {
		clear(inj)
		for _, pr := range pairs {
			// o = (dst−src) mod p and the hop's sender v = src + (o mod d)
			// mod p, by conditional subtraction: every operand is below 2p.
			s := int(pr.Src)
			o := int(pr.Dst) - s
			if o < 0 {
				o += p
			}
			if o&d == 0 {
				continue
			}
			v := s + o&(d-1)
			if v >= p {
				v -= p
			}
			inj[v] += pr.Bytes
		}
		var tb [NumTiers]int64
		var maxSend int64
		wt := TierIntra
		for v, b := range inj {
			if b == 0 {
				continue
			}
			w := v + d
			if w >= p {
				w -= p
			}
			tier := t.Tier(group[v], group[w])
			tb[tier] += b
			wt = max(wt, tier)
			maxSend = max(maxSend, b)
		}
		link := t.model(h, wt)
		c.Time += link.LinkLatency + float64(maxSend)/link.LinkBandwidth
		c.addTier(tb)
		any = any || tb[TierIntra]+tb[TierInter] > 0
	}
	if !any {
		return Cost{Time: h.KernelLaunch}
	}
	return c
}

// ---------------------------------------------------------------------
// Two-level hierarchical algorithms: stage 1 inside each node (tier-0
// links), stage 2 between peer positions across nodes (tier-1 links),
// stage 3 inside each node again. Stage times take the max over the
// concurrent subgroups, the makespan of running the stages in order
// from a synchronized entry; stage byte censuses are the ring censuses
// of the subgroups (TestStageTimeComposition recomputes both). For
// allreduce and allgather the total bytes equal the flat ring's
// exactly; hierarchical reduce-scatter and all-to-all trade extra
// intra-node bytes for fewer inter-node ones.

func (t *Topology) hierAllReduce(h *hw.Model, group []int, bytes int64) Cost {
	nodes, ok := t.nodeGroups(group)
	if !ok {
		return t.ringAllReduce(h, group, bytes)
	}
	g := len(nodes[0])
	ch := evenChunks(bytes, g)
	var c Cost
	// Stage 1: intra-node reduce-scatter into even chunks.
	st := 0.0
	for _, nd := range nodes {
		s := t.ringReduceScatter(h, nd, ch)
		c.addTier(s.Tier)
		st = math.Max(st, s.Time)
	}
	c.Time += st
	// Stage 2: each position's plane (one member per node) allreduces
	// its chunk across nodes.
	st = 0.0
	plane := make([]int, len(nodes))
	for i := 0; i < g; i++ {
		for j, nd := range nodes {
			plane[j] = nd[i]
		}
		s := t.ringAllReduce(h, plane, ch[i])
		c.addTier(s.Tier)
		st = math.Max(st, s.Time)
	}
	c.Time += st
	// Stage 3: intra-node allgather of the reduced chunks.
	st = 0.0
	for _, nd := range nodes {
		s := t.ringAllGather(h, nd, ch)
		c.addTier(s.Tier)
		st = math.Max(st, s.Time)
	}
	c.Time += st
	return c
}

func (t *Topology) hierAllGather(h *hw.Model, group []int, chunks []int64) Cost {
	nodes, ok := t.nodeGroups(group)
	if !ok {
		return t.ringAllGather(h, group, chunks)
	}
	g := len(nodes[0])
	total := sum(chunks)
	totals := make([]int64, len(nodes))
	for j := range nodes {
		totals[j] = sum(chunks[j*g : (j+1)*g])
	}
	var c Cost
	// Stage 1: intra-node allgather of the node's own chunks.
	st := 0.0
	for j, nd := range nodes {
		s := t.ringAllGather(h, nd, chunks[j*g:(j+1)*g])
		c.addTier(s.Tier)
		st = math.Max(st, s.Time)
	}
	c.Time += st
	// Stage 2: node leaders allgather the per-node totals.
	leaders := make([]int, len(nodes))
	for j, nd := range nodes {
		leaders[j] = nd[0]
	}
	s := t.ringAllGather(h, leaders, totals)
	c.addTier(s.Tier)
	c.Time += s.Time
	// Stage 3: each leader broadcasts the remote nodes' bytes locally.
	st = 0.0
	for j, nd := range nodes {
		s := t.ringBroadcast(h, nd, 0, total-totals[j])
		c.addTier(s.Tier)
		st = math.Max(st, s.Time)
	}
	c.Time += st
	return c
}

func (t *Topology) hierReduceScatter(h *hw.Model, group []int, counts []int64) Cost {
	nodes, ok := t.nodeGroups(group)
	if !ok {
		return t.ringReduceScatter(h, group, counts)
	}
	g := len(nodes[0])
	total := sum(counts)
	ch := evenChunks(total, g)
	chOff := prefix(ch)
	segOff := prefix(counts)
	overlap := func(aLo, aHi, bLo, bHi int64) int64 {
		lo, hi := maxI64(aLo, bLo), minI64(aHi, bHi)
		if hi > lo {
			return hi - lo
		}
		return 0
	}
	var c Cost
	// Stage 1: intra-node reduce-scatter into even chunks.
	st := 0.0
	for _, nd := range nodes {
		s := t.ringReduceScatter(h, nd, ch)
		c.addTier(s.Tier)
		st = math.Max(st, s.Time)
	}
	c.Time += st
	// Stage 2: plane i reduce-scatters chunk i across nodes, split at
	// the node-segment boundaries of the final counts.
	st = 0.0
	plane := make([]int, len(nodes))
	cnts := make([]int64, len(nodes))
	for i := 0; i < g; i++ {
		for j, nd := range nodes {
			plane[j] = nd[i]
			cnts[j] = overlap(chOff[i], chOff[i+1], segOff[j*g], segOff[(j+1)*g])
		}
		s := t.ringReduceScatter(h, plane, cnts)
		c.addTier(s.Tier)
		st = math.Max(st, s.Time)
	}
	c.Time += st
	// Stage 3: an intra-node all-to-all moves each chunk∩segment piece
	// to its final owner.
	st = 0.0
	for j, nd := range nodes {
		base := j * g
		s := t.ringAllToAll(h, nd, PairList(g, func(a, b int) int64 {
			return overlap(chOff[a], chOff[a+1], segOff[base+b], segOff[base+b+1])
		}))
		c.addTier(s.Tier)
		st = math.Max(st, s.Time)
	}
	c.Time += st
	return c
}

// hierAllToAll prices the leader-staged exchange: members trade their
// node-local pairs directly while non-leaders forward their cross-node
// bytes to the node leader (position 0), leaders exchange the
// aggregated node-to-node traffic, then scatter what arrived. Every
// stage is a ring all-to-all whose links sit on one tier, so one pass
// over the pair list yields each position's stage injections.
func (t *Topology) hierAllToAll(h *hw.Model, group []int, pairs []Pair) Cost {
	nodes, ok := t.nodeGroups(group)
	if !ok {
		return t.ringAllToAll(h, group, pairs)
	}
	g := int32(len(nodes[0]))
	local := make([]int64, len(group))
	crossOut := make([]int64, len(group))
	crossIn := make([]int64, len(group))
	for _, pr := range pairs {
		if pr.Src/g == pr.Dst/g {
			local[pr.Src] += pr.Bytes
		} else {
			crossOut[pr.Src] += pr.Bytes
			crossIn[pr.Dst] += pr.Bytes
		}
	}
	intra, inter := t.model(h, TierIntra), t.model(h, TierInter)
	var c Cost
	var st1, st3 float64
	var maxOut int64
	for j := range nodes {
		var inj1, out, in int64
		for a := j * int(g); a < (j+1)*int(g); a++ {
			s := local[a]
			if a != j*int(g) {
				s += crossOut[a]
				in += crossIn[a]
			}
			c.Tier[TierIntra] += s
			inj1 = max(inj1, s)
			out += crossOut[a]
		}
		c.Tier[TierIntra] += in
		c.Tier[TierInter] += out
		maxOut = max(maxOut, out)
		st1 = math.Max(st1, intra.CollectiveTime(hw.OpAllToAll, int(g), inj1))
		st3 = math.Max(st3, intra.CollectiveTime(hw.OpAllToAll, int(g), in))
	}
	c.Time = st1 + inter.CollectiveTime(hw.OpAllToAll, len(nodes), maxOut)
	c.Time += st3
	return c
}

// ---------------------------------------------------------------------
// Entry points, each one call to pick. Auto resolves groups confined to
// one node to Ring, which pins the flat topology to the pre-topology
// fabric's exact behaviour.

// pick resolves alg over one collective's three schedules priced on
// payload x, falling back to Ring when the requested one does not
// apply: RHD applies when rhdOK, Hier when the group is node-uniform
// across nodes. Auto tries Ring, RHD, Hier in that order
// and keeps a later schedule only if strictly faster, so ties go to
// Ring, then RHD. The schedules are method expressions: no closure is
// allocated per call.
func pick[X any](t *Topology, h *hw.Model, alg Algorithm, group []int, x X, rhdOK bool,
	ring, rhd, hier func(*Topology, *hw.Model, []int, X) Cost) (Algorithm, Cost) {
	switch alg {
	case Ring:
		return Ring, ring(t, h, group, x)
	case RHD:
		if rhdOK {
			return RHD, rhd(t, h, group, x)
		}
		return Ring, ring(t, h, group, x)
	case Hier:
		if _, ok := t.nodeGroups(group); ok {
			return Hier, hier(t, h, group, x)
		}
		return Ring, ring(t, h, group, x)
	}
	best := ring(t, h, group, x)
	bestAlg := Ring
	if t.worstTier(group) == TierIntra {
		return bestAlg, best
	}
	if rhdOK {
		if c := rhd(t, h, group, x); c.Time < best.Time {
			best, bestAlg = c, RHD
		}
	}
	if _, ok := t.nodeGroups(group); ok {
		if c := hier(t, h, group, x); c.Time < best.Time {
			best, bestAlg = c, Hier
		}
	}
	return bestAlg, best
}

// AllReduce prices an allreduce of a bytes-sized buffer.
func (t *Topology) AllReduce(h *hw.Model, alg Algorithm, group []int, bytes int64) (Algorithm, Cost) {
	p := len(group)
	return pick(t, h, alg, group, bytes, isPow2(p) && p > 1,
		(*Topology).ringAllReduce, (*Topology).rhdAllReduce, (*Topology).hierAllReduce)
}

// AllGather prices an allgather of per-position chunks (bytes).
func (t *Topology) AllGather(h *hw.Model, alg Algorithm, group []int, chunks []int64) (Algorithm, Cost) {
	p := len(group)
	return pick(t, h, alg, group, chunks, isPow2(p) && p > 1,
		(*Topology).ringAllGather, (*Topology).rhdAllGather, (*Topology).hierAllGather)
}

// ReduceScatter prices a reduce-scatter into per-position counts
// (bytes).
func (t *Topology) ReduceScatter(h *hw.Model, alg Algorithm, group []int, counts []int64) (Algorithm, Cost) {
	p := len(group)
	return pick(t, h, alg, group, counts, isPow2(p) && p > 1,
		(*Topology).ringReduceScatter, (*Topology).rhdReduceScatter, (*Topology).hierReduceScatter)
}

// AllToAll prices a personalized exchange given as a dense per-pair
// byte function: pair(i, j) is the bytes position i sends position j.
// It is AllToAllPairs over the function's non-empty cross pairs, for
// callers that hold buffers rather than a census.
func (t *Topology) AllToAll(h *hw.Model, alg Algorithm, group []int, pair func(i, j int) int64) (Algorithm, Cost) {
	return t.AllToAllPairs(h, alg, group, PairList(len(group), pair))
}

// AllToAllPairs prices a personalized exchange from its pair list in
// O((len(group) + len(pairs))·log len(group)). Bruck (the RHD schedule)
// applies to every group of two or more.
func (t *Topology) AllToAllPairs(h *hw.Model, alg Algorithm, group []int, pairs []Pair) (Algorithm, Cost) {
	return pick(t, h, alg, group, pairs, len(group) > 1,
		(*Topology).ringAllToAll, (*Topology).bruckAllToAll, (*Topology).hierAllToAll)
}

// Broadcast prices a broadcast from the given root position (ring/tree
// only; the hierarchical family does not apply).
func (t *Topology) Broadcast(h *hw.Model, group []int, rootIdx int, bytes int64) Cost {
	return t.ringBroadcast(h, group, rootIdx, bytes)
}

// ---------------------------------------------------------------------

// EvenChunks is the exported form of evenChunks, for callers that price
// an all-gather of a buffer split the way the cost model assumes.
func EvenChunks(bytes int64, p int) []int64 { return evenChunks(bytes, p) }

// evenChunks splits a byte count into p chunks the way the fabric
// splits float32 buffers: even element (4-byte) chunks with the
// remainder elements on the first chunks; stray non-element bytes land
// on chunk 0.
func evenChunks(bytes int64, p int) []int64 {
	n := bytes / 4
	out := make([]int64, p)
	q, r := n/int64(p), n%int64(p)
	for i := range out {
		c := q
		if int64(i) < r {
			c++
		}
		out[i] = c * 4
	}
	out[0] += bytes - n*4
	return out
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func prefix(xs []int64) []int64 {
	out := make([]int64, len(xs)+1)
	for i, x := range xs {
		out[i+1] = out[i] + x
	}
	return out
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
