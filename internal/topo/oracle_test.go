package topo

import (
	"fmt"
	"math"
	"testing"

	"gnnrdm/internal/hw"
)

// The dense-closure all-to-all costers, retained verbatim from before
// the pair-list rewrite as the differential oracle
// (TestAllToAllPairListMatchesClosure): they call pair(i, j) for every
// ordered pair — O(p²) for ring and hier, O(p² log p) for Bruck.

// ringAllToAllDense prices direct pairwise exchange: pair(i, j) gives the
// bytes position i sends position j (i ≠ j; self pairs are ignored).
func (t *Topology) ringAllToAllDense(h *hw.Model, group []int, pair func(i, j int) int64) Cost {
	p := len(group)
	var c Cost
	var maxInj int64
	for i := 0; i < p; i++ {
		var inj int64
		for j := 0; j < p; j++ {
			if j == i {
				continue
			}
			b := pair(i, j)
			if b <= 0 {
				continue
			}
			c.Tier[t.Tier(group[i], group[j])] += b
			inj += b
		}
		if inj > maxInj {
			maxInj = inj
		}
	}
	c.Time = t.ringTime(h, hw.OpAllToAll, group, maxInj)
	return c
}

// bruckAllToAllDense prices the Bruck log-round all-to-all (any group
// size): the block for offset o = (dst−src) mod p hops at every set
// bit of o, so total volume exceeds direct exchange by the popcount —
// the classic latency-for-bandwidth trade.
func (t *Topology) bruckAllToAllDense(h *hw.Model, group []int, pair func(i, j int) int64) Cost {
	p := len(group)
	var c Cost
	any := false
	for d := 1; d < p; d *= 2 {
		inj := make([]int64, p)
		var tb [NumTiers]int64
		wt := TierIntra
		for s := 0; s < p; s++ {
			for dst := 0; dst < p; dst++ {
				if dst == s {
					continue
				}
				o := (dst - s + p) % p
				if o&d == 0 {
					continue
				}
				b := pair(s, dst)
				if b <= 0 {
					continue
				}
				v := (s + o&(d-1)) % p
				w := (v + d) % p
				tier := t.Tier(group[v], group[w])
				tb[tier] += b
				if tier > wt {
					wt = tier
				}
				inj[v] += b
			}
		}
		link := t.model(h, wt)
		c.Time += link.LinkLatency + float64(maxOf(inj))/link.LinkBandwidth
		c.addTier(tb)
		any = any || tb[TierIntra]+tb[TierInter] > 0
	}
	if !any {
		return Cost{Time: h.KernelLaunch}
	}
	return c
}

func (t *Topology) hierAllToAllDense(h *hw.Model, group []int, pair func(i, j int) int64) Cost {
	nodes, ok := t.nodeGroups(group)
	if !ok {
		return t.ringAllToAllDense(h, group, pair)
	}
	g := len(nodes[0])
	m := len(nodes)
	pos := func(j, a int) int { return j*g + a }
	crossOut := make([][]int64, m)
	crossIn := make([][]int64, m)
	nodePair := make([][]int64, m)
	for j := 0; j < m; j++ {
		crossOut[j] = make([]int64, g)
		crossIn[j] = make([]int64, g)
		nodePair[j] = make([]int64, m)
		for a := 0; a < g; a++ {
			for q := 0; q < m*g; q++ {
				if q/g == j {
					continue
				}
				crossOut[j][a] += pair(pos(j, a), q)
				crossIn[j][a] += pair(q, pos(j, a))
			}
		}
		for jj := 0; jj < m; jj++ {
			if jj == j {
				continue
			}
			for a := 0; a < g; a++ {
				for b := 0; b < g; b++ {
					nodePair[j][jj] += pair(pos(j, a), pos(jj, b))
				}
			}
		}
	}
	var c Cost
	// Stage 1: intra-node exchange; non-leader members also forward
	// their cross-node bytes to the leader (position 0).
	st := 0.0
	for j, nd := range nodes {
		jj := j
		s := t.ringAllToAllDense(h, nd, func(a, b int) int64 {
			v := pair(pos(jj, a), pos(jj, b))
			if b == 0 && a != 0 {
				v += crossOut[jj][a]
			}
			return v
		})
		c.addTier(s.Tier)
		st = math.Max(st, s.Time)
	}
	c.Time += st
	// Stage 2: leaders exchange the aggregated node-to-node traffic.
	leaders := make([]int, m)
	for j, nd := range nodes {
		leaders[j] = nd[0]
	}
	s := t.ringAllToAllDense(h, leaders, func(a, b int) int64 { return nodePair[a][b] })
	c.addTier(s.Tier)
	c.Time += s.Time
	// Stage 3: leaders scatter the received remote bytes locally.
	st = 0.0
	for j, nd := range nodes {
		jj := j
		s := t.ringAllToAllDense(h, nd, func(a, b int) int64 {
			if a == 0 && b != 0 {
				return crossIn[jj][b]
			}
			return 0
		})
		c.addTier(s.Tier)
		st = math.Max(st, s.Time)
	}
	c.Time += st
	return c
}

// allToAllDense prices a personalized exchange; pair(i, j) gives the bytes
// position i sends position j.
func (t *Topology) allToAllDense(h *hw.Model, alg Algorithm, group []int, pair func(i, j int) int64) (Algorithm, Cost) {
	switch alg {
	case Ring:
		return Ring, t.ringAllToAllDense(h, group, pair)
	case RHD:
		if len(group) > 1 {
			return RHD, t.bruckAllToAllDense(h, group, pair)
		}
		return Ring, t.ringAllToAllDense(h, group, pair)
	case Hier:
		if _, ok := t.nodeGroups(group); ok {
			return Hier, t.hierAllToAllDense(h, group, pair)
		}
		return Ring, t.ringAllToAllDense(h, group, pair)
	}
	best := t.ringAllToAllDense(h, group, pair)
	bestAlg := Ring
	if t.worstTier(group) == TierIntra {
		return bestAlg, best
	}
	if c := t.bruckAllToAllDense(h, group, pair); c.Time < best.Time {
		best, bestAlg = c, RHD
	}
	if _, ok := t.nodeGroups(group); ok {
		if c := t.hierAllToAllDense(h, group, pair); c.Time < best.Time {
			best, bestAlg = c, Hier
		}
	}
	return bestAlg, best
}

// regridTable is the P×P byte table of a grid→grid regrid of a
// rows×cols matrix: rank r holds row part r/pj of p/pj and column part
// r%pj of pj (pj = 1 is the horizontal layout, pj = p the vertical),
// parts balanced with the remainder on the first ones, and sends each
// rank the intersection of their tiles — byte-packed four elements to a
// float32 when packed. Most entries are zero: the shape the pair-list
// costers exist for.
func regridTable(p, fromPJ, toPJ, rows, cols int, packed bool) [][]int64 {
	part := func(n, parts, i int) (lo, hi int) {
		lo = i*(n/parts) + min(i, n%parts)
		hi = lo + n/parts
		if i < n%parts {
			hi++
		}
		return lo, hi
	}
	tab := make([][]int64, p)
	for r := range tab {
		tab[r] = make([]int64, p)
		arlo, arhi := part(rows, p/fromPJ, r/fromPJ)
		aclo, achi := part(cols, fromPJ, r%fromPJ)
		for q := range tab[r] {
			brlo, brhi := part(rows, p/toPJ, q/toPJ)
			bclo, bchi := part(cols, toPJ, q%toPJ)
			rr, cc := min(arhi, brhi)-max(arlo, brlo), min(achi, bchi)-max(aclo, bclo)
			if rr <= 0 || cc <= 0 {
				continue
			}
			n := rr * cc
			if packed {
				n = (n + 3) / 4
			}
			tab[r][q] = 4 * int64(n)
		}
	}
	return tab
}

// TestAllToAllPairListMatchesClosure pins the pair-list costers against
// the retained dense-closure ones: same algorithm chosen, bit-equal
// Cost{Time, Tier}, for regrid censuses between {H, V, the smallest and
// largest proper grids} × P ∈ [1, 64] (primes included) × shapes with
// rows, cols not divisible by P and cols < P × packed × {Ring, RHD,
// Hier, Auto}, on node-uniform, ragged and one-rank-per-node machines,
// over the world and over a strided subgroup. Without -short it also
// prices the planner sweep's own shape (allToAllAtSweepScale).
func TestAllToAllPairListMatchesClosure(t *testing.T) {
	if !testing.Short() {
		allToAllAtSweepScale(t)
	}
	h := hw.A6000()
	shapes := [][2]int{{131, 37}, {67, 5}}
	for p := 1; p <= 64; p++ {
		if testing.Short() && p > 12 && p != 17 && p != 64 {
			continue
		}
		pjs := []int{1, p}
		for pj := 2; pj < p; pj++ {
			if p%pj == 0 {
				pjs = append(pjs, pj, p/pj)
				break
			}
		}
		var tps []*Topology
		for _, perNode := range []int{1, 4, 8, p} {
			tps = append(tps, must(t, fmt.Sprintf("%dx%d:nvlink,ib", (p+perNode-1)/perNode, perNode), p))
		}
		world := group(p)
		var strided []int
		for r := 0; r < p; r += 2 {
			strided = append(strided, r)
		}
		for _, fromPJ := range pjs {
			for _, toPJ := range pjs {
				for _, sh := range shapes {
					for _, packed := range []bool{false, true} {
						tab := regridTable(p, fromPJ, toPJ, sh[0], sh[1], packed)
						for _, tp := range tps {
							for _, g := range [][]int{world, strided} {
								pair := func(i, j int) int64 { return tab[g[i]][g[j]] }
								pairs := PairList(len(g), pair)
								for _, alg := range []Algorithm{Ring, RHD, Hier, Auto} {
									wantAlg, want := tp.allToAllDense(h, alg, g, pair)
									gotAlg, got := tp.AllToAllPairs(h, alg, g, pairs)
									if gotAlg != wantAlg || got != want {
										t.Fatalf("P=%d %s G%d->G%d %dx%d packed=%v group=%d alg=%v: pair list %v %+v, closure %v %+v",
											p, tp.Name, fromPJ, toPJ, sh[0], sh[1], packed, len(g), alg, gotAlg, got, wantAlg, want)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// allToAllAtSweepScale is the oracle on the shape the planner sweep
// prices: the hidden layer's H→V and V→H regrids of a 2^18×128 matrix,
// packed and unpacked, at P=1024 on 128 nodes of 8, over the world,
// under Bruck alone and the Auto resolver. Every sender meets 128 of
// the 1024 receivers (cols < P), so the pair list is an eighth of the
// dense table. The four censuses run as parallel subtests: the dense
// Bruck oracle is O(P² log P) per call.
func allToAllAtSweepScale(t *testing.T) {
	const p, rows, cols = 1024, 1 << 18, 128
	h := hw.A6000()
	tp := must(t, "128x8:nvlink,ib", p)
	world := group(p)
	for _, rg := range []struct {
		name         string
		fromPJ, toPJ int
	}{{"H->V", 1, p}, {"V->H", p, 1}} {
		for _, packed := range []bool{false, true} {
			t.Run(fmt.Sprintf("P=%d_%s_packed=%v", p, rg.name, packed), func(t *testing.T) {
				t.Parallel()
				tab := regridTable(p, rg.fromPJ, rg.toPJ, rows, cols, packed)
				pair := func(i, j int) int64 { return tab[i][j] }
				pairs := PairList(p, pair)
				for _, alg := range []Algorithm{RHD, Auto} {
					wantAlg, want := tp.allToAllDense(h, alg, world, pair)
					gotAlg, got := tp.AllToAllPairs(h, alg, world, pairs)
					if gotAlg != wantAlg || got != want {
						t.Fatalf("%s %dx%d alg=%v: pair list %v %+v, closure %v %+v",
							tp.Name, rows, cols, alg, gotAlg, got, wantAlg, want)
					}
				}
			})
		}
	}
}
