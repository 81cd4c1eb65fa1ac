package plan

import (
	"fmt"

	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// PriceCache memoizes the collective prices of replaying a schedule so
// that repeated runs over the same problem shape — every epoch of a
// multi-epoch run, both executors of PriceDAGEpochs, all sixteen
// Table IV orderings of a sweep, sim.Run replaying the same schedule —
// compute each redistribution's byte census, its all-to-all price, and
// each world all-reduce and group all-gather price exactly once.
//
// A census costs O(P + intersecting tile pairs), not P²:
// dist.OverlapPairs visits only the (sender, receiver) tiles that meet
// (P·min(cols, P) for an H↔V regrid), each visit folds the pair's bytes
// — dist.TileOverlap's integers — into the per-rank sums, and under a
// topology the same visits emit the (src, dst, bytes) list the routed
// costers consume in O(pairs · log P). The list lives only until the
// round is priced; the cache keeps the O(P) census and the price.
//
// A cache binds to one (P, hardware model, topology) context on first
// use and panics if reused under a different one — memoized costs are
// only valid within the context they were computed in. Every price is a
// topo.Cost either way: routed under topo.Auto when a topology is
// bound, else the flat closed form with every byte on tier 0.
type PriceCache struct {
	p     int
	h     *hw.Model
	tp    *topo.Topology
	bound bool
	world []int

	exch   map[exchKey]*ExchangeCensus
	reduce map[int64]topo.Cost
	gather map[gatherKey]topo.Cost

	// Sparse-exchange memoization (sparse.go). Keys carry the live-set
	// identity (N, Live, SparseSeed) — one cache serves sweeps that mix
	// densities.
	liveSets map[liveSetKey][]int32
	sx       map[sparseExchKey]*SparseExchangeCensus
}

// NewPriceCache returns an empty cache. Share one across every pricing
// and simulation call of a sweep that fixes (P, hardware, topology).
func NewPriceCache() *PriceCache {
	return &PriceCache{
		exch:     make(map[exchKey]*ExchangeCensus),
		reduce:   make(map[int64]topo.Cost),
		gather:   make(map[gatherKey]topo.Cost),
		liveSets: make(map[liveSetKey][]int32),
		sx:       make(map[sparseExchKey]*SparseExchangeCensus),
	}
}

// ExchangeCensus is the per-rank byte census of one world all-to-all
// round — a from→to regrid, or one round of a sparse exchange: what
// each rank packs for others (Div) and unpacks from others (Mer), self
// excluded; the busiest injector and ejector; the summed cross-pair
// bytes; and the round's all-to-all price in the cache's context.
// Callers must treat the slices as read-only — they are shared by every
// cache hit.
type ExchangeCensus struct {
	Div, Mer      []int64
	MaxInj, MaxEj int64
	Total         int64
	A2A           topo.Cost
}

type exchKey struct {
	from, to   dist.Layout
	rows, cols int
	packed     bool
}

// gatherKey identifies an all-gather of a rows×cols matrix's tiles
// under layout l by column group j of that layout's grid (-1: the
// world).
type gatherKey struct {
	l             dist.Layout
	j, rows, cols int
}

// Bind fixes the cache's pricing context. The first call binds; later
// calls with an identical context are no-ops, and a different context
// panics (memoized entries would be silently wrong). PriceDAGEpochs
// and sim.Run bind automatically.
func (c *PriceCache) Bind(p int, h *hw.Model, tp *topo.Topology) {
	if !c.bound {
		c.p, c.h, c.tp, c.bound = p, h, tp, true
		c.world = make([]int, p)
		for i := range c.world {
			c.world[i] = i
		}
		return
	}
	if c.p != p || c.h != h || c.tp != tp {
		panic(fmt.Sprintf("plan: PriceCache bound to (P=%d, hw=%p, topo=%p) reused with (P=%d, hw=%p, topo=%p)",
			c.p, c.h, c.tp, p, h, tp))
	}
}

func (c *PriceCache) mustBind() {
	if !c.bound {
		panic("plan: PriceCache used before Bind")
	}
}

// flat is the pre-topology closed form of an n-member collective:
// hw.CollectiveTime over timeBytes, vol bytes metered on tier 0.
func (c *PriceCache) flat(kind hw.CollectiveKind, n int, timeBytes, vol int64) topo.Cost {
	return topo.Cost{Time: c.h.CollectiveTime(kind, n, timeBytes), Tier: [topo.NumTiers]int64{topo.TierIntra: vol}}
}

func (c *PriceCache) newCensus() ExchangeCensus {
	return ExchangeCensus{Div: make([]int64, c.p), Mer: make([]int64, c.p)}
}

// add folds one pair's bytes into a round's census and, when a topology
// will route the round, appends it to the round's pair list. Self pairs
// and empty pairs move nothing.
func (c *PriceCache) add(x *ExchangeCensus, pairs []topo.Pair, src, dst int, b int64) []topo.Pair {
	if src == dst || b <= 0 {
		return pairs
	}
	x.Div[src] += b
	x.Mer[dst] += b
	if c.tp != nil {
		pairs = append(pairs, topo.Pair{Src: int32(src), Dst: int32(dst), Bytes: b})
	}
	return pairs
}

// pairBuf returns an empty pair list sized for a from→to regrid's
// intersecting pairs, nil when no topology will route the round. The
// counting pass is cheap beside the costers' log P passes over the
// list, and spares a multi-million-entry list its growth copies.
func (c *PriceCache) pairBuf(from, to dist.Layout, rows, cols int) []topo.Pair {
	if c.tp == nil {
		return nil
	}
	n := 0
	dist.OverlapPairs(from, to, c.p, rows, cols, func(_, _, _, _, _, _ int) { n++ })
	return make([]topo.Pair, 0, n)
}

// price completes a round's census from its per-rank sums: the maxima,
// the total, and the all-to-all price (routed over pairs under a
// topology).
func (c *PriceCache) price(x *ExchangeCensus, pairs []topo.Pair) {
	for r := range x.Div {
		x.MaxInj = max(x.MaxInj, x.Div[r])
		x.MaxEj = max(x.MaxEj, x.Mer[r])
		x.Total += x.Div[r]
	}
	if c.tp != nil {
		_, x.A2A = c.tp.AllToAllPairs(c.h, topo.Auto, c.world, pairs)
	} else {
		x.A2A = c.flat(hw.OpAllToAll, c.p, x.MaxInj, x.Total)
	}
}

// Exchange returns the memoized census of a from→to regrid of a
// rows×cols matrix. Layouts must be normalized for the bound P (the
// replay engine only holds normalized layouts). With
// packed=true chunks are byte-packed masks (four elements per
// transmitted float32).
func (c *PriceCache) Exchange(from, to dist.Layout, rows, cols int, packed bool) *ExchangeCensus {
	c.mustBind()
	k := exchKey{from, to, rows, cols, packed}
	if x, ok := c.exch[k]; ok {
		return x
	}
	x := c.newCensus()
	pairs := c.pairBuf(from, to, rows, cols)
	dist.OverlapPairs(from, to, c.p, rows, cols, func(src, dst, rlo, rhi, clo, chi int) {
		n := (rhi - rlo) * (chi - clo)
		if packed {
			n = (n + 3) / 4
		}
		pairs = c.add(&x, pairs, src, dst, 4*int64(n))
	})
	c.price(&x, pairs)
	c.exch[k] = &x
	return &x
}

// AllReduceCost returns the memoized price of a world all-reduce of a
// bytes-sized buffer.
func (c *PriceCache) AllReduceCost(bytes int64) topo.Cost {
	c.mustBind()
	cst, ok := c.reduce[bytes]
	if !ok {
		if c.tp != nil {
			_, cst = c.tp.AllReduce(c.h, topo.Auto, c.world, bytes)
		} else {
			cst = c.flat(hw.OpAllReduce, c.p, bytes, 2*bytes*int64(c.p-1))
		}
		c.reduce[bytes] = cst
	}
	return cst
}

// AllGatherCost returns the memoized price of group (column group j of
// l's grid, or the world with j = -1) all-gathering its members' tiles
// of a rows×cols matrix under layout l.
func (c *PriceCache) AllGatherCost(l dist.Layout, group []int, j, rows, cols int) topo.Cost {
	c.mustBind()
	k := gatherKey{l, j, rows, cols}
	cst, ok := c.gather[k]
	if !ok {
		chunks := make([]int64, len(group))
		var total int64
		for i, r := range group {
			tr, tc := dist.TileShape(l, c.p, r, rows, cols)
			chunks[i] = int64(tr) * int64(tc) * 4
			total += chunks[i]
		}
		if c.tp != nil {
			_, cst = c.tp.AllGather(c.h, topo.Auto, group, chunks)
		} else {
			cst = c.flat(hw.OpAllGather, len(group), total, total*int64(len(group)-1))
		}
		c.gather[k] = cst
	}
	return cst
}
