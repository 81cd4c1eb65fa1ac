package plan

import (
	"fmt"

	"gnnrdm/internal/comm"
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
// costers consume: Bruck in log P passes over the list plus O(P) per
// round, ring and hier in one pass. The list lives only until the round
// is priced, in one buffer the cache keeps and only grows, sized in O(P)
// before the visits (pairCount); the cache keeps the O(P) census and
// the price.
//
// A cache binds to one (P, hardware model, topology) context on first
// use and panics if reused under a different one — memoized costs are
// only valid within the context they were computed in. Every price is
// the live fabric's: comm.Meter's topo.Cost, routed under topo.Auto
// when a topology is bound, else the flat closed form with every byte
// on tier 0.
//
// The cache also owns the replay engine's scratch (replay.go): every
// replay priced on it resets one engine instead of building one. A
// cache therefore serves one goroutine at a time, as its maps already
// require.
type PriceCache struct {
	p     int
	meter comm.Meter // the bound hardware model and topology
	bound bool
	world []int

	eng   engine      // the replay engine every newEngine on this cache resets
	pairs []topo.Pair // the routed rounds' pair buffer (pairBuf)

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
// panics with Check's error (memoized entries would be silently wrong).
// PriceDAGEpochs and sim.Run bind automatically.
func (c *PriceCache) Bind(p int, h *hw.Model, tp *topo.Topology) {
	if err := c.Check(p, h, tp); err != nil {
		panic(err)
	}
	if c.bound {
		return
	}
	c.p, c.meter, c.bound = p, comm.Meter{HW: h, Topo: tp}, true
	c.world = make([]int, p)
	for i := range c.world {
		c.world[i] = i
	}
}

// Check reports whether the cache can price in the (P, hardware model,
// topology) context: an unbound cache can bind to any, a bound one only
// to its own.
func (c *PriceCache) Check(p int, h *hw.Model, tp *topo.Topology) error {
	if c.bound && (c.p != p || c.meter.HW != h || c.meter.Topo != tp) {
		return fmt.Errorf("plan: PriceCache bound to (P=%d, hw=%p, topo=%p) reused with (P=%d, hw=%p, topo=%p)",
			c.p, c.meter.HW, c.meter.Topo, p, h, tp)
	}
	return nil
}

func (c *PriceCache) mustBind() {
	if !c.bound {
		panic("plan: PriceCache used before Bind")
	}
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
	if c.meter.Topo != nil {
		pairs = append(pairs, topo.Pair{Src: int32(src), Dst: int32(dst), Bytes: b})
	}
	return pairs
}

// pairCount returns how many pairs of a from→to regrid's tiles
// intersect, 0 when no topology will route the round. It is the number
// of tile pairs Exchange visits, self pairs included, so it bounds the
// list built from them; dist.OverlapCount reads it off each sender's
// span in O(P), and the pair buffer is sized once.
func (c *PriceCache) pairCount(from, to dist.Layout, rows, cols int) int {
	if c.meter.Topo == nil {
		return 0
	}
	return dist.OverlapCount(from, to, c.p, rows, cols)
}

// pairBuf returns the cache's pair buffer, empty, with room for n
// pairs: one buffer that only grows serves every round the cache
// prices. It is valid until the next pairBuf call; a caller that builds
// two lists at once carves both from one call.
func (c *PriceCache) pairBuf(n int) []topo.Pair {
	if cap(c.pairs) < n {
		c.pairs = make([]topo.Pair, n)
	}
	return c.pairs[:0]
}

// price completes a round's census from its per-rank sums: the maxima,
// the total, and the all-to-all price. A topology routes the round over
// the census's own pair list; the fabric's Meter would walk all P²
// pairs through a callback instead.
func (c *PriceCache) price(x *ExchangeCensus, pairs []topo.Pair) {
	for r := range x.Div {
		x.MaxInj = max(x.MaxInj, x.Div[r])
		x.MaxEj = max(x.MaxEj, x.Mer[r])
		x.Total += x.Div[r]
	}
	if tp := c.meter.Topo; tp != nil {
		_, x.A2A = tp.AllToAllPairs(c.meter.HW, topo.Auto, c.world, pairs)
	} else {
		x.A2A = c.meter.AllToAll(c.world, nil, x.MaxInj, x.Total)
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
	pairs := c.pairBuf(c.pairCount(from, to, rows, cols))
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
		cst = c.meter.AllReduce(c.world, bytes)
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
		for i, r := range group {
			tr, tc := dist.TileShape(l, c.p, r, rows, cols)
			chunks[i] = int64(tr) * int64(tc) * 4
		}
		cst = c.meter.AllGather(group, chunks)
		c.gather[k] = cst
	}
	return cst
}
