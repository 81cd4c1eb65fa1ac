package serve

// The request path's bookkeeping pinned to the forms it replaced. The
// goroutine admission queue, the container/list LRU and the sort-twice
// percentile are kept here as oracles, the way dist keeps its three-copy
// regrid, and the single-pass Coalesce, the index-linked Cache and the
// selecting percentiles must agree with them on every seeded draw.

import (
	"container/list"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// queue is the goroutine admission queue: Submit queries in arrival
// order, Close when the stream ends, and range over Batches.
type queue struct {
	in       chan Query
	out      chan Batch
	maxBatch int
	deadline float64
}

func newQueue(maxBatch int, deadline float64) *queue {
	q := &queue{in: make(chan Query), out: make(chan Batch), maxBatch: maxBatch, deadline: deadline}
	go q.run()
	return q
}

func (q *queue) run() {
	defer close(q.out)
	var cur []Query
	var dl float64
	flush := func(at float64) {
		q.out <- Batch{Queries: cur, Dispatch: at}
		cur = nil
	}
	for query := range q.in {
		if len(cur) > 0 && query.Arrival > dl {
			flush(dl)
		}
		if len(cur) == 0 {
			dl = query.Arrival + q.deadline
		}
		cur = append(cur, query)
		if len(cur) == q.maxBatch {
			flush(query.Arrival)
		}
	}
	if len(cur) > 0 {
		flush(dl)
	}
}

// coalesceQueue is Coalesce as it was: the whole stream through a queue.
func coalesceQueue(queries []Query, maxBatch int, deadline float64) []Batch {
	q := newQueue(maxBatch, deadline)
	go func() {
		for _, query := range queries {
			q.in <- query
		}
		close(q.in)
	}()
	var out []Batch
	for b := range q.out {
		out = append(out, b)
	}
	return out
}

// listCache is the container/list LRU.
type listCache struct {
	cap int
	ll  *list.List
	m   map[int32]*list.Element
}

type listEntry struct {
	v     int32
	stamp int
}

func newListCache(cap int) *listCache {
	return &listCache{cap: cap, ll: list.New(), m: make(map[int32]*list.Element)}
}

func (c *listCache) Lookup(v int32, batch, staleness int) bool {
	e, ok := c.m[v]
	if !ok {
		return false
	}
	ent := e.Value.(*listEntry)
	if staleness > 0 && batch-ent.stamp >= staleness {
		c.ll.Remove(e)
		delete(c.m, v)
		return false
	}
	c.ll.MoveToFront(e)
	return true
}

func (c *listCache) Insert(v int32, batch int) {
	if c.cap == 0 {
		return
	}
	if e, ok := c.m[v]; ok {
		e.Value.(*listEntry).stamp = batch
		c.ll.MoveToFront(e)
		return
	}
	c.m[v] = c.ll.PushFront(&listEntry{v: v, stamp: batch})
	if c.ll.Len() > c.cap {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.m, old.Value.(*listEntry).v)
	}
}

// order lists the cached vertices from most to least recently used.
func (c *listCache) order() []int32 {
	var out []int32
	for e := c.ll.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*listEntry).v)
	}
	return out
}

// order is listCache.order for the index-linked Cache.
func (c *Cache) order() []int32 {
	var out []int32
	for i := c.nodes[0].next; i != 0; i = c.nodes[i].next {
		out = append(out, c.nodes[i].v)
	}
	return out
}

// percentile is the nearest-rank q-quantile on a sorted copy.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// randomStream draws n queries over vertices [0, verts) whose arrival
// gaps are 0 (a tie) or one of a few steps around the deadline.
func randomStream(rng *rand.Rand, n, verts int, deadline float64) []Query {
	steps := []float64{0, 0, deadline / 4, deadline / 2, deadline, 2 * deadline, 1e-4}
	qs := make([]Query, n)
	t := 0.0
	for i := range qs {
		t += steps[rng.Intn(len(steps))]
		qs[i] = Query{Vertex: int32(rng.Intn(verts)), Arrival: t, User: int64(i)}
	}
	return qs
}

// sameBatches compares batch lists by content: both nil and empty mean
// no batches.
func sameBatches(a, b []Batch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dispatch != b[i].Dispatch || !reflect.DeepEqual(a[i].Queries, b[i].Queries) {
			return false
		}
	}
	return true
}

func TestCoalesceMatchesQueueOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for draw := 0; draw < 400; draw++ {
		n := rng.Intn(40)
		if draw%10 == 0 {
			n = 0
		}
		maxBatch := []int{1, 2, 3, 8, 64}[rng.Intn(5)] // 64 > every stream
		deadline := []float64{0, 1e-3, 2e-3}[rng.Intn(3)]
		qs := randomStream(rng, n, 6, max(deadline, 1e-3))
		got, want := Coalesce(qs, maxBatch, deadline), coalesceQueue(qs, maxBatch, deadline)
		if !sameBatches(got, want) {
			t.Fatalf("draw %d (n=%d maxBatch=%d deadline=%v): Coalesce\n%+v\nqueue oracle\n%+v",
				draw, n, maxBatch, deadline, got, want)
		}
		for i, b := range got {
			if cap(b.Queries) != len(b.Queries) {
				t.Fatalf("draw %d batch %d: capacity %d beyond length %d lets an append overwrite the stream",
					draw, i, cap(b.Queries), len(b.Queries))
			}
		}
	}
}

// An empty arrival stream is no batches — the serving loop's idle-stream
// liveness guarantee.
func TestCoalesceEmptyStream(t *testing.T) {
	if bs := Coalesce(nil, 8, 0.001); len(bs) != 0 {
		t.Fatalf("empty stream produced %d batches", len(bs))
	}
}

func TestCoalesceRejectsDecreasingArrivals(t *testing.T) {
	for _, qs := range [][]Query{
		{{Arrival: 1}, {Arrival: 0.5}},
		{{Arrival: 0}, {Arrival: 0}, {Arrival: 2}, {Arrival: 1.5}},
		{{Arrival: 0}, {Arrival: math.NaN()}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Coalesce accepted arrivals %v", qs)
				}
			}()
			Coalesce(qs, 8, 0.001)
		}()
	}
}

// Odd draws name vertices spread over [0, 1<<16) instead of [0, verts),
// so the cache's vertex table grows while it evicts and re-inserts.
func TestCacheMatchesListOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	reinserted := 0 // inserts of a vertex the cache had evicted
	grown := 0      // inserts that grew the vertex table
	regrown := 0    // re-inserts of an evicted vertex after the table grew
	for draw := 0; draw < 300; draw++ {
		capacity := []int{0, 1, 2, 5, 16}[rng.Intn(5)]
		staleness := []int{0, 1, 3}[rng.Intn(3)]
		verts := 1 + rng.Intn(12)
		ids := make([]int32, verts)
		spread := rand.New(rand.NewSource(int64(draw)))
		for i := range ids {
			ids[i] = int32(i)
			if draw%2 == 1 {
				ids[i] = int32(spread.Intn(1 << 16))
			}
		}
		got, want := NewCache(capacity), newListCache(capacity)
		batch := 0
		evicted := map[int32]bool{}
		grew := false
		for op := 0; op < 200; op++ {
			if rng.Intn(4) == 0 {
				batch++
			}
			held := want.order()
			v := ids[rng.Intn(verts)]
			if rng.Intn(2) == 0 {
				if g, w := got.Lookup(v, batch, staleness), want.Lookup(v, batch, staleness); g != w {
					t.Fatalf("draw %d op %d: Lookup(%d, %d, %d) = %v, oracle %v", draw, op, v, batch, staleness, g, w)
				}
			} else {
				if evicted[v] {
					reinserted++
					if grew {
						regrown++
					}
				}
				n := len(got.idx)
				got.Insert(v, batch)
				want.Insert(v, batch)
				if len(got.idx) > n && n > 0 {
					grown++
					grew = true
				}
			}
			if g, w := got.order(), want.order(); !reflect.DeepEqual(g, w) {
				t.Fatalf("draw %d op %d: recency order %v, oracle %v", draw, op, g, w)
			}
			if got.held != want.ll.Len() {
				t.Fatalf("draw %d op %d: Len %d, oracle %d", draw, op, got.held, want.ll.Len())
			}
			for _, u := range held {
				if _, ok := want.m[u]; !ok {
					evicted[u] = true
				}
			}
		}
	}
	t.Logf("%d re-inserts after eviction, %d growths, %d re-inserts after growth", reinserted, grown, regrown)
	if reinserted == 0 || grown == 0 || regrown == 0 {
		t.Fatalf("%d re-inserts of an evicted vertex, %d growths of a non-empty table, %d re-inserts after growth; want each > 0",
			reinserted, grown, regrown)
	}
}

func TestPercentilesMatchSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for draw := 0; draw < 300; draw++ {
		xs := make([]float64, 1+rng.Intn(300))
		distinct := 1 + rng.Intn(20) // small alphabets make long runs of ties
		for i := range xs {
			xs[i] = float64(rng.Intn(distinct)) * 0.25
			if rng.Intn(50) == 0 {
				xs[i] = math.NaN()
			}
		}
		before := append([]float64(nil), xs...)
		p50, p99 := percentiles(xs)
		for _, c := range []struct {
			q        float64
			got, ref float64
		}{{0.50, p50, percentile(xs, 0.50)}, {0.99, p99, percentile(xs, 0.99)}} {
			if math.Float64bits(c.got) != math.Float64bits(c.ref) && !(math.IsNaN(c.got) && math.IsNaN(c.ref)) {
				t.Fatalf("draw %d (n=%d): q=%v selected %v, sort oracle %v", draw, len(xs), c.q, c.got, c.ref)
			}
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
				t.Fatalf("draw %d: percentiles reordered its input", draw)
			}
		}
	}
}
