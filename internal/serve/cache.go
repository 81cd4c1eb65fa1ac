package serve

import "fmt"

// Cache is the deterministic LRU of historical answers. It stores only
// vertex membership and an insertion stamp (the microbatch index) —
// answer values live in the session's store — because hit/miss is a
// control-plane decision the host makes while planning batches; no
// float ever depends on it. Eviction order is a pure function of the
// lookup/insert sequence, which is itself a pure function of the
// seeded traffic, so two runs of the same stream produce byte-
// identical hit/miss sequences. The recency list is linked by index
// through one slice of nodes and reuses freed ones, and vertices find
// their node through a table indexed by vertex id, so a warm cache
// allocates nothing and hashes nothing. Vertex ids are >= 0; the table
// grows to the largest id inserted (a session sizes it to its graph
// up front).
type Cache struct {
	cap   int
	idx   []int32     // vertex -> node; 0 (the list sentinel) means not cached
	held  int         // vertices cached
	nodes []cacheNode // nodes[0] heads a circular list, most recent next
	free  int32       // first free node, chained through next; 0 if none
}

type cacheNode struct {
	v          int32
	stamp      int
	prev, next int32
}

// NewCache builds an LRU holding up to cap vertices; cap == 0 disables
// caching (every lookup misses).
func NewCache(cap int) *Cache {
	if cap < 0 {
		panic("serve: cache capacity must be >= 0")
	}
	return &Cache{cap: cap, nodes: make([]cacheNode, 1)}
}

// reserve sizes the vertex table for ids below n, so that inserting
// them never grows it. A disabled cache holds nothing and needs none.
func (c *Cache) reserve(n int) {
	if c.cap > 0 && n > len(c.idx) {
		c.idx = append(c.idx, make([]int32, n-len(c.idx))...)
		c.idx = c.idx[:cap(c.idx)]
	}
}

// Lookup reports whether v's answer is cached and fresh at microbatch
// index batch: with staleness > 0 an entry inserted at stamp is stale
// once batch-stamp >= staleness and is evicted on sight (the serving
// tier's bounded-staleness contract); staleness == 0 never expires.
// A hit refreshes recency. An id never inserted — a negative one
// included — misses.
func (c *Cache) Lookup(v int32, batch, staleness int) bool {
	if uint(v) >= uint(len(c.idx)) { // negative ids wrap past the end
		return false
	}
	i := c.idx[v]
	if i == 0 {
		return false
	}
	if staleness > 0 && batch-c.nodes[i].stamp >= staleness {
		c.evict(i)
		return false
	}
	c.touch(i)
	return true
}

// Insert records v's answer as cached at microbatch index batch,
// evicting the least recently used vertex when full. Re-inserting a
// cached vertex refreshes its stamp and recency. Insert panics on a
// negative id.
func (c *Cache) Insert(v int32, batch int) {
	if v < 0 {
		panic(fmt.Sprintf("serve: cache insert of vertex %d; vertex ids are >= 0", v))
	}
	if c.cap == 0 {
		return
	}
	c.reserve(int(v) + 1)
	i := c.idx[v]
	if i == 0 {
		if c.held == c.cap {
			c.evict(c.nodes[0].prev)
		}
		if i = c.free; i != 0 {
			c.free = c.nodes[i].next
		} else {
			i = int32(len(c.nodes))
			c.nodes = append(c.nodes, cacheNode{})
		}
		c.nodes[i] = cacheNode{v: v, prev: i, next: i} // unlinking it is a no-op
		c.idx[v] = i
		c.held++
	}
	c.nodes[i].stamp = batch
	c.touch(i)
}

// touch moves node i to the front of the recency list.
func (c *Cache) touch(i int32) {
	c.unlink(i)
	head := c.nodes[0].next
	c.nodes[i].prev, c.nodes[i].next = 0, head
	c.nodes[head].prev, c.nodes[0].next = i, i
}

// evict drops node i's vertex and frees the node.
func (c *Cache) evict(i int32) {
	c.unlink(i)
	c.idx[c.nodes[i].v] = 0
	c.held--
	c.nodes[i].next, c.free = c.free, i
}

func (c *Cache) unlink(i int32) {
	n := c.nodes[i]
	c.nodes[n.prev].next, c.nodes[n.next].prev = n.next, n.prev
}
