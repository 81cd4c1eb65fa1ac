package serve

// Cache is the deterministic LRU of historical answers. It stores only
// vertex membership and an insertion stamp (the microbatch index) —
// answer values live in the session's store — because hit/miss is a
// control-plane decision the host makes while planning batches; no
// float ever depends on it. Eviction order is a pure function of the
// lookup/insert sequence, which is itself a pure function of the
// seeded traffic, so two runs of the same stream produce byte-
// identical hit/miss sequences. The recency list is linked by index
// through one slice of nodes and reuses freed ones, so a warm cache
// allocates nothing.
type Cache struct {
	cap   int
	m     map[int32]int32 // vertex -> node
	nodes []cacheNode     // nodes[0] heads a circular list, most recent next
	free  int32           // first free node, chained through next; 0 if none
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
	return &Cache{cap: cap, m: make(map[int32]int32), nodes: make([]cacheNode, 1)}
}

// Lookup reports whether v's answer is cached and fresh at microbatch
// index batch: with staleness > 0 an entry inserted at stamp is stale
// once batch-stamp >= staleness and is evicted on sight (the serving
// tier's bounded-staleness contract); staleness == 0 never expires.
// A hit refreshes recency.
func (c *Cache) Lookup(v int32, batch, staleness int) bool {
	i, ok := c.m[v]
	if !ok {
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
// cached vertex refreshes its stamp and recency.
func (c *Cache) Insert(v int32, batch int) {
	if c.cap == 0 {
		return
	}
	i, ok := c.m[v]
	if !ok {
		if len(c.m) == c.cap {
			c.evict(c.nodes[0].prev)
		}
		if i = c.free; i != 0 {
			c.free = c.nodes[i].next
		} else {
			i = int32(len(c.nodes))
			c.nodes = append(c.nodes, cacheNode{})
		}
		c.nodes[i] = cacheNode{v: v, prev: i, next: i} // unlinking it is a no-op
		c.m[v] = i
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
	delete(c.m, c.nodes[i].v)
	c.nodes[i].next, c.free = c.free, i
}

func (c *Cache) unlink(i int32) {
	n := c.nodes[i]
	c.nodes[n.prev].next, c.nodes[n.next].prev = n.next, n.prev
}
