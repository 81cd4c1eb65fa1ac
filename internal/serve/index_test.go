package serve

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// The cache, the batch set and the answer store are tables indexed by
// vertex id. No id a caller can pass indexes them out of range, a batch's
// stamp never leaks into the next batch or Serve call, and planning a
// stream allocates the same whatever vertices it names.

// at lists queries for vs, all arriving at t: with MaxBatch >= len(vs)
// they form one microbatch.
func at(t float64, vs ...int32) []Query {
	qs := make([]Query, len(vs))
	for i, v := range vs {
		qs[i] = Query{Vertex: v, Arrival: t}
	}
	return qs
}

func TestCacheOutOfRangeIDs(t *testing.T) {
	c := NewCache(4)
	for _, v := range []int32{-1, math.MinInt32, 0, 7, math.MaxInt32} {
		if c.Lookup(v, 0, 0) {
			t.Fatalf("an empty cache hit vertex %d", v)
		}
	}
	c.Insert(5, 0)
	for _, v := range []int32{-1, math.MinInt32, 6, 1 << 20, math.MaxInt32} {
		if c.Lookup(v, 0, 0) {
			t.Fatalf("Lookup(%d) hit; only vertex 5 is cached", v)
		}
	}
	if !c.Lookup(5, 0, 0) {
		t.Fatal("vertex 5 missed after Insert")
	}
	c.Insert(1<<16, 1) // grows the index well past 5
	if !c.Lookup(5, 1, 0) || !c.Lookup(1<<16, 1, 0) || c.held != 2 {
		t.Fatalf("after growth: order %v, %d held, want 5 and 65536", c.order(), c.held)
	}
	for _, v := range []int32{-1, math.MinInt32} {
		for _, cc := range []*Cache{c, NewCache(0)} {
			func() {
				defer func() {
					r := fmt.Sprint(recover())
					if !strings.HasPrefix(r, "serve: ") || !strings.Contains(r, fmt.Sprint(v)) {
						t.Fatalf("Insert(%d) into a cache of capacity %d recovered %q, want serve's panic naming the id", v, cc.cap, r)
					}
				}()
				cc.Insert(v, 2)
			}()
		}
	}
	if got := c.order(); len(got) != 2 || got[0] != 1<<16 || got[1] != 5 {
		t.Fatalf("a refused Insert changed the cache: order %v", got)
	}
}

// Answer and ServeDegraded take any int32: ids outside [0, N) have no
// answer and are deferred, as ids inside it that were never served are.
func TestAnswersOutOfRange(t *testing.T) {
	s := NewSession(storeProblem(), storeConfig())
	s.Serve(2, stream(0, 3, 95))
	out := []int32{-1, math.MinInt32, 96, 1 << 20, math.MaxInt32}
	for _, v := range out {
		if s.Answer(v) != nil {
			t.Fatalf("Answer(%d) of a 96-vertex graph is not nil", v)
		}
	}
	if s.Answer(3) == nil || s.Answer(95) == nil {
		t.Fatal("served vertices 3 and 95 have no answer")
	}
	dr := s.ServeDegraded(append(stream(1, 95), stream(2, out...)...))
	if dr.Served != 1 || len(dr.Deferred) != len(out) || s.DeferredQueries() != len(out) {
		t.Fatalf("degraded window served %d and deferred %v, want 95 served and %v deferred", dr.Served, dr.Deferred, out)
	}
	for i, q := range dr.Deferred {
		if q.Vertex != out[i] {
			t.Fatalf("deferred %v, want %v in arrival order", dr.Deferred, out)
		}
	}
}

// Repeats inside one microbatch are coalesced hits, repeats across
// batches and Serve calls ask the cache, and the answers are those of a
// session asked one query per batch.
func TestServeDuplicatesWithinAndAcrossBatches(t *testing.T) {
	cfg := Config{Dims: []int{16, 16, 4}, Seed: 11, MaxBatch: 4, Deadline: 1e-3, CacheCap: 8}
	calls := []serveCall{
		{2, append(append(at(0, 3, 7, 3, 3), at(1, 7, 3, 9, 9)...), at(2, 9, 5, 5, 3)...)},
		{4, at(3, 5, 9, 9, 60)},
	}
	for _, c := range []struct {
		cacheCap int
		want     string
	}{
		{8, "0011" + "1101" + "1011" + "1110"},
		// Without a cache only a repeat inside the batch hits: a stamp
		// from an earlier batch or Serve call must not count.
		{0, "0011" + "0001" + "0010" + "0010"},
	} {
		t.Run(fmt.Sprint("cache", c.cacheCap), func(t *testing.T) {
			cc := cfg
			cc.CacheCap = c.cacheCap
			s, ref := NewSession(storeProblem(), cc), NewSession(storeProblem(), cc)
			for _, call := range calls {
				s.Serve(call.p, call.queries)
			}
			if got := s.HitMiss(); got != c.want {
				t.Fatalf("hit/miss %s, want %s", got, c.want)
			}
			rep := s.Report()
			if hits := strings.Count(c.want, "1"); rep.Hits != hits || rep.Misses != len(c.want)-hits {
				t.Fatalf("report counts %d hits and %d misses, the witness %d and %d", rep.Hits, rep.Misses, hits, len(c.want)-hits)
			}
			if s.Metered() != s.Predicted() {
				t.Fatalf("metered %+v, predicted %+v", s.Metered(), s.Predicted())
			}
			// The reference serves the same calls one query per batch, so
			// it coalesces no repeat.
			for _, call := range calls {
				for i, q := range call.queries {
					ref.Serve(call.p, at(call.queries[0].Arrival+float64(i+1)*0.1, q.Vertex))
				}
			}
			for _, call := range calls {
				for _, q := range call.queries {
					if !sameRow(s.Answer(q.Vertex), ref.Answer(q.Vertex)) {
						t.Fatalf("vertex %d: answer %v, served alone %v", q.Vertex, s.Answer(q.Vertex), ref.Answer(q.Vertex))
					}
				}
			}
		})
	}
}

// Batch stamps are int32s: when the microbatch index reaches 2^31-1 they
// wrap, and the table is cleared so that no stamp from long ago matches.
func TestServeBatchStampsWrap(t *testing.T) {
	s := NewSession(storeProblem(), Config{Dims: []int{16, 4}, MaxBatch: 2, Deadline: 1e-3})
	s.batchIdx = math.MaxInt32 - 1
	s.seen[3] = 1 // vertex 3 missed in batch 0, 2^31-1 batches ago
	qs := append(at(0, 5, 5), at(1, 3, 3)...)
	s.planBatches(Coalesce(qs, 2, 1e-3), 1, len(qs))
	if got := s.HitMiss(); got != "0101" {
		t.Fatalf("hit/miss %s across the wrap, want 0101", got)
	}
}

// Planning a stream on a warm session allocates a fixed number of
// objects — the plans, the miss window and the refresh stamps — however
// many distinct vertices the stream names.
func TestPlanBatchesAllocsIndependentOfVertices(t *testing.T) {
	allocs := func(distinct int) float64 {
		cfg := Config{Dims: []int{16, 4}, MaxBatch: 32, Deadline: 1e-3, CacheCap: 16, Staleness: 3}
		s := NewSession(storeProblem(), cfg)
		qs := make([]Query, 512)
		for i := range qs {
			qs[i] = Query{Vertex: int32(i * 7 % distinct), Arrival: float64(i/32) * 0.01}
		}
		batches := Coalesce(qs, cfg.MaxBatch, cfg.Deadline)
		run := func() {
			s.hitSeq = s.hitSeq[:0]
			s.planBatches(batches, 1, len(qs))
		}
		run()
		return testing.AllocsPerRun(20, run)
	}
	few, many := allocs(2), allocs(96)
	t.Logf("%v objects per planBatches over 2 vertices, %v over 96", few, many)
	if few != many || few > 3 {
		t.Fatalf("planBatches allocates %v objects over 2 vertices and %v over 96, want the same, at most 3", few, many)
	}
}
