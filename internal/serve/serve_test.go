package serve

import (
	"reflect"
	"testing"
)

func TestTrafficSpecStringParseFixedPoint(t *testing.T) {
	ts := TrafficSpec{Queries: 512, Users: 1_000_000, Skew: 1.5, Rate: 2000, Seed: 7}
	got, err := ParseTrafficSpec(ts.String())
	if err != nil {
		t.Fatalf("Parse(%q): %v", ts.String(), err)
	}
	if got != ts {
		t.Fatalf("round trip changed the spec: %+v != %+v", got, ts)
	}
	if got.String() != ts.String() {
		t.Fatalf("String not a fixed point: %q != %q", got.String(), ts.String())
	}
}

func TestTrafficSpecValidate(t *testing.T) {
	bad := []TrafficSpec{
		{Queries: -1, Users: 1, Skew: 1.5, Rate: 1},
		{Queries: 1, Users: 0, Skew: 1.5, Rate: 1},
		{Queries: 1, Users: 1, Skew: 1.0, Rate: 1}, // Zipf needs s > 1
		{Queries: 1, Users: 1, Skew: 1.5, Rate: 0},
	}
	for _, ts := range bad {
		if err := ts.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid spec", ts)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	ts := TrafficSpec{Queries: 256, Users: 3_000_000, Skew: 1.3, Rate: 500, Seed: 42}
	a, b := ts.Generate(100), ts.Generate(100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec must generate a byte-identical stream")
	}
	prev := 0.0
	for i, q := range a {
		if q.Arrival < prev {
			t.Fatalf("query %d arrives at %v before predecessor at %v", i, q.Arrival, prev)
		}
		prev = q.Arrival
		if q.Vertex < 0 || int(q.Vertex) >= 100 {
			t.Fatalf("query %d vertex %d out of range", i, q.Vertex)
		}
		if q.User < 0 || q.User >= ts.Users {
			t.Fatalf("query %d user %d out of range", i, q.User)
		}
	}
	ts.Seed = 43
	if reflect.DeepEqual(a, ts.Generate(100)) {
		t.Fatal("different seeds must generate different streams")
	}
}

func TestCoalesceSizeTrigger(t *testing.T) {
	qs := make([]Query, 10)
	for i := range qs {
		qs[i] = Query{Vertex: int32(i), Arrival: float64(i) * 0.001}
	}
	bs := Coalesce(qs, 4, 100) // deadline never fires
	if len(bs) != 3 {
		t.Fatalf("got %d batches, want 3 (4+4+2)", len(bs))
	}
	if len(bs[0].Queries) != 4 || len(bs[1].Queries) != 4 || len(bs[2].Queries) != 2 {
		t.Fatalf("batch sizes %d/%d/%d, want 4/4/2", len(bs[0].Queries), len(bs[1].Queries), len(bs[2].Queries))
	}
	// Size-triggered batches dispatch at their last query's arrival.
	if bs[0].Dispatch != qs[3].Arrival || bs[1].Dispatch != qs[7].Arrival {
		t.Fatalf("size-trigger dispatch times %v/%v, want %v/%v",
			bs[0].Dispatch, bs[1].Dispatch, qs[3].Arrival, qs[7].Arrival)
	}
	// The trailing partial batch flushes at its deadline.
	if want := qs[8].Arrival + 100; bs[2].Dispatch != want {
		t.Fatalf("final batch dispatches at %v, want deadline %v", bs[2].Dispatch, want)
	}
}

func TestCoalesceDeadlineTrigger(t *testing.T) {
	qs := []Query{
		{Vertex: 0, Arrival: 0},
		{Vertex: 1, Arrival: 0.0005},
		{Vertex: 2, Arrival: 0.5}, // arrives after batch 0's deadline
	}
	bs := Coalesce(qs, 100, 0.001)
	if len(bs) != 2 {
		t.Fatalf("got %d batches, want 2", len(bs))
	}
	if len(bs[0].Queries) != 2 || bs[0].Dispatch != 0.001 {
		t.Fatalf("batch 0: %d queries dispatched at %v, want 2 at 0.001", len(bs[0].Queries), bs[0].Dispatch)
	}
	if len(bs[1].Queries) != 1 || bs[1].Dispatch != 0.501 {
		t.Fatalf("batch 1: %d queries dispatched at %v, want 1 at 0.501", len(bs[1].Queries), bs[1].Dispatch)
	}
}

func TestCacheLRUAndStaleness(t *testing.T) {
	c := NewCache(2)
	c.Insert(1, 0)
	c.Insert(2, 0)
	if !c.Lookup(1, 0, 0) {
		t.Fatal("1 should hit")
	}
	c.Insert(3, 1) // evicts 2 (1 was refreshed by the hit)
	if c.Lookup(2, 1, 0) {
		t.Fatal("2 should have been evicted as LRU")
	}
	if !c.Lookup(1, 1, 0) || !c.Lookup(3, 1, 0) {
		t.Fatal("1 and 3 should remain cached")
	}
	// Staleness: entry from batch 1 expires at batch 1+2 with bound 2.
	if !c.Lookup(3, 2, 2) {
		t.Fatal("3 is one batch old, bound 2: fresh")
	}
	if c.Lookup(3, 3, 2) {
		t.Fatal("3 is two batches old, bound 2: stale")
	}
	if c.Lookup(3, 3, 0) {
		t.Fatal("stale lookup must evict, not just miss")
	}
	// Disabled cache never hits.
	d := NewCache(0)
	d.Insert(9, 0)
	if d.Lookup(9, 0, 0) {
		t.Fatal("capacity-0 cache must always miss")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if _, p50, p99 := new(selector).summarize(xs); p50 != 3 || p99 != 5 {
		t.Fatalf("p50, p99 = %v, %v, want 3, 5", p50, p99)
	}
	if r := (&Session{}).Report(); r.P50Latency != 0 || r.P99Latency != 0 {
		t.Fatalf("empty session reports p50, p99 = %v, %v, want 0, 0", r.P50Latency, r.P99Latency)
	}
}
