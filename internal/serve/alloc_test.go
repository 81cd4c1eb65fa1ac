package serve

import (
	"math/rand"
	"testing"
)

// A warm cache allocates nothing per call: at most two objects, and in
// the uninstrumented build a few bytes on average, per Lookup or Insert
// over a seeded op sequence that evicts, expires and re-inserts.
func TestCacheSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed assertion skipped in -short")
	}
	rng := rand.New(rand.NewSource(4))
	type op struct {
		v      int32
		insert bool
	}
	ops := make([]op, 4096)
	for i := range ops {
		ops[i] = op{v: int32(rng.Intn(256)), insert: rng.Intn(2) == 0}
	}
	c := NewCache(64)
	call := func(i int) {
		o := ops[i%len(ops)]
		if o.insert {
			c.Insert(o.v, i/8)
		} else {
			c.Lookup(o.v, i/8, 3)
		}
	}
	for i := 0; i < 4*len(ops); i++ {
		call(i)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			call(i)
		}
	})
	t.Logf("%d bytes/call, %d allocs/call (N=%d)", res.AllocedBytesPerOp(), res.AllocsPerOp(), res.N)
	if res.AllocsPerOp() > 2 {
		t.Fatalf("%d objects allocated per cache call, bound is 2", res.AllocsPerOp())
	}
	if res.AllocedBytesPerOp() > 16 && !raceEnabled {
		t.Fatalf("%d bytes allocated per cache call, bound is 16", res.AllocedBytesPerOp())
	}
}

// Report selects its percentiles in the session's own scratch: on a
// session whose scratch is fresh it allocates the same objects — the
// histogram and the candidate buffer — over 2^10 served latencies as
// over 2^16, and once the session holds them, none.
func TestReportAllocsIndependentOfQueries(t *testing.T) {
	allocs := func(queries int) (fresh, warm float64) {
		cfg := Config{Dims: []int{16, 4}, MaxBatch: 8, Deadline: 1e-3, CacheCap: 16}
		s := NewSession(storeProblem(), cfg)
		s.Serve(2, TrafficSpec{Queries: queries, Users: 1000, Skew: 1.1, Rate: 5000, Seed: 5}.Generate(96))
		if len(s.latencies) != queries {
			t.Fatalf("%d latencies logged for %d queries", len(s.latencies), queries)
		}
		fresh = testing.AllocsPerRun(5, func() {
			s.sel = selector{}
			s.Report()
		})
		return fresh, testing.AllocsPerRun(5, func() { s.Report() })
	}
	few, fewWarm := allocs(1 << 10)
	many, manyWarm := allocs(1 << 16)
	t.Logf("Report allocates %v objects over 2^10 latencies, %v over 2^16; %v and %v warm", few, many, fewWarm, manyWarm)
	if few != many || few > 2 {
		t.Fatalf("Report allocates %v objects over 2^10 latencies and %v over 2^16, want the same, at most 2", few, many)
	}
	if fewWarm != 0 || manyWarm != 0 {
		t.Fatalf("Report on a session holding its scratch allocates %v and %v objects, want 0", fewWarm, manyWarm)
	}
}
