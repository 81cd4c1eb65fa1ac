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
