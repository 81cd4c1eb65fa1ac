package serve

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzTrafficSpec drives the traffic grammar's Parse/String fixed
// point: any spec Parse accepts must re-render to a string Parse
// accepts again, reaching the identical spec — and must be generable
// without panicking.
func FuzzTrafficSpec(f *testing.F) {
	f.Add("traffic q=512 users=1000000 zipf=1.5 rate=2000 seed=7")
	f.Add("traffic q=0 users=1 zipf=1.001 rate=0.5 seed=-1")
	f.Add("traffic q=64 users=3000000 zipf=2 rate=1e6 seed=42")
	f.Add("traffic q=1 users=1099511627776 zipf=64 rate=1e12 seed=0")
	f.Fuzz(func(t *testing.T, s string) {
		ts, err := ParseTrafficSpec(s)
		if err != nil {
			return
		}
		re, err := ParseTrafficSpec(ts.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", ts.String(), s, err)
		}
		if re != ts {
			t.Fatalf("fixed point violated: %q parsed to %+v, re-parsed to %+v", s, ts, re)
		}
		if ts.Queries > 1024 {
			ts.Queries = 1024 // keep the fuzz executable fast
		}
		qs := ts.Generate(17)
		if len(qs) != ts.Queries {
			t.Fatalf("Generate returned %d queries, want %d", len(qs), ts.Queries)
		}
	})
}

// streamOf decodes a fuzzed stream: one query per byte, the low three
// bits the vertex, the high five an arrival-gap class — ties, steps
// around a millisecond deadline, and (class 31) a step backwards.
func streamOf(data []byte) (qs []Query, decreasing bool) {
	gaps := []float64{0, 0, 0, 2.5e-4, 5e-4, 1e-3, 2e-3, 3e-3}
	t := 1.0
	for i, b := range data {
		if class := int(b >> 3); class == 31 {
			t -= 1e-4
			decreasing = decreasing || i > 0
		} else {
			t += gaps[class%len(gaps)]
		}
		qs = append(qs, Query{Vertex: int32(b & 7), Arrival: t, User: int64(i)})
	}
	return qs, decreasing
}

// FuzzCoalesce pins single-pass admission to the goroutine queue oracle:
// the same batches with the same dispatch times, each a capacity-clipped
// window of the stream, together the stream in order — and a stream
// whose arrivals decrease is refused outright. Seeds: gencorpus.
func FuzzCoalesce(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, maxBatch, deadline byte) {
		mb := 1 + int(maxBatch%16)
		dl := float64(deadline%4) * 1e-3
		qs, decreasing := streamOf(data)
		if decreasing {
			defer func() {
				if recover() == nil {
					t.Fatal("Coalesce accepted a stream whose arrivals decrease")
				}
			}()
			Coalesce(qs, mb, dl)
			return
		}
		got := Coalesce(qs, mb, dl)
		if want := coalesceQueue(qs, mb, dl); !sameBatches(got, want) {
			t.Fatalf("maxBatch %d deadline %v: Coalesce\n%+v\nqueue oracle\n%+v", mb, dl, got, want)
		}
		at := 0
		for i, b := range got {
			if len(b.Queries) == 0 || len(b.Queries) > mb || cap(b.Queries) != len(b.Queries) {
				t.Fatalf("batch %d holds %d queries (cap %d), maxBatch %d", i, len(b.Queries), cap(b.Queries), mb)
			}
			if &b.Queries[0] != &qs[at] {
				t.Fatalf("batch %d is not the stream's window at %d", i, at)
			}
			at += len(b.Queries)
		}
		if at != len(qs) {
			t.Fatalf("batches cover %d of %d queries", at, len(qs))
		}
	})
}

// latenciesOf decodes a fuzzed latency log: each 8 bytes are one
// float64's bits, little-endian; a trailing partial word is dropped.
func latenciesOf(data []byte) []float64 {
	xs := make([]float64, len(data)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return xs
}

// FuzzPercentiles pins Report's radix selection to the sort oracle on
// arbitrary bit patterns: the left-to-right mean bit for bit, the
// nearest-rank p50 and p99 by value (or both NaN), the log unreordered.
// Seeds (gencorpus): clustered serve-like latencies with ties, ±0,
// NaNs, ±Inf and subnormals, one value, all values equal.
func FuzzPercentiles(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := latenciesOf(data)
		if len(xs) == 0 {
			return
		}
		checkSummary(t, new(selector), xs)
	})
}
