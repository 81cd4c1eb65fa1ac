package serve

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gnnrdm/internal/core"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/sparse"
)

// The answer store is one slab with a row per distinct vertex: a
// re-gather overwrites the row in place, and nothing handed out aliases
// it.

func storeProblem() *core.Problem {
	rng := rand.New(rand.NewSource(1))
	adj, labels := graph.PlantedPartition(rng, 96, 4*96, 4, 0.8)
	return &core.Problem{
		A:      sparse.GCNNormalize(adj),
		X:      graph.SynthesizeFeatures(rng, labels, 4, 16, 0.8),
		Labels: labels,
	}
}

// storeConfig keeps one vertex cached, for one microbatch, and refreshes
// layer 2 every batch and layer 1 every other one.
func storeConfig() Config {
	return Config{
		Dims: []int{16, 16, 4}, Seed: 11, MaxBatch: 2, Deadline: 1e-3,
		CacheCap: 1, Staleness: 1, LayerStaleness: []int{2, 1},
	}
}

// stream asks for vs one per microbatch, the first at t0.
func stream(t0 float64, vs ...int32) []Query {
	qs := make([]Query, len(vs))
	for i, v := range vs {
		qs[i] = Query{Vertex: v, Arrival: t0 + float64(i)*0.01}
	}
	return qs
}

func sameRow(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestStoreRegatherOverwritesRow(t *testing.T) {
	prob := storeProblem()
	s := NewSession(prob, storeConfig())
	s.Serve(2, stream(0, 3, 7, 3, 9)) // 3 is evicted by 7, then gathered again
	if got := s.HitMiss(); got != "0000" {
		t.Fatalf("hit/miss %q, want every query a miss", got)
	}
	if s.rows != 3 || len(s.slab) != 3*4 {
		t.Fatalf("%d rows over %d floats for 3 distinct vertices of width 4", s.rows, len(s.slab))
	}

	// Poison 3's row, then gather it once more in a new world: the row must
	// be overwritten where it is, with what a fresh session serves.
	at := int(s.row[3]) - 1
	nan := float32(math.NaN())
	for i := range s.slab[at*4 : at*4+4] {
		s.slab[at*4+i] = nan
	}
	s.Serve(4, stream(1, 3))
	if int(s.row[3])-1 != at || s.rows != 3 || len(s.slab) != 3*4 {
		t.Fatalf("re-gather moved or added a row: vertex 3 at row %d (was %d), %d rows, %d floats",
			s.row[3]-1, at, s.rows, len(s.slab))
	}
	fresh := NewSession(prob, storeConfig())
	fresh.Serve(4, stream(1, 3))
	if got, want := s.Answer(3), fresh.Answer(3); !sameRow(got, want) {
		t.Fatalf("re-gathered answer %v, a fresh session serves %v", got, want)
	}
}

// The store grows once per Serve, to exactly the rows it holds: no
// append-growth slack is left behind.
func TestStoreGrowsToExactRows(t *testing.T) {
	s := NewSession(storeProblem(), storeConfig())
	for i, vs := range [][]int32{{3, 7, 3, 9, 11, 12, 13}, {3, 20, 21, 22}} {
		s.Serve(2, stream(float64(i), vs...))
		if want := s.rows * s.width; len(s.slab) != want || cap(s.slab) != want {
			t.Fatalf("serve %d: slab len %d cap %d, want both %d (%d rows of %d)",
				i, len(s.slab), cap(s.slab), want, s.rows, s.width)
		}
	}
}

func TestAnswersDoNotAliasTheStore(t *testing.T) {
	prob := storeProblem()
	s := NewSession(prob, storeConfig())
	s.Serve(2, stream(0, 3, 7))
	if s.Answer(42) != nil {
		t.Fatal("a vertex never queried has an answer")
	}
	want := slices.Clone(s.Answer(3))
	got := s.Answer(3)
	got[0]++
	if !sameRow(s.Answer(3), want) {
		t.Fatal("writing to Answer's result changed the store")
	}

	dr := s.ServeDegraded(stream(1, 7, 3, 50))
	if dr.Served != 2 || len(dr.Deferred) != 1 || dr.Deferred[0].Vertex != 50 {
		t.Fatalf("degraded window served %d and deferred %v, want 2 served and vertex 50 deferred", dr.Served, dr.Deferred)
	}
	for _, a := range dr.Answers {
		if !a.Stale || !sameRow(a.Embedding, s.Answer(a.Vertex)) {
			t.Fatalf("degraded answer for %d is %v (stale %v), the store holds %v", a.Vertex, a.Embedding, a.Stale, s.Answer(a.Vertex))
		}
		a.Embedding[0]++
	}
	if !sameRow(s.Answer(3), want) {
		t.Fatal("writing to a degraded answer changed the store")
	}
}

// A stream whose arrivals decrease is refused before Serve changes
// anything: cache, counters, the hit/miss witness and the store.
func TestServeRejectsDecreasingArrivalsUnchanged(t *testing.T) {
	s := NewSession(storeProblem(), storeConfig())
	s.Serve(2, stream(0, 3, 7))
	before, witness, cached, answer := s.Report(), s.HitMiss(), s.cache.order(), s.Answer(7)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Serve accepted a stream whose arrivals decrease")
			}
		}()
		s.Serve(2, []Query{{Vertex: 9, Arrival: 2}, {Vertex: 7, Arrival: 1}})
	}()
	if s.Report() != before || s.HitMiss() != witness || !slices.Equal(s.cache.order(), cached) || !sameRow(s.Answer(7), answer) {
		t.Fatal("a rejected stream changed the session")
	}
}
