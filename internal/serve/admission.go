package serve

import "fmt"

// Admission coalesces the open-loop query stream into microbatches under
// two triggers: a batch dispatches when it reaches MaxBatch queries (size
// trigger) or when the stream's clock passes the first enqueued query's
// arrival + Deadline (deadline trigger) — whichever comes first. Because
// the stream is simulated, "the clock passes" is observed at the next
// arrival: a query arriving after the open batch's deadline first flushes
// that batch at its deadline, then opens a new one. Arrivals must be
// nondecreasing (Generate's are).

// Batch is one dispatched microbatch: the coalesced queries in arrival
// order and the simulated dispatch time (the deadline or the size-
// trigger arrival).
type Batch struct {
	Queries  []Query
	Dispatch float64
}

// Coalesce runs a whole query stream through admission in one pass and
// returns the dispatched batches. Each batch's Queries is a sub-slice of
// queries, capacity-clipped so that appending to it copies. maxBatch must
// be >= 1 and deadline (simulated seconds) >= 0; deadline 0 dispatches
// every batch at its first query's arrival unless the size trigger fires
// on identical arrival times. Coalesce panics, before returning anything,
// on a stream whose arrivals decrease.
func Coalesce(queries []Query, maxBatch int, deadline float64) []Batch {
	if maxBatch < 1 {
		panic("serve: admission needs maxBatch >= 1")
	}
	if deadline < 0 {
		panic("serve: admission needs deadline >= 0")
	}
	out := make([]Batch, 0, (len(queries)+maxBatch-1)/maxBatch)
	lo := 0 // the open batch is queries[lo:i]
	var dl float64
	for i, q := range queries {
		if i > 0 && !(q.Arrival >= queries[i-1].Arrival) {
			panic(fmt.Sprintf("serve: query %d arrives at %v, before query %d at %v; arrivals must be nondecreasing",
				i, q.Arrival, i-1, queries[i-1].Arrival))
		}
		if i > lo && q.Arrival > dl {
			out = append(out, Batch{Queries: queries[lo:i:i], Dispatch: dl})
			lo = i
		}
		if i == lo {
			dl = q.Arrival + deadline
		}
		if i+1-lo == maxBatch {
			out = append(out, Batch{Queries: queries[lo : i+1 : i+1], Dispatch: q.Arrival})
			lo = i + 1
		}
	}
	if lo < len(queries) {
		out = append(out, Batch{Queries: queries[lo:len(queries):len(queries)], Dispatch: dl})
	}
	return out
}
