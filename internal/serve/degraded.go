package serve

// Graceful degradation: while an elastic world is re-forming after a
// crash (gossip detection, rollback, reshard — see core.TrainElastic
// and internal/member), the serving tier has no fabric to gather misses
// on. Instead of erroring, ServeDegraded answers every query it can
// from the session's accumulated answer store — each response flagged
// stale, since the store may lag the model being retrained — and defers
// the rest for resubmission through Serve once the world is back. The
// degraded path touches no fabric and no byte meters, and leaves the
// cache policy's hit/miss determinism witness untouched.

// DegradedAnswer is one response from the degraded path.
type DegradedAnswer struct {
	Vertex int32
	// Embedding is the stored final-layer embedding. Nil when the vertex
	// was never served before the degradation window (the query is then
	// listed in DegradedReport.Deferred instead).
	Embedding []float32
	// Stale marks the answer as possibly outdated: every degraded-window
	// answer is stale by definition, because the store cannot refresh
	// without a fabric.
	Stale bool
}

// DegradedReport is the outcome of one degraded-window call.
type DegradedReport struct {
	// Served counts queries answered (stale) from the store.
	Served int
	// Answers holds the stale responses, in arrival order.
	Answers []DegradedAnswer
	// Deferred holds the queries the store could not answer, in arrival
	// order; resubmit them to Serve after the world re-forms.
	Deferred []Query
}

// ServeDegraded answers a query stream without a fabric: store hits are
// served stale, misses are deferred. Session-level counters accumulate
// across calls (StaleServed, DeferredQueries) and surface in Report.
func (s *Session) ServeDegraded(queries []Query) DegradedReport {
	var rep DegradedReport
	for _, q := range queries {
		if emb := s.Answer(q.Vertex); emb != nil {
			rep.Answers = append(rep.Answers, DegradedAnswer{Vertex: q.Vertex, Embedding: emb, Stale: true})
			rep.Served++
			s.staleServed++
			continue
		}
		rep.Deferred = append(rep.Deferred, q)
		s.deferred++
	}
	return rep
}

// StaleServed returns the total queries answered stale across every
// degraded window of the session.
func (s *Session) StaleServed() int { return s.staleServed }

// DeferredQueries returns the total queries deferred across every
// degraded window of the session.
func (s *Session) DeferredQueries() int { return s.deferred }
