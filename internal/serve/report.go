package serve

import (
	"cmp"
	"math"
	"slices"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/topo"
)

// Report is the session's aggregate scoreboard: load, cache
// efficacy, exact byte ledgers (metered and predicted), and the
// simulated latency distribution on the arrival timeline.
type Report struct {
	P       int     `json:"p"`
	Queries int     `json:"queries"`
	Batches int     `json:"batches"`
	Hits    int     `json:"hits"`
	Misses  int     `json:"misses"`
	HitRate float64 `json:"hit_rate"`

	// Degraded-window tallies: queries answered stale from the store
	// while the world was re-forming, and queries deferred for
	// resubmission (see Session.ServeDegraded).
	StaleServed int `json:"stale_served"`
	Deferred    int `json:"deferred"`

	BytesAllToAll  int64   `json:"bytes_alltoall"`
	BytesAllGather int64   `json:"bytes_allgather"`
	BytesTotal     int64   `json:"bytes_total"`
	BytesPerQuery  float64 `json:"bytes_per_query"`
	PredAllToAll   int64   `json:"pred_alltoall"`
	PredAllGather  int64   `json:"pred_allgather"`

	TierBytes     [topo.NumTiers]int64 `json:"tier_bytes"`
	PredTierBytes [topo.NumTiers]int64 `json:"pred_tier_bytes"`

	P50Latency    float64 `json:"p50_latency"`
	P99Latency    float64 `json:"p99_latency"`
	MeanLatency   float64 `json:"mean_latency"`
	ThroughputQPS float64 `json:"throughput_qps"`
	SimTime       float64 `json:"sim_time"`
	PredTime      float64 `json:"pred_time"`
}

// percentiles returns the nearest-rank p50 and p99 of a non-empty xs:
// the elements a sort would put at those ranks, selected in one scratch
// copy — the p99 first, then the p50 below it.
func percentiles(xs []float64) (p50, p99 float64) {
	s := slices.Clone(xs)
	rank := func(q float64) int { return max(int(math.Ceil(q*float64(len(s))))-1, 0) }
	k99 := rank(0.99)
	p99 = nth(s, k99)
	return nth(s[:k99+1], rank(0.50)), p99
}

// nth returns the element a sort of s would put at index k (NaN first,
// as sort.Float64s orders), leaving nothing greater before it and
// nothing smaller after it: quickselect with a three-way partition, so
// runs of equal values cost one pass.
func nth(s []float64, k int) float64 {
	for {
		// s[:lt] < pivot, s[lt:i] == pivot, s[gt:] > pivot.
		pivot, lt, i, gt := s[len(s)/2], 0, 0, len(s)
		for i < gt {
			switch cmp.Compare(s[i], pivot) {
			case -1:
				s[lt], s[i] = s[i], s[lt]
				lt++
				i++
			case 1:
				gt--
				s[i], s[gt] = s[gt], s[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			s = s[:lt]
		case k >= gt:
			s, k = s[gt:], k-gt
		default:
			return s[k]
		}
	}
}

// Report summarizes everything served so far.
func (s *Session) Report() Report {
	r := Report{
		P:       s.lastP,
		Queries: s.hits + s.misses,
		Batches: s.batchIdx,
		Hits:    s.hits,
		Misses:  s.misses,

		StaleServed: s.staleServed,
		Deferred:    s.deferred,

		BytesAllToAll:  s.metered.AllToAll,
		BytesAllGather: s.metered.AllGather,
		BytesTotal:     s.metered.Total(),
		PredAllToAll:   s.predicted.AllToAll,
		PredAllGather:  s.predicted.AllGather,
		TierBytes:      s.metered.Tier,
		PredTierBytes:  s.predicted.Tier,

		SimTime:  s.simTime,
		PredTime: s.predTime,
	}
	if r.Queries > 0 {
		r.HitRate = float64(s.hits) / float64(r.Queries)
		r.BytesPerQuery = float64(r.BytesTotal) / float64(r.Queries)
	}
	if n := len(s.latencies); n > 0 {
		var sum float64
		for _, l := range s.latencies {
			sum += l
		}
		r.MeanLatency = sum / float64(n)
		r.P50Latency, r.P99Latency = percentiles(s.latencies)
	}
	if span := s.prevCompletion - s.firstArrival; span > 0 {
		r.ThroughputQPS = float64(r.Queries) / span
	}
	return r
}

// Reference is the differential oracle: a single-device, uncached
// engine computing the exact final-layer embedding of every requested
// vertex. The batched, cached, distributed session must agree with it
// within verify.LogitsTol.
func Reference(prob *core.Problem, cfg Config, vertices []int32) map[int32][]float32 {
	cfg = cfg.withDefaults()
	L := cfg.layers()
	rows := make(map[int32][]float32, len(vertices))
	fab := comm.NewFabric(1, cfg.HW)
	fab.Run(func(d *comm.Device) {
		eng := core.NewInferenceEngine(d, prob, core.Options{
			Dims: cfg.Dims, Config: costmodel.ConfigFromID(cfg.ConfigID, L),
			RA: 1, Seed: cfg.Seed, SAGE: cfg.SAGE,
		}, cfg.Checkpoint)
		logits := eng.RunInference(0)
		for _, v := range vertices {
			if rows[v] == nil {
				rows[v] = append([]float32(nil), logits.Local.Row(int(v))...)
			}
		}
	})
	return rows
}
