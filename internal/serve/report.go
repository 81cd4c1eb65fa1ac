package serve

import (
	"math"
	"math/bits"

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

// digitBits is the width of one radix digit of the latency selection:
// a 2^11-bucket histogram stays in L1. Serve's latencies share sign,
// exponent and leading mantissa bits, so the digit just below the common
// prefix of the smallest and largest key spreads them over the buckets.
const (
	digitBits = 11
	digitMask = 1<<digitBits - 1
)

// selector is Report's reusable scratch for exact percentile selection:
// a digit histogram and the candidate keys of the target buckets.
type selector struct {
	hist []int
	cand []uint64
}

// orderKey maps x to a key whose unsigned order is sort.Float64s' order:
// every NaN first (key 0), then -Inf < … < -0 < +0 < … < +Inf.
func orderKey(x float64) uint64 {
	if x != x {
		return 0
	}
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// fromKey inverts orderKey (key 0 gives a NaN).
func fromKey(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// digitShift is the shift that puts the digitBits bits just below the
// common prefix of lo < hi (and of every key between them) at the bottom.
func digitShift(lo, hi uint64) uint {
	return uint(max(bits.Len64(lo^hi)-digitBits, 0))
}

// histogram returns the cleared histogram.
func (sel *selector) histogram() []int {
	if sel.hist == nil {
		sel.hist = make([]int, 1<<digitBits)
	}
	clear(sel.hist)
	return sel.hist
}

// bucketOf returns the bucket holding rank k of a histogram and k's rank
// within it.
func bucketOf(hist []int, k int) (b uint64, r int) {
	for b, c := range hist {
		if k < c {
			return uint64(b), k
		}
		k -= c
	}
	panic("serve: rank past the histogram")
}

// summarize returns the mean (summed left to right) and the nearest-rank
// p50 and p99 of a non-empty xs: the elements a sort would put at those
// ranks (NaN first, as sort.Float64s orders). It reads xs in place and
// never reorders it: one pass sums and finds the extreme keys, one builds
// the histogram of the digit below their common prefix, one collects the
// keys of the two target buckets, and selectKey refines those.
func (sel *selector) summarize(xs []float64) (mean, p50, p99 float64) {
	n := len(xs)
	var sum float64
	lo, hi := ^uint64(0), uint64(0)
	for _, x := range xs {
		sum += x
		k := orderKey(x)
		lo, hi = min(lo, k), max(hi, k)
	}
	mean = sum / float64(n)
	if lo == hi {
		return mean, fromKey(lo), fromKey(lo)
	}
	rank := func(q float64) int { return max(int(math.Ceil(q*float64(n)))-1, 0) }
	shift := digitShift(lo, hi)
	hist := sel.histogram()
	for _, x := range xs {
		hist[orderKey(x)>>shift&digitMask]++
	}
	b50, r50 := bucketOf(hist, rank(0.50))
	b99, r99 := bucketOf(hist, rank(0.99))
	n50, n99 := hist[b50], hist[b99]
	if b99 == b50 {
		n99 = 0
	}
	if cap(sel.cand) < n50+n99 {
		sel.cand = make([]uint64, n50+n99)
	}
	c50, c99 := sel.cand[:n50], sel.cand[n50:n50+n99]
	i50, i99 := 0, 0
	for _, x := range xs {
		k := orderKey(x)
		switch k >> shift & digitMask {
		case b50:
			c50[i50] = k
			i50++
		case b99:
			c99[i99] = k
			i99++
		}
	}
	if b99 == b50 {
		c99 = c50
	}
	return mean, fromKey(sel.selectKey(c50, r50)), fromKey(sel.selectKey(c99, r99))
}

// selectKey returns the key a sort of keys would put at index k. It
// permutes keys (so a second call on them selects from the same
// multiset): each round keeps the bucket of the digit below the common
// prefix that holds rank k, fixing digitBits more bits, until one key
// value is left.
func (sel *selector) selectKey(keys []uint64, k int) uint64 {
	for {
		lo, hi := keys[0], keys[0]
		for _, x := range keys[1:] {
			lo, hi = min(lo, x), max(hi, x)
		}
		if lo == hi {
			return lo
		}
		shift := digitShift(lo, hi)
		hist := sel.histogram()
		for _, x := range keys {
			hist[x>>shift&digitMask]++
		}
		var b uint64
		b, k = bucketOf(hist, k)
		m := 0
		for i, x := range keys {
			if x>>shift&digitMask == b {
				keys[m], keys[i] = x, keys[m]
				m++
			}
		}
		keys = keys[:m]
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
	if len(s.latencies) > 0 {
		r.MeanLatency, r.P50Latency, r.P99Latency = s.sel.summarize(s.latencies)
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
