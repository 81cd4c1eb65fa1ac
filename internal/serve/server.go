package serve

import (
	"fmt"
	"math"
	"slices"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/tensor"
	"gnnrdm/internal/topo"
	"gnnrdm/internal/trace"
)

// Config fixes one serving deployment: the model (dims, Table IV
// ordering, replication, weights), the hardware and optional
// interconnect topology, and the admission/cache policy.
type Config struct {
	// HW is the device model. Default hw.A6000().
	HW *hw.Model
	// Topology, when non-nil, routes and prices every collective
	// through the hierarchical interconnect (per-tier metering).
	Topology *topo.Topology
	// Dims is f_0..f_L; ConfigID the Table IV ordering; RA the
	// adjacency replication factor (0 = full replication); SAGE the
	// two-weight GraphSAGE form — all as in core.Options.
	Dims     []int
	ConfigID int
	RA       int
	SAGE     bool
	// Seed controls weight initialization when Checkpoint is nil (and
	// must then match the training run being served, or the tier serves
	// a different model).
	Seed int64
	// Checkpoint, when non-nil, supplies trained weights (only the
	// weight matrices are read; optimizer state is ignored).
	Checkpoint *core.Checkpoint
	// MaxBatch and Deadline are the admission queue's size and latency
	// triggers. Defaults 8 and 1ms.
	MaxBatch int
	Deadline float64
	// CacheCap is the LRU answer-cache capacity in vertices; 0 disables
	// caching. Staleness, when > 0, expires a cached answer staleness
	// microbatches after insertion.
	CacheCap  int
	Staleness int
	// LayerStaleness, when non-empty, bounds how many microbatches
	// layer l's embeddings (l = index+1) may go without recomputation:
	// a refresh re-runs the forward schedule from the lowest stale
	// layer before the next miss is gathered. Empty = embeddings are
	// computed once per engine incarnation (exact for a frozen model).
	LayerStaleness []int
	// Tracer, when non-nil, records device timelines plus one
	// ClassRequest span per microbatch on virtual rank P.
	Tracer     *trace.Tracer
	TraceLabel string
}

func (c Config) withDefaults() Config {
	if c.HW == nil {
		c.HW = hw.A6000()
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.Deadline == 0 {
		c.Deadline = 1e-3
	}
	if c.TraceLabel == "" {
		c.TraceLabel = "serve"
	}
	return c
}

func (c Config) layers() int { return len(c.Dims) - 1 }

// Session is one serving deployment's accumulated state: the answer
// cache and value store survive across Serve calls — including calls
// at different world sizes, the elastic re-formation path — while
// engines and their registers are rebuilt per call.
type Session struct {
	prob *core.Problem
	cfg  Config

	cache *Cache
	// The answer store: one width-float row of slab per distinct vertex
	// ever gathered, vertex v's at row[v]-1 (0: none yet), rows of them.
	// A re-gather overwrites the row in place; readers get copies.
	slab  []float32
	row   []int32
	rows  int
	width int

	batchIdx int // microbatches planned so far
	// seen[v] is the microbatch index + 1 of the last batch in which v
	// missed, so planBatches tells a batch's repeats apart without
	// clearing anything between batches or Serve calls.
	seen      []int32
	hits      int
	misses    int
	hitSeq    []byte
	latencies []float64

	prevCompletion float64
	firstArrival   float64
	haveArrival    bool
	simTime        float64
	predTime       float64
	lastP          int

	metered   plan.Traffic
	predicted plan.Traffic

	// Degraded-window counters (see degraded.go): queries answered
	// stale from the store and queries deferred for resubmission. The
	// degraded path never touches the meters above.
	staleServed int
	deferred    int
}

// NewSession builds a serving session over a problem's graph and
// features. The model is defined by cfg (checkpoint or seeded init).
func NewSession(prob *core.Problem, cfg Config) *Session {
	cfg = cfg.withDefaults()
	if len(cfg.Dims) < 2 {
		panic("serve: Config.Dims must give at least input and output widths")
	}
	if len(cfg.LayerStaleness) != 0 && len(cfg.LayerStaleness) != cfg.layers() {
		panic(fmt.Sprintf("serve: LayerStaleness has %d entries, model has %d layers",
			len(cfg.LayerStaleness), cfg.layers()))
	}
	s := &Session{
		prob:  prob,
		cfg:   cfg,
		cache: NewCache(cfg.CacheCap),
		row:   make([]int32, prob.N()),
		seen:  make([]int32, prob.N()),
		width: cfg.Dims[cfg.layers()],
	}
	s.cache.reserve(prob.N())
	return s
}

// batchPlan is the host-side decision record for one microbatch: which
// queries hit, which vertices must be gathered, and whether (and from
// which layer) the embedding table is refreshed first. It is computed
// before the fabric runs, so one host loop can step every device through
// the same plan with zero control-plane communication — the shared-plan
// trick the trainer's shared-seed sampling uses.
type batchPlan struct {
	batch     Batch
	missVerts []int32 // deduped, first-occurrence order
	hitRows   int     // hit queries (cache hits + batch-coalesced duplicates)
	fromLayer int     // -1 = no refresh
}

// secSums aggregates a priced schedule per section, aligned with
// plan.Cost.PerOp (which lists ops in section order).
type secSums struct {
	phase string
	layer int
	plan.Traffic
	time float64
}

func sectionSums(sched *plan.Schedule, c plan.Cost) []secSums {
	out := make([]secSums, len(sched.Sections))
	k := 0
	for i := range sched.Sections {
		sec, ss := &sched.Sections[i], &out[i]
		ss.phase, ss.layer = sec.Phase, sec.Layer
		for _, oc := range c.PerOp[k : k+len(sec.Ops)] {
			ss.Add(oc.Traffic)
			ss.time += oc.Time
		}
		k += len(sec.Ops)
	}
	return out
}

// refreshSums totals the sections a refresh from fromLayer executes:
// the init section when cold, every fwd section with Layer >= max(1,
// fromLayer) otherwise (a warm refresh never re-runs init).
func refreshSums(secs []secSums, fromLayer int, cold bool) (m plan.Traffic, t float64) {
	for _, ss := range secs {
		if ss.phase == "init" && cold || ss.phase == "fwd" && ss.layer >= fromLayer {
			m.Add(ss.Traffic)
			t += ss.time
		}
	}
	return m, t
}

// Serve answers one query stream on a world of p devices. Queries must
// be in nondecreasing arrival order (TrafficSpec.Generate's are) and
// name vertices of the graph; Serve panics on a stream that breaks
// either rule, leaving the session unchanged.
// Calling Serve again — with the same or a different p — continues the
// session: the cache and value store carry over, engines are rebuilt,
// and the first miss of the new incarnation pays a cold refresh. The
// hit/miss sequence depends only on the query stream and cache policy,
// never on p.
func (s *Session) Serve(p int, queries []Query) { s.serve(p, queries, (*Session).runPlans) }

// serve is Serve with the step that executes the planned microbatches on
// the fabric passed in: run returns each microbatch's service time.
func (s *Session) serve(p int, queries []Query, run func(*Session, *comm.Fabric, []batchPlan, core.Options) []float64) {
	if p < 1 {
		panic("serve: Serve needs p >= 1")
	}
	if len(queries) == 0 {
		return
	}
	cfg := s.cfg
	// Admission and the vertex check first: they reject a malformed
	// stream before anything below touches the session.
	batches := Coalesce(queries, cfg.MaxBatch, cfg.Deadline)
	for _, q := range queries {
		if q.Vertex < 0 || int(q.Vertex) >= s.prob.N() {
			panic(fmt.Sprintf("serve: vertex %d outside [0, %d)", q.Vertex, s.prob.N()))
		}
	}
	s.lastP = p
	if !s.haveArrival {
		s.firstArrival = queries[0].Arrival
		s.haveArrival = true
	}
	L := cfg.layers()
	fL := cfg.Dims[L]
	ra := cfg.RA
	if ra <= 0 {
		ra = p
	}
	tblCfg := costmodel.ConfigFromID(cfg.ConfigID, L)

	// Host-side plan: the cache's hit/miss verdict per query in arrival
	// order and the refresh decision per microbatch.
	plans := s.planBatches(batches, L, len(queries))

	// Price the inference schedule once; refreshes and gathers are
	// summed per batch from the per-section closed forms.
	sched := plan.CompileInference(plan.Spec{
		N: s.prob.N(), Dims: cfg.Dims, Config: tblCfg,
		P: p, RA: ra, SAGE: cfg.SAGE,
	}).Optimize()
	secs := sectionSums(sched, sched.PriceOn(s.prob.A.NNZ(), cfg.HW, cfg.Topology))
	owned := make([]int64, p)
	for i := range plans {
		s.predictBatch(&plans[i], secs, fL, owned)
	}

	fab := comm.NewFabric(p, cfg.HW)
	if cfg.Topology != nil {
		fab.SetTopology(cfg.Topology)
	}
	if cfg.Tracer != nil {
		fab.SetTracer(cfg.Tracer, cfg.TraceLabel)
	}
	s.reserveRows(plans)
	svc := run(s, fab, plans, core.Options{
		Dims: cfg.Dims, Config: tblCfg, RA: ra, Seed: cfg.Seed, SAGE: cfg.SAGE,
	})
	s.simTime += fab.MaxClock()
	s.metered.Add(plan.TrafficOf(fab.Meters()))

	// Complete the latency bookkeeping on the arrival timeline: batches
	// are served in order, each starting at max(dispatch, previous
	// completion).
	s.latencies = slices.Grow(s.latencies, len(queries))
	for i := range plans {
		bp := &plans[i]
		start := max(bp.batch.Dispatch, s.prevCompletion)
		completion := start + svc[i]
		s.prevCompletion = completion
		for _, q := range bp.batch.Queries {
			s.latencies = append(s.latencies, completion-q.Arrival)
		}
		if cfg.Tracer != nil {
			cfg.Tracer.Emit(p, trace.Event{
				Class: trace.ClassRequest,
				Op:    "microbatch",
				Bytes: costmodel.PredictQueryBytes(fL, int64(len(bp.missVerts))),
				Start: start,
				End:   completion,
			})
		}
	}
}

// runPlans steps every device through the plans from this goroutine: one
// Run builds the engines and one per refresh runs the forward schedule;
// between Runs the gathers are lockstep rounds and root's hit charges and
// store writes plain calls. Service times are read off root's clock.
func (s *Session) runPlans(fab *comm.Fabric, plans []batchPlan, opts core.Options) []float64 {
	engs := make([]*core.Engine, fab.P)
	fab.Run(func(d *comm.Device) {
		engs[d.Rank] = core.NewInferenceEngine(d, s.prob, opts, s.cfg.Checkpoint)
	})
	logits := make([]*dist.Mat, fab.P)
	var tile *tensor.Dense // root's gather tile, reused batch after batch
	root := fab.Device(0)
	svc := make([]float64, len(plans))
	for i := range plans {
		bp := &plans[i]
		c0 := root.Clock()
		if bp.fromLayer >= 0 {
			fab.Run(func(d *comm.Device) { logits[d.Rank] = engs[d.Rank].RunInference(bp.fromLayer) })
		}
		if len(bp.missVerts) > 0 {
			tile = dist.GatherRowsLockstep(logits, 0, bp.missVerts, tile)
		}
		if bp.hitRows > 0 {
			root.ChargeMem(4 * int64(s.width) * int64(bp.hitRows))
		}
		for j, v := range bp.missVerts {
			copy(s.storeRow(v), tile.Row(j))
		}
		svc[i] = root.Clock() - c0
	}
	return svc
}

// planBatches runs the cache over the coalesced batches of an nq-query
// stream in arrival order, producing each microbatch's miss list and
// refresh decision.
func (s *Session) planBatches(batches []Batch, L, nq int) []batchPlan {
	cfg := s.cfg
	warm := false
	lastRefresh := make([]int, L+1)
	plans := make([]batchPlan, len(batches))
	// Every miss list is a window of one array, which never regrows: a
	// stream has at most nq misses.
	misses := make([]int32, 0, nq)
	s.hitSeq = slices.Grow(s.hitSeq, nq)
	for i, b := range batches {
		bp := &plans[i]
		*bp = batchPlan{batch: b, fromLayer: -1}
		// This batch's stamp in s.seen. Stamps wrap only after 2^31-1
		// batches; the table is cleared then (and on a new session's
		// first batch, where it is already zero).
		mark := int32(s.batchIdx%math.MaxInt32) + 1
		if mark == 1 {
			clear(s.seen)
		}
		lo := len(misses)
		for _, q := range b.Queries {
			switch {
			// A repeat within the batch is answered by the row its first
			// occurrence gathers, without asking the cache.
			case s.seen[q.Vertex] == mark || s.cache.Lookup(q.Vertex, s.batchIdx, cfg.Staleness):
				bp.hitRows++
				s.hitSeq = append(s.hitSeq, '1')
			default:
				s.seen[q.Vertex] = mark
				misses = append(misses, q.Vertex)
				s.hitSeq = append(s.hitSeq, '0')
			}
		}
		if hi := len(misses); hi > lo {
			bp.missVerts = misses[lo:hi:hi]
			if !warm {
				bp.fromLayer = 0
			}
			for l := 1; l <= len(cfg.LayerStaleness) && bp.fromLayer < 0; l++ {
				if bound := cfg.LayerStaleness[l-1]; bound > 0 && s.batchIdx-lastRefresh[l] >= bound {
					bp.fromLayer = l
				}
			}
			if bp.fromLayer >= 0 {
				warm = true
				for l := max(bp.fromLayer, 1); l <= L; l++ {
					lastRefresh[l] = s.batchIdx
				}
			}
			for _, v := range bp.missVerts {
				s.cache.Insert(v, s.batchIdx)
			}
		}
		s.hits += bp.hitRows
		s.misses += len(bp.missVerts)
		s.batchIdx++
	}
	return plans
}

// predictBatch adds one microbatch's closed-form price to the
// session's predicted ledger. owned is scratch with one entry per rank.
func (s *Session) predictBatch(bp *batchPlan, secs []secSums, fL int, owned []int64) {
	p := len(owned)
	cfg := s.cfg
	var refresh plan.Traffic
	var refreshTime float64
	if bp.fromLayer >= 0 {
		refresh, refreshTime = refreshSums(secs, bp.fromLayer, bp.fromLayer == 0)
	}
	var gatherBytes int64
	var gatherTier [topo.NumTiers]int64
	var gatherTime float64
	if len(bp.missVerts) > 0 {
		clear(owned)
		for _, v := range bp.missVerts {
			owned[dist.PartOf(s.prob.N(), p, int(v))]++
		}
		gatherBytes, gatherTier, gatherTime = costmodel.PredictGather(cfg.HW, cfg.Topology, p, 0, fL, owned)
	}
	s.predicted.Add(refresh)
	s.predicted.Add(plan.Traffic{AllToAll: gatherBytes, Tier: gatherTier})
	s.predTime += costmodel.PredictMicrobatchTime(cfg.HW, refreshTime, gatherTime, bp.hitRows, fL)
}

// Metered and Predicted expose the session's byte ledgers for
// verification (see verify.CheckServeMatchesModel).
func (s *Session) Metered() plan.Traffic   { return s.metered }
func (s *Session) Predicted() plan.Traffic { return s.predicted }

// HitMiss returns the per-query hit/miss sequence in arrival order
// ('1' hit, '0' miss) — the determinism witness.
func (s *Session) HitMiss() string { return string(s.hitSeq) }

// Answer returns a copy of the served final-layer embedding of v (nil
// if v was never queried, or names no vertex of the graph).
func (s *Session) Answer(v int32) []float32 {
	if uint(v) >= uint(len(s.row)) || s.row[v] == 0 { // negative ids wrap past the end
		return nil
	}
	i := int(s.row[v]) - 1
	return slices.Clone(s.slab[i*s.width : (i+1)*s.width])
}

// reserveRows gives every vertex the plans will gather for the first
// time its row of the store, in gather order, and grows the slab once
// to exactly the rows it then holds.
func (s *Session) reserveRows(plans []batchPlan) {
	for i := range plans {
		for _, v := range plans[i].missVerts {
			if s.row[v] == 0 {
				s.rows++
				s.row[v] = int32(s.rows)
			}
		}
	}
	if n := s.rows * s.width; n > len(s.slab) {
		slab := make([]float32, n)
		copy(slab, s.slab)
		s.slab = slab
	}
}

// storeRow returns v's row of the store for overwriting; reserveRows
// gave it one before the plans ran.
func (s *Session) storeRow(v int32) []float32 {
	i := int(s.row[v]) - 1
	if i < 0 {
		panic(fmt.Sprintf("serve: vertex %d gathered without a reserved store row", v))
	}
	return s.slab[i*s.width : (i+1)*s.width]
}
