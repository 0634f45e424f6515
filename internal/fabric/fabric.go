// Package fabric is the subnet-manager subsystem: it compiles a
// routing scheme into an all-pairs route store and serves it to
// concurrent Resolve queries while handling fabric degradation. The
// store is immutable per generation and reached through one atomic
// pointer, so resolution is lock-free; FailLink/FailSwitch derive a
// degraded topology view, incrementally recompute only the routes
// whose paths traverse the failed element, certify the patched table
// deadlock-free, and hot-swap the generation pointer. The paper's
// routes were "supplied, along with the topology and mapping, to the
// Venus simulator" by exactly this offline role.
package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/trace"
	"repro/internal/xgft"
)

// maxHeight bounds fabrics to topologies whose routes pack into one
// word (a byte per level, plus the NCA level in the top byte so the
// resolve path never recomputes it); realistic fat trees are h <= 6.
const maxHeight = 7

// Config parameterizes a fabric.
type Config struct {
	// Topo is the healthy topology. Required; Height must be <= 7 and
	// every W(l) <= 255 (the packed-route limits).
	Topo *xgft.Topology
	// Algo computes the healthy routes. Required. Schemes
	// implementing core.CacheKeyer are served from the table cache.
	Algo core.Algorithm
	// Cache serves full (healthy) table builds; nil creates a private
	// cache. Sharing one cache across fabrics and experiment sweeps
	// deduplicates identical builds, including concurrent ones
	// (singleflight coalescing in core.TableCache).
	Cache *core.TableCache
	// Telemetry enables per-pair flow counters on the resolve path
	// (an uncontended atomic add per successful resolve) and with
	// them the Optimize re-optimization loop. Disabled fabrics reject
	// Optimize.
	Telemetry bool
	// Evaluator scores the current generation and the candidate
	// tables during Optimize passes. nil selects the analytic
	// congestion bound over the fabric's table cache (the default the
	// whole system steers by); inject a different backend — the
	// grouped-contention metric, the venus simulation, or a cached or
	// test double — to change what "better table" means.
	Evaluator evaluate.Evaluator
	// Metrics registers the fabric's instruments (resolve counters,
	// batch latency histograms, the generation gauge) in the given
	// registry. nil disables metric recording: the hot paths pay one
	// nil check and nothing else.
	Metrics *obs.Registry
	// Journal receives the fabric's control-plane events — every
	// generation swap with its reason and build stats, rejected fault
	// operations, and Optimize decisions with per-candidate scores.
	// nil disables event recording.
	Journal *obs.Journal
	// Tracer records spans: one per packed batch resolve (joining the
	// caller's trace when handed a context, locally rooted otherwise)
	// and one per Optimize pass with per-candidate children. An
	// Optimize outcome flip-flopping within a few passes reports a
	// flipflop anomaly through the tracer. nil disables spans.
	Tracer *trace.Tracer
}

// Fabric serves routing decisions for one topology under one scheme,
// surviving link and switch failures by generation swaps. All methods
// are safe for concurrent use: Resolve/ResolveBatch are lock-free
// reads of the current generation; fault and heal operations
// serialize on an internal mutex and never block readers.
type Fabric struct {
	topo  *xgft.Topology
	algo  core.Algorithm
	cache *core.TableCache
	eval  evaluate.Evaluator
	pairs *pattern.Pattern // all-pairs probe pattern, shard fill order
	tel   *Telemetry       // nil when telemetry is disabled

	m        *fabricMetrics      // nil when metrics are disabled
	journal  *obs.Journal        // nil when event recording is disabled
	tracer   *trace.Tracer       // nil when span recording is disabled
	flips    *trace.FlipDetector // optimize-outcome flip-flop watch
	served   atomic.Uint64       // resolves served by the current generation (metrics only)
	lastSwap atomic.Int64        // unixnano of the last generation publish

	mu  sync.Mutex // serializes generation changes
	gen atomic.Pointer[Generation]
}

// fabricMetrics is the fabric's instrument set; one per fabric, named
// once at construction so the hot paths never touch the registry.
type fabricMetrics struct {
	resolves   *obs.Counter   // routes served, sharded by source leaf
	unresolved *obs.Counter   // lookups that found no route
	batches    *obs.Counter   // ResolveBatch/ResolveBatchPacked calls
	batchNS    *obs.Histogram // ResolveBatch call latency
	packedNS   *obs.Histogram // ResolveBatchPacked call latency
	generation *obs.Gauge     // serving generation sequence
	swaps      *obs.Counter   // generation hot-swaps installed
}

// Metric and journal-event names. Constants — not literals at the
// call sites — so repolint's obskeys pass keeps the README inventory
// tied to the code.
const (
	metricResolves     = "fabric_resolves_total"
	metricUnresolved   = "fabric_unresolved_total"
	metricBatches      = "fabric_resolve_batches_total"
	metricBatchNS      = "fabric_resolve_batch_ns"
	metricPackedNS     = "fabric_resolve_batch_packed_ns"
	metricGeneration   = "fabric_generation"
	metricSwaps        = "fabric_generation_swaps_total"
	metricRoutesServed = "fabric_routes_served"

	eventGenerationSwap = "generation.swap"
	eventOptimize       = "optimize"
	eventOptimizeError  = "optimize.error"
)

// Span names the fabric records (constants for repolint's obskeys
// pass), and the attribute keys they carry.
const (
	spanBatchPacked = "fabric.resolve_batch_packed"
	spanOptimize    = "fabric.optimize"
	spanCandidate   = "fabric.optimize.candidate"
	spanColored     = "fabric.optimize.colored"

	attrPairs       = "pairs"
	attrResolved    = "resolved"
	attrGen         = "gen"
	attrSwapped     = "swapped"
	attrCandidates  = "candidates"
	attrSlowdownPPM = "slowdown_ppm"
)

// SpanNames lists every span name this package records, for the
// documentation drift test.
func SpanNames() []string {
	return []string{spanBatchPacked, spanOptimize, spanCandidate, spanColored}
}

func newFabricMetrics(reg *obs.Registry) *fabricMetrics {
	return &fabricMetrics{
		resolves:   reg.Counter(metricResolves, "routes served by Resolve and the batch paths", 8),
		unresolved: reg.Counter(metricUnresolved, "lookups that found no installed route", 1),
		batches:    reg.Counter(metricBatches, "batch resolve calls (plain and packed)", 1),
		batchNS:    reg.Histogram(metricBatchNS, "ResolveBatch whole-batch latency"),
		packedNS:   reg.Histogram(metricPackedNS, "ResolveBatchPacked whole-batch latency"),
		generation: reg.Gauge(metricGeneration, "serving generation sequence number"),
		swaps:      reg.Counter(metricSwaps, "generation hot-swaps installed after the initial build", 1),
	}
}

// New builds a fabric and compiles its initial healthy generation
// (generation 0) synchronously, so a returned fabric always resolves.
func New(cfg Config) (*Fabric, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("fabric: Config.Topo is required")
	}
	if cfg.Algo == nil {
		return nil, fmt.Errorf("fabric: Config.Algo is required")
	}
	if cfg.Topo.Height() > maxHeight {
		return nil, fmt.Errorf("fabric: height %d exceeds the packed-route limit %d", cfg.Topo.Height(), maxHeight)
	}
	for l := 0; l < cfg.Topo.Height(); l++ {
		if cfg.Topo.W(l) > 255 {
			return nil, fmt.Errorf("fabric: W(%d)=%d exceeds the packed-route limit 255", l, cfg.Topo.W(l))
		}
	}
	cache := cfg.Cache
	if cache == nil {
		cache = core.NewTableCache(8)
	}
	eval := cfg.Evaluator
	if eval == nil {
		eval = evaluate.NewAnalytic(cache)
	}
	f := &Fabric{
		topo:  cfg.Topo,
		algo:  cfg.Algo,
		cache: cache,
		eval:  eval,
		pairs: pattern.AllToAll(cfg.Topo.Leaves(), 1),
	}
	if cfg.Telemetry {
		f.tel = newTelemetry(cfg.Topo.Leaves())
	}
	if cfg.Metrics != nil {
		f.m = newFabricMetrics(cfg.Metrics)
		// Sampled at scrape time: resolves served by the generation
		// currently installed (reset on every swap).
		cfg.Metrics.GaugeFunc(metricRoutesServed, "resolves served by the current generation",
			func() float64 { return float64(f.served.Load()) })
	}
	f.journal = cfg.Journal
	f.tracer = cfg.Tracer
	f.flips = trace.NewFlipDetector(0)
	gen, err := f.buildHealthy(0)
	if err != nil {
		return nil, err
	}
	f.publish(gen, "initial")
	return f, nil
}

// publish installs gen as the serving generation, stamps the swap
// time, updates the generation instruments, and journals the swap
// with its reason and build stats. Callers hold f.mu (except New,
// where the fabric is not yet shared).
func (f *Fabric) publish(gen *Generation, reason string) {
	f.gen.Store(gen)
	f.lastSwap.Store(time.Now().UnixNano()) //lint:allow nondeterminism swap wall-clock timestamp is observational (surfaced in status, not results)
	servedPrev := f.served.Swap(0)
	if f.m != nil {
		f.m.generation.Set(float64(gen.stats.Seq))
		if gen.stats.Seq > 0 {
			f.m.swaps.Inc()
		}
	}
	if f.journal != nil {
		st := gen.stats
		f.journal.Record(eventGenerationSwap, st.BuildTime, map[string]any{
			"reason": reason, "seq": st.Seq, "algo": st.Algo,
			"routes": st.Routes, "patched": st.Patched,
			"unreachable": st.Unreachable, "failed_wires": st.FailedWires,
			"failed_switches": st.FailedSwitches, "cache_hit": st.CacheHit,
			"served_prev": servedPrev,
		})
	}
}

// LastSwap returns the wall-clock time the serving generation was
// published — the readiness probe's "generation age" anchor.
func (f *Fabric) LastSwap() time.Time { return time.Unix(0, f.lastSwap.Load()) }

// Topology returns the healthy topology the fabric serves.
func (f *Fabric) Topology() *xgft.Topology { return f.topo }

// Generation returns the current (immutable) generation.
func (f *Fabric) Generation() *Generation { return f.gen.Load() }

// Stats returns the current generation's statistics.
func (f *Fabric) Stats() Stats { return f.gen.Load().Stats() }

// Telemetry returns the fabric's flow counters, nil when disabled.
func (f *Fabric) Telemetry() *Telemetry { return f.tel }

// Evaluator returns the scoring backend Optimize passes use (the
// analytic default when none was injected).
func (f *Fabric) Evaluator() evaluate.Evaluator { return f.eval }

// SnapshotFlows lowers the observed traffic into a pattern; it
// returns nil when telemetry is disabled.
func (f *Fabric) SnapshotFlows() *pattern.Pattern {
	if f.tel == nil {
		return nil
	}
	return f.tel.SnapshotFlows()
}

// Resolve returns the installed route from src to dst in the current
// generation; ok is false for out-of-range or unreachable pairs.
// With telemetry enabled, every successful non-self resolve bumps the
// pair's flow counter (one uncontended atomic add — the path stays
// lock-free).
//
//repro:hotpath
func (f *Fabric) Resolve(src, dst int) (xgft.Route, bool) {
	r, ok := f.gen.Load().Resolve(src, dst)
	if f.tel != nil && ok && src != dst {
		f.tel.record(src, dst)
	}
	if f.m != nil {
		if ok {
			f.m.resolves.AddAt(uint64(src), 1)
			f.served.Add(1)
		} else {
			f.m.unresolved.Add(1)
		}
	}
	return r, ok
}

// ResolveBatch resolves pairs[i] into out[i] against one consistent
// generation and returns how many resolved. out must be at least as
// long as pairs. Telemetry counts every resolved non-self pair.
//
//repro:hotpath
func (f *Fabric) ResolveBatch(pairs [][2]int, out []xgft.Route) int {
	var start time.Time
	if f.m != nil {
		start = time.Now() //lint:allow nondeterminism batch latency measurement is observational
	}
	resolved := f.gen.Load().ResolveBatch(pairs, out)
	if f.tel != nil {
		for i, p := range pairs {
			// Resolved non-self pairs are exactly those with a
			// non-empty ascent (unresolved slots are zeroed).
			if p[0] != p[1] && out[i].Up != nil {
				f.tel.record(p[0], p[1])
			}
		}
	}
	if f.m != nil {
		f.recordBatch(f.m.batchNS, pairs, resolved, start)
	}
	return resolved
}

// recordBatch is the shared batch-path instrumentation: one histogram
// observation and a handful of counter adds per batch, amortized over
// every pair in it — no allocation, no locks.
//
//repro:hotpath
func (f *Fabric) recordBatch(hist *obs.Histogram, pairs [][2]int, resolved int, start time.Time) {
	shard := uint64(0)
	if len(pairs) > 0 {
		shard = uint64(pairs[0][0])
	}
	f.m.batches.Inc()
	f.m.resolves.AddAt(shard, uint64(resolved))
	if miss := len(pairs) - resolved; miss > 0 {
		f.m.unresolved.Add(uint64(miss))
	}
	f.served.Add(uint64(resolved))
	hist.Observe(time.Since(start).Nanoseconds()) //lint:allow nondeterminism batch latency measurement is observational
}

// ResolveBatchPacked resolves pairs[i] into out[i] as packed words
// against one consistent generation, returning how many resolved and
// that generation's sequence number (so a server can tag the batch
// with the epoch it was served from). out must be at least as long as
// pairs. This is the wire-speed hot path: zero allocations, and with
// telemetry enabled every resolved non-self pair still counts (one
// uncontended atomic add each).
//
//repro:hotpath
func (f *Fabric) ResolveBatchPacked(pairs [][2]int, out []uint64) (resolved int, generation uint64) {
	return f.ResolveBatchPackedTraced(trace.SpanContext{}, pairs, out)
}

// ResolveBatchPackedTraced is ResolveBatchPacked joining the caller's
// trace: the batch span becomes a child of parent (inheriting its
// sampling verdict) instead of a locally minted root. The wire server
// calls this so one trace id ties the client span, the wire.request
// span and the fabric batch span together. An invalid (zero) parent
// degrades to exactly ResolveBatchPacked.
//
//repro:hotpath
func (f *Fabric) ResolveBatchPackedTraced(parent trace.SpanContext, pairs [][2]int, out []uint64) (resolved int, generation uint64) {
	sp := f.tracer.StartSpan(parent, spanBatchPacked)
	var start time.Time
	if f.m != nil {
		start = time.Now() //lint:allow nondeterminism batch latency measurement is observational
	}
	gen := f.gen.Load()
	resolved = gen.ResolveBatchPacked(pairs, out)
	if f.tel != nil {
		for i, p := range pairs {
			// Resolved non-self pairs are exactly those whose packed
			// word is a real route (out-of-range slots are marked
			// PackedUnreachable by ResolveBatchPacked).
			if p[0] != p[1] && out[i] != PackedUnreachable {
				f.tel.record(p[0], p[1])
			}
		}
	}
	if f.m != nil {
		f.recordBatch(f.m.packedNS, pairs, resolved, start)
	}
	sp.SetAttr(attrPairs, int64(len(pairs)))
	sp.SetAttr(attrResolved, int64(resolved))
	sp.SetAttr(attrGen, int64(gen.stats.Seq))
	sp.End()
	return resolved, gen.stats.Seq
}

// buildHealthy compiles a full healthy generation through the table
// cache. CacheHit is exact for a private cache and best-effort for a
// shared one (it compares hit counters around the build).
func (f *Fabric) buildHealthy(seq uint64) (*Generation, error) {
	start := time.Now() //lint:allow nondeterminism generation build time is observational (journal/metrics only)
	h0, _ := f.cache.Stats()
	tbl, err := f.cache.Build(f.topo, f.algo, f.pairs)
	if err != nil {
		return nil, err
	}
	h1, _ := f.cache.Stats()
	if err := contention.VerifyDeadlockFree(f.topo, tbl.Routes); err != nil {
		return nil, fmt.Errorf("fabric: healthy table rejected: %w", err)
	}
	n := f.topo.Leaves()
	shards := make([][]uint64, n)
	for s := range shards {
		shards[s] = make([]uint64, n)
	}
	for i, fl := range f.pairs.Flows {
		shards[fl.Src][fl.Dst] = packRoute(tbl.Routes[i])
	}
	return &Generation{
		topo:   f.topo,
		view:   xgft.NewView(f.topo),
		shards: shards,
		stats: Stats{
			Seq:       seq,
			Algo:      f.algo.Name(),
			Routes:    len(f.pairs.Flows),
			CacheHit:  h1 > h0,
			BuildTime: time.Since(start), //lint:allow nondeterminism generation build time is observational (journal/metrics only)
		},
	}, nil
}

// FailLink fails the wire leaving switch (level, index) through
// up-port p (and its paired down channel), patches the affected
// routes, verifies the result deadlock-free, and swaps in the new
// generation. The returned stats describe the swapped-in generation.
func (f *Fabric) FailLink(level, index, p int) (Stats, error) {
	return f.degrade(func(v *xgft.View) bool { return v.FailLink(level, index, p) },
		"fail.link", fmt.Sprintf("link (%d,%d) port %d", level, index, p))
}

// FailSwitch fails the switch (level, index) with every adjacent
// wire, patches the affected routes, verifies, and swaps.
func (f *Fabric) FailSwitch(level, index int) (Stats, error) {
	return f.degrade(func(v *xgft.View) bool { return v.FailSwitch(level, index) },
		"fail.switch", fmt.Sprintf("switch (%d,%d)", level, index))
}

// degrade applies one fault to a clone of the current view, patches
// incrementally, and publishes the result. Rejected operations (bad
// target, failed verification) are journaled under "<op>.rejected" so
// the event stream explains why no swap happened.
func (f *Fabric) degrade(fail func(*xgft.View) bool, op, what string) (Stats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.gen.Load()
	view := cur.view.Clone()
	if !fail(view) {
		err := fmt.Errorf("fabric: %s is out of range or already failed", what)
		f.reject(op, what, err)
		return cur.stats, err
	}
	gen, err := f.patch(cur, view)
	if err != nil {
		f.reject(op, what, err)
		return cur.stats, err
	}
	f.publish(gen, op)
	return gen.stats, nil
}

// reject journals a refused control-plane operation.
func (f *Fabric) reject(op, what string, err error) {
	if f.journal != nil {
		//lint:allow obskeys event type is the rejected operation name, derived from a caller constant
		f.journal.Record(op+".rejected", 0, map[string]any{"what": what, "error": err.Error()})
	}
}

// patch builds cur's successor under the (strictly larger) fault
// view. Only routes that traverse a newly failed wire are recomputed;
// untouched source shards are shared with cur. The patched route set
// must pass VerifyDeadlockFree or the swap is refused.
func (f *Fabric) patch(cur *Generation, view *xgft.View) (*Generation, error) {
	start := time.Now() //lint:allow nondeterminism patch build time is observational (journal/metrics only)
	n := f.topo.Leaves()
	shards := make([][]uint64, n)
	copy(shards, cur.shards)
	patched, unreachable := 0, 0
	for s := 0; s < n; s++ {
		var row []uint64 // copy-on-write clone of cur.shards[s]
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			packed := cur.shards[s][d]
			if packed == PackedUnreachable {
				unreachable++
				continue
			}
			if packedRouteOK(view, f.topo, s, d, packed) {
				continue
			}
			if row == nil {
				row = append([]uint64(nil), cur.shards[s]...)
				shards[s] = row
			}
			r, _ := cur.Resolve(s, d)
			nr, ok := core.RerouteAvoiding(view, r)
			if !ok {
				row[d] = PackedUnreachable
				unreachable++
				continue
			}
			row[d] = packRoute(nr)
			patched++
		}
	}
	gen := &Generation{
		topo:   f.topo,
		view:   view,
		shards: shards,
		stats: Stats{
			Seq:            cur.stats.Seq + 1,
			Algo:           cur.stats.Algo,
			Routes:         len(f.pairs.Flows) - unreachable,
			Patched:        patched,
			Unreachable:    unreachable,
			FailedWires:    view.FailedWires(),
			FailedSwitches: len(view.FailedSwitches()),
		},
	}
	if err := contention.VerifyDeadlockFree(f.topo, gen.Routes()); err != nil {
		return nil, fmt.Errorf("fabric: patched table rejected, keeping generation %d: %w", cur.stats.Seq, err)
	}
	gen.stats.BuildTime = time.Since(start) //lint:allow nondeterminism patch build time is observational (journal/metrics only)
	return gen, nil
}

// Heal recompiles the healthy table (a cache hit when the scheme is
// memoizable), discarding every recorded fault, and swaps it in as
// the next generation.
func (f *Fabric) Heal() (Stats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.gen.Load()
	gen, err := f.buildHealthy(cur.stats.Seq + 1)
	if err != nil {
		f.reject("heal", "healthy rebuild", err)
		return cur.stats, err
	}
	f.publish(gen, "heal")
	return gen.stats, nil
}
