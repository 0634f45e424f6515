package fabric

import (
	"fmt"
	"time"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/trace"
	"repro/internal/xgft"
)

// The re-optimization loop: the paper's central observation is that
// no single oblivious scheme wins across traffic patterns — the best
// table depends on the pattern being run. A static fabric serves one
// scheme forever; Optimize instead snapshots the telemetry counters,
// scores the current generation against candidate tables (the
// oblivious baselines plus the pattern-aware Colored optimizer seeded
// with the observed pattern), and hot-swaps a better table in, the
// way robust-clustering estimators re-fit as the observed data
// distribution shifts.
//
// Every scored table — the serving generation and each candidate —
// goes through one path: resolve the observed flows through the
// table's route function (candidates patched through the current
// fault view), then score them with one evaluator pass. The winning
// table installs through the same copy-on-write discipline FailLink
// uses: rows whose packed routes are unchanged are shared with the
// serving generation, only touched rows repack.

// OptimizeConfig parameterizes one re-optimization pass.
type OptimizeConfig struct {
	// Threshold is the minimum relative improvement of the best
	// candidate over the current generation required to swap: 0.05
	// demands 5% lower analytic slowdown. 0 swaps on any strict
	// improvement.
	Threshold float64
	// MinFlows is the minimum number of distinct observed pairs below
	// which the pass is a no-op (not enough signal). Defaults to 1.
	MinFlows int
	// Seed feeds the randomized candidates (r-NCA-u/d) and the
	// Colored sampler. Defaults to 1, so passes are reproducible.
	Seed uint64
	// Reset zeroes the telemetry counters after the snapshot, making
	// each pass observe only the traffic since the previous one.
	Reset bool
}

func (c OptimizeConfig) withDefaults() OptimizeConfig {
	if c.MinFlows <= 0 {
		c.MinFlows = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// CandidateScore is one candidate table's slowdown (under the
// fabric's evaluator) on the observed pattern.
type CandidateScore struct {
	Algo     string
	Slowdown float64
	// Deprecated: always false; Optimize has one scoring path.
	Incremental bool
}

// OptimizeResult describes one re-optimization pass.
type OptimizeResult struct {
	// Pairs and Resolves describe the observed pattern: distinct
	// (src, dst) pairs and total recorded resolves.
	Pairs    int
	Resolves int64
	// Current is the serving generation's slowdown on the observed
	// pattern under the fabric's evaluator (1 exactly when the
	// pattern is contention-free under the current table).
	Current float64
	// Candidates lists every scored candidate in scoring order.
	Candidates []CandidateScore
	// Best names the best-scoring candidate; BestSlowdown its score.
	Best         string
	BestSlowdown float64
	// Deprecated: always 0; Optimize has one scoring path.
	LinksTouched uint64
	// SwapTouched counts the packed routes the installed generation
	// changed relative to its predecessor (0 when no swap happened).
	SwapTouched int
	// Swapped reports whether a new generation was installed; Stats
	// describes the generation serving after the pass either way.
	Swapped bool
	Stats   Stats
}

// allPairsIndex returns the index of pair (s, d) in the all-pairs
// probe pattern (s-major, self-pairs skipped) that fabric tables are
// aligned with.
func allPairsIndex(n, s, d int) int {
	i := s*(n-1) + d
	if d > s {
		i--
	}
	return i
}

// Optimize runs one telemetry-driven re-optimization pass: snapshot
// the flow counters, score the current generation and the candidate
// schemes (d-mod-k, r-NCA-u/d, and Colored seeded with the observed
// pattern — all served through the table cache) on the observed
// pattern with the fabric's evaluator (analytic slowdown bound by
// default, any evaluate.Evaluator by injection), and hot-swap the
// best candidate in if it improves on the serving table by more than
// the threshold.
//
// The pass composes with fault handling: candidates are patched
// through the current generation's degraded view before scoring and
// installation, so an optimize swap never resurrects a failed wire,
// and the pass serializes with FailLink/FailSwitch/Heal on the
// fabric's mutex while readers stay lock-free on the old generation.
// Heal still rebuilds the configured scheme's healthy table,
// discarding any optimized choice along with the faults.
func (f *Fabric) Optimize(cfg OptimizeConfig) (res OptimizeResult, err error) {
	if f.tel == nil {
		return OptimizeResult{}, fmt.Errorf("fabric: telemetry is disabled (enable Config.Telemetry)")
	}
	cfg = cfg.withDefaults()
	start := time.Now() //lint:allow nondeterminism optimizer wall time is observational (journal only)
	// The decision event records what the pass saw and what it decided
	// — every candidate's score, the winner, and the threshold verdict
	// — or the failure that aborted it. It lands after the swap event
	// publish fires, so a journal tail reads swap-then-why.
	defer func() { f.journalOptimize(res, err, cfg.Threshold, time.Since(start)) }() //lint:allow nondeterminism optimizer wall time is observational (journal only)
	// The pass span wraps scoring and the swap decision; a decision
	// outcome that flip-flops (swap, no-swap, swap again within the
	// detector window) is the instability anomaly the blackbox captures.
	sp := f.tracer.StartSpan(trace.SpanContext{}, spanOptimize)
	defer func() {
		sp.SetAttr(attrCandidates, int64(len(res.Candidates)))
		swapped := int64(0)
		if res.Swapped {
			swapped = 1
		}
		sp.SetAttr(attrSwapped, swapped)
		sp.End()
		if err == nil && f.tracer != nil && f.flips.Note(res.Swapped) {
			f.tracer.ReportAnomaly(trace.ReasonFlipFlop)
		}
	}()
	f.mu.Lock()
	defer f.mu.Unlock()

	obs := f.tel.SnapshotFlows()
	if cfg.Reset {
		f.tel.Reset()
	}
	cur := f.gen.Load()
	res = OptimizeResult{
		Pairs:    len(obs.Flows),
		Resolves: obs.TotalBytes(),
		Stats:    cur.stats,
	}
	if len(obs.Flows) < cfg.MinFlows {
		return res, nil
	}
	view := cur.view

	// Pairs whose minimal paths are all severed drop out of the scored
	// pattern; every candidate is patched through the same view with
	// the same reroute search as the serving generation, so the
	// surviving flow set — and with it the comparison — is identical
	// across candidates.
	if res.Current, err = f.score(obs, cur.Resolve); err != nil {
		return res, err
	}
	n := f.topo.Leaves()
	var bestTbl *core.Table
	for _, cand := range f.candidates(sp.Context(), obs, cfg.Seed) {
		cs := f.tracer.StartChild(sp.Context(), spanCandidate)
		tbl, err := f.cache.Build(f.topo, cand, f.pairs)
		if err != nil {
			cs.End()
			return res, fmt.Errorf("fabric: candidate %s: %w", cand.Name(), err)
		}
		slowdown, err := f.score(obs, func(s, d int) (xgft.Route, bool) {
			return core.RerouteAvoiding(view, tbl.Routes[allPairsIndex(n, s, d)])
		})
		if err != nil {
			cs.End()
			return res, fmt.Errorf("fabric: candidate %s: %w", cand.Name(), err)
		}
		cs.SetAttr(attrSlowdownPPM, int64(slowdown*1e6))
		cs.End()
		res.Candidates = append(res.Candidates, CandidateScore{Algo: cand.Name(), Slowdown: slowdown})
		if bestTbl == nil || slowdown < res.BestSlowdown {
			bestTbl = tbl
			res.Best, res.BestSlowdown = cand.Name(), slowdown
		}
	}
	// Swap only on strict improvement beyond the threshold. Identical
	// tables score bit-identically, so a generation already serving
	// the best candidate never churns.
	if bestTbl == nil || res.Current-res.BestSlowdown <= cfg.Threshold*res.Current {
		return res, nil
	}
	gen, touched, err := f.genFromTable(bestTbl, view, cur, res.Best)
	if err != nil {
		return res, err
	}
	f.publish(gen, "optimize")
	res.Swapped = true
	res.SwapTouched = touched
	res.Stats = gen.stats
	return res, nil
}

// score resolves the observed flows through route and scores them
// with the fabric's evaluator, dropping pairs with no route from both
// the pattern and the normalization.
func (f *Fabric) score(obs *pattern.Pattern, route func(s, d int) (xgft.Route, bool)) (float64, error) {
	q := pattern.New(obs.N)
	routes := make([]xgft.Route, 0, len(obs.Flows))
	for _, fl := range obs.Flows {
		r, ok := route(fl.Src, fl.Dst)
		if !ok {
			continue
		}
		q.Add(fl.Src, fl.Dst, fl.Bytes)
		routes = append(routes, r)
	}
	res, err := f.eval.ScoreRoutes(f.topo, q, routes)
	if err != nil {
		return 0, err
	}
	return res.Slowdown, nil
}

// journalOptimize records one pass's decision event ("optimize", or
// "optimize.error" for aborted passes) with per-candidate scores and
// the threshold verdict.
func (f *Fabric) journalOptimize(res OptimizeResult, err error, threshold float64, dur time.Duration) {
	if f.journal == nil {
		return
	}
	if err != nil {
		f.journal.Record(eventOptimizeError, dur, map[string]any{"error": err.Error()})
		return
	}
	cands := make([]map[string]any, len(res.Candidates))
	for i, c := range res.Candidates {
		cands[i] = map[string]any{"algo": c.Algo, "slowdown": c.Slowdown}
	}
	f.journal.Record(eventOptimize, dur, map[string]any{
		"pairs": res.Pairs, "resolves": res.Resolves,
		"current": res.Current, "candidates": cands,
		"best": res.Best, "best_slowdown": res.BestSlowdown,
		"threshold": threshold, "swapped": res.Swapped,
		"generation": res.Stats.Seq,
	})
}

// candidates enumerates the candidate schemes for an observed
// pattern, in scoring order. The Colored optimizer is memoized
// through the table cache (keyed by topology, pattern content and
// seed), so repeated passes over an unchanged pattern reuse it; a
// miss builds it under a fabric.optimize.colored child of parent.
func (f *Fabric) candidates(parent trace.SpanContext, obs *pattern.Pattern, seed uint64) []core.Algorithm {
	coloredKey := fmt.Sprintf("colored|%s|%d:%#x:%#x|%#x",
		f.topo, len(obs.Flows), obs.TotalBytes(), obs.Fingerprint(), seed)
	return []core.Algorithm{
		core.NewDModK(f.topo),
		core.NewRandomNCAUp(f.topo, seed),
		core.NewRandomNCADown(f.topo, seed),
		f.cache.MemoAlgorithm(coloredKey, func() core.Algorithm {
			cs := f.tracer.StartChild(parent, spanColored)
			defer cs.End()
			cs.SetAttr(attrPairs, int64(len(obs.Flows)))
			return core.NewColored(f.topo, []*pattern.Pattern{obs}, core.ColoredConfig{Seed: seed})
		}),
	}
}

// genFromTable packs the winning table against the serving
// generation the way FailLink's patch does: rows whose packed routes
// are unchanged are shared with cur, and a row is cloned
// copy-on-write the first time one of its routes differs. The route
// set still flows through core.PatchTable (the same repair machinery)
// and the full VerifyDeadlockFree gate; only the packing is
// differential. Pairs with no surviving minimal path pack to the
// unreachable sentinel, and a table failing VerifyDeadlockFree is
// refused. Returns the number of packed routes that changed.
func (f *Fabric) genFromTable(tbl *core.Table, view *xgft.View, cur *Generation, algoName string) (*Generation, int, error) {
	start := time.Now() //lint:allow nondeterminism candidate build time is observational (journal/metrics only)
	patched, st, err := core.PatchTable(tbl, view)
	if err != nil {
		return nil, 0, err
	}
	n := f.topo.Leaves()
	shards := make([][]uint64, n)
	copy(shards, cur.shards)
	touched := 0
	for i, fl := range f.pairs.Flows {
		r := patched.Routes[i]
		v := PackedUnreachable
		if r.Up != nil {
			v = packRoute(r)
		}
		if shards[fl.Src][fl.Dst] == v {
			continue
		}
		if isSameRow(shards[fl.Src], cur.shards[fl.Src]) {
			shards[fl.Src] = append([]uint64(nil), cur.shards[fl.Src]...)
		}
		shards[fl.Src][fl.Dst] = v
		touched++
	}
	gen := &Generation{
		topo:   f.topo,
		view:   view,
		shards: shards,
		stats: Stats{
			Seq:            cur.stats.Seq + 1,
			Algo:           algoName,
			Routes:         len(f.pairs.Flows) - st.Unreachable,
			Patched:        st.Rerouted,
			Unreachable:    st.Unreachable,
			FailedWires:    view.FailedWires(),
			FailedSwitches: len(view.FailedSwitches()),
		},
	}
	if err := contention.VerifyDeadlockFree(f.topo, gen.Routes()); err != nil {
		return nil, 0, fmt.Errorf("fabric: candidate table rejected: %w", err)
	}
	gen.stats.BuildTime = time.Since(start) //lint:allow nondeterminism candidate build time is observational (journal/metrics only)
	return gen, touched, nil
}

// isSameRow reports whether two row slices are the same array (the
// copy-on-write "not yet cloned" test).
func isSameRow(a, b []uint64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
