package main

import (
	"io"
	"log/slog"

	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/xgft"
)

// daemon is a fabric manager assembled the way cmd/fabricd assembles
// one: a shared table cache, the analytic evaluator behind a
// memoizing CachedEvaluator, one metrics registry, one event journal
// and one tracer at the default 0/1 sampling, a telemetry-enabled
// fabric and the scheduler that owns its pool. The cache is created
// here so the benchmark can read its hit and memo counters.
type daemon struct {
	f     *fabric.Fabric
	s     *sched.Scheduler
	reg   *obs.Registry
	tr    *trace.Tracer
	cache *core.TableCache
}

// buildDaemon mirrors fabricd's build for the given topology, scheme
// and placement policy. The journal's logger formats every event as
// fabricd's does, but into io.Discard, so the benchmark keeps the
// cost without flooding its own output.
func buildDaemon(spec, algoName, policyName string) (*daemon, error) {
	tp, err := xgft.Parse(spec)
	if err != nil {
		return nil, err
	}
	algo, err := core.NewByName(algoName, tp, 1, nil)
	if err != nil {
		return nil, err
	}
	policy, err := sched.PolicyByName(policyName)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	jnl := obs.NewJournal(1024, slog.New(slog.NewTextHandler(io.Discard, nil)))
	cache := core.NewTableCache(16)
	backend, err := evaluate.New(evaluate.Analytic, evaluate.Options{Cache: cache})
	if err != nil {
		return nil, err
	}
	cached := evaluate.NewCached(backend, 256)
	cached.Instrument(reg)
	tr := trace.New(trace.Config{SampleNum: 0, SampleDen: 1, Metrics: reg})
	cached.Trace(tr)
	f, err := fabric.New(fabric.Config{
		Topo:      tp,
		Algo:      algo,
		Cache:     cache,
		Telemetry: true,
		Evaluator: cached,
		Metrics:   reg,
		Journal:   jnl,
		Tracer:    tr,
	})
	if err != nil {
		return nil, err
	}
	s, err := sched.New(sched.Config{Fabric: f, Policy: policy, Seed: 1, Metrics: reg, Journal: jnl, Tracer: tr})
	if err != nil {
		return nil, err
	}
	return &daemon{f: f, s: s, reg: reg, tr: tr, cache: cache}, nil
}
