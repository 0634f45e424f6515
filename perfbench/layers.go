package main

import (
	"fmt"
	"sort"
	"time"
)

// layerMetrics names every per-layer metric of a traced run with its
// unit, in report order. BENCHMARK.json's per_layer list must match
// it (layers_test.go checks).
var layerMetrics = []struct{ name, unit string }{
	{"wire.decode_ns.large", "ns"}, {"wire.decode_ns.small", "ns"},
	{"wire.encode_ns.large", "ns"}, {"wire.encode_ns.small", "ns"},
	{"wire.server_ns.large", "ns"}, {"wire.server_ns.small", "ns"},
	{"wire.queue_net_us.large", "us"}, {"wire.queue_net_us.small", "us"},
	{"fabric.resolve_ns_per_pair", "ns"}, {"fabric.bare_ns_per_pair", "ns"},
	{"fabric.optimize_ms", "ms"}, {"fabric.candidates_incremental_ratio", "ratio"},
	{"fabric.links_touched", "count"}, {"fabric.swaps", "count"}, {"fabric.swap_touched_routes", "count"},
	{"core.table_cache_hit_ratio", "ratio"}, {"core.memo_misses", "count"},
	{"sched.submit_ms", "ms"}, {"sched.release_ms", "ms"}, {"sched.placements", "count"}, {"sched.rejections", "count"},
	{"fabric.fail_link_ms", "ms"}, {"fabric.heal_ms", "ms"}, {"fabric.routes_patched", "count"},
	{"go.serve.gc_cycles", "count"}, {"go.serve.gc_pause_ms", "ms"}, {"go.serve.mallocs", "count"},
	{"go.control.gc_cycles", "count"}, {"go.control.gc_pause_ms", "ms"}, {"go.control.mallocs", "count"},
	{"go.paper.gc_cycles", "count"}, {"go.paper.gc_pause_ms", "ms"}, {"go.paper.mallocs", "count"},
	{"experiments.cells_per_s", "1/s"}, {"evaluate.score_busy_s", "s"}, {"evaluate.score_calls", "count"},
	{"dimemas.replay_net_s", "s"}, {"dimemas.replay_crossbar_s", "s"},
	{"venus.events_per_s", "1/s"}, {"venus.mallocs_per_event", "count"},
	{"probe.colored_ms", "ms"}, {"probe.table_build_ms", "ms"}, {"probe.loadstate_ms", "ms"},
	{"probe.route_delta_ms", "ms"}, {"probe.contention_ms", "ms"},
	{"reader.gen_late_p50_us", "us"}, {"reader.gen_late_tail_us", "us"},
	{"trace.overhead_pct", "%"}, {"trace.spans", "count"},
}

// perLayer runs the layer probes and computes every per-layer metric
// of a traced run. Counts from the control stream are per rep: the
// stream is deterministic, so they repeat exactly.
func perLayer(cfg config, m *measurements, untraced []*measurements, rec *spanRecorder) (map[string]metric, error) {
	if m.control.snapshot == nil {
		return nil, fmt.Errorf("control: no dense-epoch snapshot for the optimize probe")
	}
	op, err := runOptimizeProbe(m.control.snapshot, rec)
	if err != nil {
		return nil, err
	}
	sim, err := runSimProbe(rec)
	if err != nil {
		return nil, err
	}
	s, c, p := m.serve, m.control, m.paper
	reps := float64(c.reps)
	passes := append(append([]float64(nil), c.optimizeMS...), c.reoptMS...)
	late := append([]float64(nil), c.reader.late...)
	sort.Float64s(late)
	v := map[string]float64{
		"wire.decode_ns.large":                median(s.large.decodeNS),
		"wire.decode_ns.small":                median(s.small.decodeNS),
		"wire.encode_ns.large":                median(s.large.encodeNS),
		"wire.encode_ns.small":                median(s.small.encodeNS),
		"wire.server_ns.large":                median(s.large.serverNS),
		"wire.server_ns.small":                median(s.small.serverNS),
		"wire.queue_net_us.large":             median(s.large.queueNetUS),
		"wire.queue_net_us.small":             median(s.small.queueNetUS),
		"fabric.resolve_ns_per_pair":          s.resolveNSPP,
		"fabric.bare_ns_per_pair":             s.bareNSPP,
		"fabric.optimize_ms":                  mean(passes),
		"fabric.candidates_incremental_ratio": float64(c.incremental) / float64(c.candidates),
		"fabric.links_touched":                float64(c.linksTouched) / reps,
		"fabric.swaps":                        float64(c.swaps) / reps,
		"fabric.swap_touched_routes":          float64(c.swapTouched) / reps,
		"core.table_cache_hit_ratio":          float64(c.tableHits) / float64(c.tableHits+c.tableMisses),
		"core.memo_misses":                    float64(c.memoMisses),
		"sched.submit_ms":                     mean(c.submitMS),
		"sched.release_ms":                    mean(c.releaseMS),
		"sched.placements":                    float64(c.placements) / reps,
		"sched.rejections":                    float64(c.rejections) / reps,
		"fabric.fail_link_ms":                 mean(c.failMS),
		"fabric.heal_ms":                      mean(c.healMS),
		"fabric.routes_patched":               float64(c.patched) / reps,
		"experiments.cells_per_s":             float64(p.cells) / p.cellsS,
		"evaluate.score_busy_s":               float64(p.eval.busy.Load()) / 1e9,
		"evaluate.score_calls":                float64(p.eval.calls.Load()),
		"dimemas.replay_net_s":                sim.replayNetS,
		"dimemas.replay_crossbar_s":           sim.replayXbarS,
		"venus.events_per_s":                  float64(sim.events) / sim.eventsS,
		"venus.mallocs_per_event":             float64(sim.mallocs) / float64(sim.events),
		"probe.colored_ms":                    op.coloredMS,
		"probe.table_build_ms":                op.tableMS,
		"probe.loadstate_ms":                  op.loadStateMS,
		"probe.route_delta_ms":                op.deltaMS,
		"probe.contention_ms":                 op.contentionMS,
		"reader.gen_late_p50_us":              percentile(late, 50),
		"reader.gen_late_tail_us":             tailOf(late).Value,
		"trace.overhead_pct":                  overheadPct(cfg.workload, m, untraced),
		"trace.spans":                         float64(rec.count()),
	}
	for _, ph := range []string{"serve", "control", "paper"} {
		g := m.gc[ph]
		v["go."+ph+".gc_cycles"] = float64(g.cycles)
		v["go."+ph+".gc_pause_ms"] = g.pauseMS
		v["go."+ph+".mallocs"] = float64(g.mallocs)
	}
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		val, ok := v[lm.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not computed", lm.name)
		}
		out[lm.name] = metric{Value: val, Unit: lm.unit}
	}
	return out, nil
}

// overheadPct is the tracing overhead on the workload's headline
// metric: how much worse the traced pass read than the untraced
// reference passes of the same phase together, in percent.
func overheadPct(workload string, traced *measurements, untraced []*measurements) float64 {
	var pairs int64
	var elapsed time.Duration
	var optimizeMS, analyticS []float64
	for _, u := range untraced {
		switch workload {
		case "serve":
			pairs += u.serve.large.resolved + u.serve.small.resolved
			elapsed += u.serve.elapsed
		case "control":
			optimizeMS = append(optimizeMS, u.control.optimizeMS...)
		default:
			analyticS = append(analyticS, u.paper.analyticS...)
		}
	}
	switch workload {
	case "serve":
		return 100 * (float64(pairs)/elapsed.Seconds()/traced.serve.rate() - 1)
	case "control":
		return 100 * (median(traced.control.optimizeMS)/median(optimizeMS) - 1)
	default:
		return 100 * (median(traced.paper.analyticS)/median(analyticS) - 1)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
