package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/experiments"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// paperParallelism is the sweep worker count: one per core of the
// two-core machines the benchmark targets. Each iteration regenerates
// the analytic figures analyticReps times, each from a cold cache.
const (
	paperParallelism = 2
	analyticReps     = 3
)

// simSlice is the simulated Fig. 2 slice: one Random seed at the
// paper's message sizes, W2 in {16, 8}, both apps — 16 cells. Other
// workloads run the reduced slice (WRF only, W2 = 16: 4 cells).
var (
	simW2Full    = []int{16, 8}
	simW2Reduced = []int{16}
)

// paperRun accumulates every paper iteration of a phase.
type paperRun struct {
	analyticS, simS []float64
	checked, failed int64
	cells           int64
	cellsS          float64 // wall time of the analytic sweeps the cells ran in
	eval            *timedEval
	mismatches      []string
	record          map[string]json.RawMessage // set when writing golden values
}

// timedEval wraps the analytic evaluator a sweep would default to
// (evaluate.NewAnalytic over the sweep's cache), adding up the time
// spent scoring across all workers and the number of calls.
type timedEval struct {
	inner evaluate.Evaluator
	busy  atomic.Int64
	calls atomic.Int64
}

func (t *timedEval) Name() string { return t.inner.Name() }

func (t *timedEval) Score(tp *xgft.Topology, algo core.Algorithm, phases []*pattern.Pattern) (evaluate.Result, error) {
	start := time.Now()
	r, err := t.inner.Score(tp, algo, phases)
	t.busy.Add(int64(time.Since(start)))
	t.calls.Add(1)
	return r, err
}

func (t *timedEval) ScoreRoutes(tp *xgft.Topology, p *pattern.Pattern, routes []xgft.Route) (evaluate.Result, error) {
	start := time.Now()
	r, err := t.inner.ScoreRoutes(tp, p, routes)
	t.busy.Add(int64(time.Since(start)))
	t.calls.Add(1)
	return r, err
}

// paperIteration regenerates the analytic figures from cold table
// caches, then the simulated slice (full or reduced) from another
// cold cache, checking every row against the golden values. The
// traced run's evaluator and cell counts describe the last analytic
// regeneration.
func paperIteration(full bool, golden map[string]json.RawMessage, run *paperRun, rec *spanRecorder, parent uint64) error {
	apps := []struct {
		app      *experiments.App
		fig2, f5 string
	}{
		{experiments.WRFApp(), "fig2a", "fig5a"},
		{experiments.CGApp(), "fig2b", "fig5b"},
	}
	traced := rec != nil
	for i := 0; i < analyticReps; i++ {
		cache := core.NewTableCache(64)
		opt := experiments.Options{Cache: cache, Parallelism: paperParallelism}
		if traced {
			run.eval = &timedEval{inner: evaluate.NewAnalytic(cache)}
			opt.Evaluator = run.eval
			opt.Progress = func(done, total int) {
				if done == total {
					run.cells += int64(total)
				}
			}
		}
		sp := rec.begin("experiments.analytic", parent)
		start := time.Now()
		for _, a := range apps {
			s := rec.begin("experiments.figure2", sp.id)
			rows2, err := experiments.Figure2(a.app, opt)
			s.end()
			if err != nil {
				return err
			}
			s = rec.begin("experiments.figure5", sp.id)
			rows5, err := experiments.Figure5(a.app, opt)
			s.end()
			if err != nil {
				return err
			}
			run.check(golden, a.fig2, rows2)
			run.check(golden, a.f5, rows5)
		}
		elapsed := time.Since(start).Seconds()
		sp.end()
		run.analyticS = append(run.analyticS, elapsed)
		if traced {
			run.cellsS += elapsed
		}
	}

	w2s, simApps := simW2Full, apps
	if !full {
		w2s, simApps = simW2Reduced, apps[:1]
	}
	simOpt := experiments.Options{Engine: experiments.Simulated, Seeds: 1, W2Values: w2s,
		Parallelism: paperParallelism, Cache: core.NewTableCache(64)}
	sp := rec.begin("experiments.simulated", parent)
	start := time.Now()
	for _, a := range simApps {
		rows, err := experiments.Figure2(a.app, simOpt)
		if err != nil {
			sp.end()
			return err
		}
		key := "sim_" + a.fig2
		if !full {
			key += "_reduced"
		}
		run.check(golden, key, rows)
	}
	run.simS = append(run.simS, time.Since(start).Seconds())
	sp.end()
	return nil
}

// check compares rows, serialized as JSON (shortest exact float
// form), with the golden entry; any difference is a failed output.
func (r *paperRun) check(golden map[string]json.RawMessage, key string, rows any) {
	r.checked++
	got, err := json.Marshal(rows)
	if r.record != nil && err == nil {
		r.record[key] = got
		return
	}
	want, ok := golden[key]
	if err != nil || !ok || !bytes.Equal(got, compactJSON(want)) {
		r.failed++
		r.mismatches = append(r.mismatches, fmt.Sprintf("paper %s: rows differ from golden", key))
	}
}

func compactJSON(raw json.RawMessage) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return raw
	}
	return b.Bytes()
}
