package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/evaluate"
	"repro/internal/experiments"
	"repro/internal/pattern"
	"repro/internal/venus"
	"repro/internal/xgft"
)

// Layer probes run after the timed phases of a traced run. Each one
// calls a single layer directly on inputs the phases produced, so an
// end-to-end number has a decomposition next to it. They are labelled
// probe.* in the output and never feed an end-to-end metric.

// optimizeProbe decomposes one dense-epoch pass: the Colored build
// for the observed snapshot, its table build, a LoadState seeded with
// the serving d-mod-k routes, the route delta to the Colored routes,
// and a full contention census of the Colored routes.
type optimizeProbe struct {
	coloredMS, tableMS, loadStateMS, deltaMS, contentionMS float64
}

func runOptimizeProbe(snap *pattern.Pattern, rec *spanRecorder) (optimizeProbe, error) {
	var p optimizeProbe
	tp, err := xgft.Parse(controlSpec)
	if err != nil {
		return p, err
	}
	sp := rec.begin("probe.optimize", 0)
	defer sp.end()

	start := time.Now()
	colored := core.NewColored(tp, []*pattern.Pattern{snap}, core.ColoredConfig{})
	p.coloredMS = msSince(start)

	start = time.Now()
	tbl, err := core.NewTableCache(0).Build(tp, colored, snap)
	p.tableMS = msSince(start)
	if err != nil {
		return p, err
	}

	dmodk := core.NewDModK(tp)
	oldRoutes := make([]xgft.Route, len(snap.Flows))
	for i, f := range snap.Flows {
		oldRoutes[i] = dmodk.Route(f.Src, f.Dst)
	}
	start = time.Now()
	ls, err := evaluate.NewLoadState(tp, snap, oldRoutes)
	p.loadStateMS = msSince(start)
	if err != nil {
		return p, err
	}

	start = time.Now()
	err = ls.ApplyRouteDelta(snap.Flows, oldRoutes, tbl.Routes)
	p.deltaMS = msSince(start)
	if err != nil {
		return p, err
	}

	start = time.Now()
	_, err = contention.Analyze(tp, snap, tbl.Routes)
	p.contentionMS = msSince(start)
	return p, err
}

// simProbe times, per app trace of the simulated slice, one replay on
// the W2 = 16 network under d-mod-k and one on the crossbar, and
// scores the app's phases with the venus evaluator to read how many
// events the simulator processed and how many allocations each cost.
type simProbe struct {
	replayNetS, replayXbarS float64
	events                  uint64
	eventsS                 float64
	mallocs                 uint64
}

func runSimProbe(rec *spanRecorder) (simProbe, error) {
	var p simProbe
	tp, err := xgft.NewSlimmedTree(16, 16, simW2Full[0])
	if err != nil {
		return p, err
	}
	algo := core.NewDModK(tp)
	cfg := dimemas.Config{Net: venus.DefaultConfig()}
	sp := rec.begin("probe.sim", 0)
	defer sp.end()
	for _, app := range []*experiments.App{experiments.WRFApp(), experiments.CGApp()} {
		tr, err := app.Trace(0)
		if err != nil {
			return p, err
		}
		s := rec.begin("probe.dimemas.replay", sp.id)
		start := time.Now()
		_, err = dimemas.Replay(tr, tp, algo, cfg)
		p.replayNetS += time.Since(start).Seconds()
		s.end()
		if err != nil {
			return p, err
		}
		s = rec.begin("probe.dimemas.crossbar", sp.id)
		start = time.Now()
		_, err = dimemas.ReplayOnCrossbar(tr, cfg)
		p.replayXbarS += time.Since(start).Seconds()
		s.end()
		if err != nil {
			return p, err
		}

		ev := evaluate.NewVenus(core.NewTableCache(8), venus.DefaultConfig())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s = rec.begin("probe.venus.score", sp.id)
		start = time.Now()
		res, err := ev.Score(tp, algo, app.Phases(0))
		p.eventsS += time.Since(start).Seconds()
		s.end()
		runtime.ReadMemStats(&after)
		if err != nil {
			return p, err
		}
		if res.Cost.SimEvents == 0 {
			return p, fmt.Errorf("probe: venus scored %s without simulating any event", app.Name)
		}
		p.events += res.Cost.SimEvents
		p.mallocs += after.Mallocs - before.Mallocs
	}
	return p, nil
}
