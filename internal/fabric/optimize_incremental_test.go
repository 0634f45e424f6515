package fabric

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/trace"
	"repro/internal/xgft"
)

// churnPattern is a mixed observed load: an adversarial funnel plus
// keyed-random flows, the shape a telemetry snapshot has mid-churn.
func churnPattern(tp *xgft.Topology, flows int, key uint64) *pattern.Pattern {
	n := tp.Leaves()
	p := adversarialPattern(tp)
	for i := 0; i < flows; i++ {
		s := int(hashutil.Mix(key, 1, uint64(i)) % uint64(n))
		d := int(hashutil.Mix(key, 2, uint64(i)) % uint64(n))
		if s == d {
			continue
		}
		p.Add(s, d, int64(hashutil.Mix(key, 3, uint64(i))%4096)+1)
	}
	return p
}

func feedTelemetry(t *testing.T, f *Fabric, p *pattern.Pattern) {
	t.Helper()
	tel := f.Telemetry()
	for _, fl := range p.Flows {
		tel.RecordN(fl.Src, fl.Dst, uint64(fl.Bytes))
	}
}

// fullRepack is the reference install: core.PatchTable the winning
// table through the fault view and pack every row from scratch.
func fullRepack(t *testing.T, f *Fabric, tbl *core.Table, view *xgft.View) ([][]uint64, core.PatchStats) {
	t.Helper()
	patched, st, err := core.PatchTable(tbl, view)
	if err != nil {
		t.Fatal(err)
	}
	n := f.topo.Leaves()
	rows := make([][]uint64, n)
	for s := range rows {
		rows[s] = make([]uint64, n)
	}
	for i, fl := range f.pairs.Flows {
		r := patched.Routes[i]
		if r.Up == nil {
			rows[fl.Src][fl.Dst] = PackedUnreachable
			continue
		}
		rows[fl.Src][fl.Dst] = packRoute(r)
	}
	return rows, st
}

// TestOptimizeIncrementalMatchesFull is the install oracle: the
// generation an Optimize swap installs copy-on-write must serve
// exactly the routes a full repack of core.PatchTable(best, view)
// would, and every row with no changed route must share storage with
// the predecessor generation — healthy and under a failed link.
func TestOptimizeIncrementalMatchesFull(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		tp := xgft.MustNew(2, []int{8, 8}, []int{1, 4})
		f := telemetryFabric(t, tp, core.NewDModK(tp))
		if faulted {
			if _, err := f.FailLink(1, 2, 1); err != nil {
				t.Fatal(err)
			}
		}
		feedTelemetry(t, f, churnPattern(tp, 50, 0xc0ffee))
		obs := f.tel.SnapshotFlows()
		prev := f.Generation()
		const seed = 3
		res, err := f.Optimize(OptimizeConfig{Reset: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Swapped {
			t.Fatalf("faulted=%v: the adversarial pattern did not swap d-mod-k out: %+v", faulted, res)
		}
		var best *core.Table
		for _, cand := range f.candidates(trace.SpanContext{}, obs, seed) {
			if cand.Name() == res.Best {
				if best, err = f.cache.Build(tp, cand, f.pairs); err != nil {
					t.Fatal(err)
				}
			}
		}
		if best == nil {
			t.Fatalf("faulted=%v: winner %q is not a candidate", faulted, res.Best)
		}
		gen := f.Generation()
		want, st := fullRepack(t, f, best, prev.view)
		if gen.stats.Routes != len(f.pairs.Flows)-st.Unreachable || gen.stats.Patched != st.Rerouted || gen.stats.Unreachable != st.Unreachable {
			t.Errorf("faulted=%v: stats %+v disagree with the reference patch %+v", faulted, gen.stats, st)
		}
		changed, shared := 0, 0
		for s := range want {
			rowChanged := false
			for d := range want[s] {
				if s == d {
					continue
				}
				if gen.shards[s][d] != want[s][d] {
					t.Fatalf("faulted=%v: pair (%d,%d) packs %#x, reference %#x", faulted, s, d, gen.shards[s][d], want[s][d])
				}
				if want[s][d] != prev.shards[s][d] {
					rowChanged = true
					changed++
				}
			}
			if same := isSameRow(gen.shards[s], prev.shards[s]); same == rowChanged {
				t.Errorf("faulted=%v: row %d changed=%v but shares storage=%v", faulted, s, rowChanged, same)
			} else if same {
				shared++
			}
		}
		if res.SwapTouched != changed {
			t.Errorf("faulted=%v: SwapTouched = %d, reference changed %d routes", faulted, res.SwapTouched, changed)
		}
		if changed == 0 {
			t.Errorf("faulted=%v: swap changed no route", faulted)
		}
		t.Logf("faulted=%v: %s installed, %d routes changed, %d of %d rows shared", faulted, res.Best, changed, shared, len(want))
	}
}

// TestGenFromTableDeltaSharesUntouchedRows pins the copy-on-write
// install's memory discipline: installing a table that changes a handful of
// routes clones only the rows those routes live in — every other row
// is the same array as the predecessor generation's, exactly like
// FailLink's patch. (A real optimize winner may legitimately differ
// on every row, so this is tested against a crafted near-identical
// table.)
func TestGenFromTableDeltaSharesUntouchedRows(t *testing.T) {
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 4})
	f := telemetryFabric(t, tp, core.NewDModK(tp))
	cur := f.Generation()
	tbl, err := core.BuildTable(tp, core.NewDModK(tp), f.pairs)
	if err != nil {
		t.Fatal(err)
	}
	// Move three routes of source 0 and one of source 5 to a
	// different root: four touched routes across two rows.
	next := &core.Table{Topo: tbl.Topo, Algo: tbl.Algo, Routes: append([]xgft.Route(nil), tbl.Routes...)}
	perSrc := map[int]int{0: 3, 5: 1} // rows to touch and how many routes in each
	moved := 0
	for i, r := range next.Routes {
		if perSrc[r.Src] == 0 || len(r.Up) < 2 {
			continue
		}
		nr := xgft.Route{Src: r.Src, Dst: r.Dst, Up: append([]int(nil), r.Up...)}
		nr.Up[1] = (nr.Up[1] + 1) % tp.W(1)
		next.Routes[i] = nr
		perSrc[r.Src]--
		moved++
	}
	if moved != 4 {
		t.Fatalf("crafted table moved %d routes, want 4", moved)
	}
	gen, touched, err := f.genFromTable(next, cur.view, cur, "crafted")
	if err != nil {
		t.Fatal(err)
	}
	if touched != 4 {
		t.Errorf("delta pack touched %d routes, want 4", touched)
	}
	shared, cloned := 0, 0
	for s := range gen.shards {
		if isSameRow(gen.shards[s], cur.shards[s]) {
			shared++
		} else {
			cloned++
		}
	}
	if cloned != 2 {
		t.Errorf("%d rows cloned, want exactly the 2 touched sources", cloned)
	}
	if shared != tp.Leaves()-2 {
		t.Errorf("%d rows shared, want %d", shared, tp.Leaves()-2)
	}
	// The packed generation resolves the moved routes, not the old ones.
	for i, r := range next.Routes {
		got, ok := gen.Resolve(r.Src, r.Dst)
		if !ok || packRoute(got) != packRoute(r) {
			t.Fatalf("pair (%d,%d) resolves %v/%v, want %v (route %d)", r.Src, r.Dst, got, ok, r, i)
		}
	}
}

// TestOptimizeIncrementalRace runs optimize passes (installing
// copy-on-write generations that share rows with the one readers are
// on) and fault churn while readers hammer ResolveBatch — a swap must
// never perturb what concurrent readers observe. Run with -race.
func TestOptimizeIncrementalRace(t *testing.T) {
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 4})
	f := telemetryFabric(t, tp, core.NewDModK(tp))
	n := tp.Leaves()
	obs := churnPattern(tp, 100, 0xace)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := uint64(g + 1)
			pairs := make([][2]int, 64)
			out := make([]xgft.Route, len(pairs))
			for !stop.Load() {
				for i := range pairs {
					h = hashutil.Splitmix64(h)
					pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
				}
				f.ResolveBatch(pairs, out)
				for i, r := range out {
					if pairs[i][0] == pairs[i][1] || r.Up == nil {
						continue
					}
					if err := r.Validate(tp); err != nil {
						select {
						case errs <- err:
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	for round := 0; round < 3 && len(errs) == 0; round++ {
		feedTelemetry(t, f, obs)
		if _, err := f.Optimize(OptimizeConfig{Reset: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.FailLink(1, 1, round%4); err != nil {
			t.Fatal(err)
		}
		feedTelemetry(t, f, obs)
		if _, err := f.Optimize(OptimizeConfig{Reset: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Heal(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestOptimizeIncrementalSpeedup: scoring a churn-scale route delta
// (every 64th route of an all-to-all on XGFT(2;16,16;1,10) moved)
// against a materialized evaluate.LoadState must be at least 5x
// faster than a from-scratch SlowdownRoutes over the same routes,
// with a bit-identical score. It lives outside package evaluate so
// that coverage runs, which instrument only the package under test,
// time LoadState uninstrumented.
func TestOptimizeIncrementalSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison, skipped in -short")
	}
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 10})
	n := tp.Leaves()
	obs := pattern.AllToAll(n, 64)
	tbl, err := core.BuildTable(tp, core.NewDModK(tp), obs)
	if err != nil {
		t.Fatal(err)
	}
	routes := tbl.Routes
	ls, err := evaluate.NewLoadState(tp, obs, routes)
	if err != nil {
		t.Fatal(err)
	}

	// The candidate moves every 64th route to a different up-port.
	var flows []pattern.Flow
	var oldR, newR []xgft.Route
	candRoutes := append([]xgft.Route(nil), routes...)
	for i := 0; i < len(routes); i += 64 {
		r := routes[i]
		if len(r.Up) < 2 {
			continue
		}
		nr := xgft.Route{Src: r.Src, Dst: r.Dst, Up: append([]int(nil), r.Up...)}
		nr.Up[1] = (nr.Up[1] + 1) % tp.W(1)
		candRoutes[i] = nr
		flows = append(flows, obs.Flows[i])
		oldR = append(oldR, r)
		newR = append(newR, nr)
	}

	wantScore, err := contention.SlowdownRoutes(tp, obs, candRoutes)
	if err != nil {
		t.Fatal(err)
	}
	incremental := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ls.ApplyRouteDelta(flows, oldR, newR); err != nil {
				b.Fatal(err)
			}
			if got := ls.Slowdown(); got != wantScore {
				b.Fatalf("incremental score %v, want %v", got, wantScore)
			}
			if err := ls.ApplyRouteDelta(flows, newR, oldR); err != nil {
				b.Fatal(err)
			}
		}
	})
	fromScratch := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got, err := contention.SlowdownRoutes(tp, obs, candRoutes)
			if err != nil {
				b.Fatal(err)
			}
			if got != wantScore {
				b.Fatalf("full score %v, want %v", got, wantScore)
			}
		}
	})
	incNS := float64(incremental.T.Nanoseconds()) / float64(incremental.N)
	fullNS := float64(fromScratch.T.Nanoseconds()) / float64(fromScratch.N)
	ratio := fullNS / incNS
	t.Logf("candidate scoring: incremental %.0f ns, from-scratch %.0f ns, speedup %.1fx", incNS, fullNS, ratio)
	if ratio < 5 {
		t.Errorf("incremental scoring only %.1fx faster than SlowdownRoutes, want >= 5x", ratio)
	}
}
