package fabric

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/xgft"
)

func tracedFabric(t testing.TB, tr *trace.Tracer) *Fabric {
	t.Helper()
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 8})
	reg := obs.NewRegistry()
	jnl := obs.NewJournal(64, nil)
	f, err := New(Config{
		Topo: tp, Algo: core.NewDModK(tp),
		Telemetry: true, Metrics: reg, Journal: jnl, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestTracedResolveBatchPackedZeroAllocs pins the acceptance bar:
// with tracing compiled in — tracer attached, flight recorder live —
// a packed batch on a fully observed fabric still allocates nothing,
// whether the trace is sampled or not.
func TestTracedResolveBatchPackedZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		num, den uint64
	}{
		{"sampling off", 0, 1},
		{"sampling on", 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.New(trace.Config{SampleNum: tc.num, SampleDen: tc.den, RecorderCap: 64})
			f := tracedFabric(t, tr)
			n := f.Topology().Leaves()
			pairs := make([][2]int, 1024)
			out := make([]uint64, len(pairs))
			h := uint64(1)
			for i := range pairs {
				h = hashutil.Splitmix64(h)
				pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
			}
			f.ResolveBatchPacked(pairs, out) // warmup: intern span names
			if avg := testing.AllocsPerRun(100, func() {
				f.ResolveBatchPacked(pairs, out)
			}); avg != 0 {
				t.Fatalf("traced ResolveBatchPacked allocates %v per batch, want 0", avg)
			}
			root := tr.Root(1, 1)
			if avg := testing.AllocsPerRun(100, func() {
				f.ResolveBatchPackedTraced(root, pairs, out)
			}); avg != 0 {
				t.Fatalf("ResolveBatchPackedTraced allocates %v per batch, want 0", avg)
			}
		})
	}
}

// TestBatchSpanJoinsCallerTrace: a batch resolved under a caller's
// context lands in the flight recorder inside the caller's trace,
// annotated with the batch shape.
func TestBatchSpanJoinsCallerTrace(t *testing.T) {
	tr := trace.New(trace.Config{SampleNum: 1, SampleDen: 1, RecorderCap: 16})
	f := tracedFabric(t, tr)
	root := tr.Root(7, 9)
	pairs := [][2]int{{0, 9}, {1, 10}, {2, 2}}
	out := make([]uint64, len(pairs))
	resolved, gen := f.ResolveBatchPackedTraced(root, pairs, out)

	var rec trace.SpanRecord
	found := false
	for _, r := range tr.Spans(0) {
		if r.Name == "fabric.resolve_batch_packed" {
			rec, found = r, true
		}
	}
	if !found {
		t.Fatalf("no batch span recorded; spans: %+v", tr.Spans(0))
	}
	if rec.TraceID != root.Trace.String() {
		t.Errorf("span trace %s, want caller trace %s", rec.TraceID, root.Trace.String())
	}
	if !rec.Sampled {
		t.Error("span did not inherit the caller's sampling verdict")
	}
	if rec.Attrs["pairs"] != int64(len(pairs)) || rec.Attrs["resolved"] != int64(resolved) || rec.Attrs["gen"] != int64(gen) {
		t.Errorf("span attrs = %v (resolved %d gen %d)", rec.Attrs, resolved, gen)
	}

	// The plain entry point mints its own root: recorded, different
	// trace.
	f.ResolveBatchPacked(pairs, out)
	last := tr.Spans(1)[0]
	if last.Name != "fabric.resolve_batch_packed" {
		t.Fatalf("plain batch span missing: %+v", last)
	}
	if last.TraceID == rec.TraceID {
		t.Error("plain batch joined the caller's trace instead of minting a root")
	}
}

// TestOptimizeSpansAndFlipFlopAnomaly drives the optimize outcome
// through swap → hold → swap (via Heal discarding the optimized
// table): two outcome flips inside the detector window, which must
// report the flipflop anomaly. The pass spans carry the decision.
func TestOptimizeSpansAndFlipFlopAnomaly(t *testing.T) {
	var mu sync.Mutex
	var reasons []string
	tr := trace.New(trace.Config{
		SampleNum: 1, SampleDen: 1, RecorderCap: 128, AnomalyCooldown: -1,
		OnAnomaly: func(a trace.Anomaly) {
			mu.Lock()
			reasons = append(reasons, a.Reason)
			mu.Unlock()
		},
	})
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 4})
	reg := obs.NewRegistry()
	f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: true, Metrics: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	adv := adversarialPattern(tp)

	// Pass 1: the adversarial funnel makes a candidate win — swap.
	drive(t, f, adv)
	res, err := f.Optimize(OptimizeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped {
		t.Fatalf("pass 1 did not swap: %+v", res)
	}
	// Pass 2: same traffic, serving table already best — hold.
	res, err = f.Optimize(OptimizeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Swapped {
		t.Fatalf("pass 2 re-swapped: %+v", res)
	}
	if got := len(reasons); got != 0 {
		t.Fatalf("anomaly after one flip: %v", reasons)
	}
	// Heal discards the optimized table; pass 3 swaps again — the
	// second flip inside the window.
	if _, err := f.Heal(); err != nil {
		t.Fatal(err)
	}
	res, err = f.Optimize(OptimizeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped {
		t.Fatalf("pass 3 did not swap: %+v", res)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reasons) != 1 || reasons[0] != trace.ReasonFlipFlop {
		t.Fatalf("anomalies = %v, want one %q", reasons, trace.ReasonFlipFlop)
	}

	// The pass spans recorded the decisions: three fabric.optimize
	// spans, the candidate children under the sampled ones, and one
	// Colored build — passes 2 and 3 see the same traffic and hit the
	// memo.
	var passes, cands, colored int
	for _, r := range tr.Spans(0) {
		switch r.Name {
		case "fabric.optimize":
			passes++
			if _, ok := r.Attrs["swapped"]; !ok {
				t.Errorf("optimize span lacks the swapped attr: %+v", r)
			}
		case "fabric.optimize.candidate":
			cands++
			if _, ok := r.Attrs["slowdown_ppm"]; !ok {
				t.Errorf("candidate span lacks slowdown_ppm: %+v", r)
			}
		case "fabric.optimize.colored":
			colored++
			if r.Attrs["pairs"] <= 0 {
				t.Errorf("colored span lacks a positive pairs attr: %+v", r)
			}
		}
	}
	if passes != 3 {
		t.Errorf("recorded %d optimize spans, want 3", passes)
	}
	if cands != 12 { // 4 candidates per pass
		t.Errorf("recorded %d candidate spans, want 12", cands)
	}
	if colored != 1 {
		t.Errorf("recorded %d colored spans, want 1", colored)
	}

	// The span names the fabric exports cover everything recorded.
	names := map[string]bool{}
	for _, n := range SpanNames() {
		names[n] = true
	}
	for _, n := range tr.Names() {
		if !names[n] {
			t.Errorf("span %q recorded but missing from SpanNames()", n)
		}
	}
}

// TestTracedChurnRace is the tracing layer under the race detector:
// traced batches against live Optimize swaps, flight-recorder scrapes
// and anomaly-triggered blackbox dumps, all concurrent.
func TestTracedChurnRace(t *testing.T) {
	dir := t.TempDir()
	bb := &trace.Blackbox{Dir: dir}
	tr := trace.New(trace.Config{
		SampleNum: 1, SampleDen: 2, RecorderCap: 128,
		Budget: time.Hour, AnomalyCooldown: time.Millisecond,
		OnAnomaly: func(a trace.Anomaly) { bb.Dump(a.Reason) },
	})
	bb.Tracer = tr
	f := tracedFabric(t, tr)
	n := f.Topology().Leaves()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pairs := make([][2]int, 256)
			out := make([]uint64, len(pairs))
			h := uint64(w + 1)
			for i := range pairs {
				h = hashutil.Splitmix64(h)
				pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
			}
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f.ResolveBatchPackedTraced(tr.Root(uint64(w), i), pairs, out)
				f.ResolveBatchPacked(pairs, out)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f.Optimize(OptimizeConfig{Threshold: 0.01})
			f.Heal()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range tr.Spans(32) {
				if r.Name == "" {
					t.Error("scraped a span with no name")
					return
				}
			}
			bb.Dump("scrape")
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if tr.SpanCount() == 0 {
		t.Fatal("no spans recorded under churn")
	}
	names, err := bb.List()
	if err != nil || len(names) == 0 {
		t.Fatalf("no blackbox bundles spooled: %v, %v", names, err)
	}
}
