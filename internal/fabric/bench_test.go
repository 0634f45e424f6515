package fabric

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/xgft"
)

func benchFabric(b *testing.B) *Fabric { return benchFabricTelemetry(b, false) }

func benchFabricTelemetry(b *testing.B, telemetry bool) *Fabric {
	b.Helper()
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 16})
	f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: telemetry})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkResolve measures single-pair lock-free resolution on a
// cached generation.
func BenchmarkResolve(b *testing.B) {
	f := benchFabric(b)
	n := f.Topology().Leaves()
	h := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h = hashutil.Splitmix64(h)
		s := int(h % uint64(n))
		d := int(h >> 32 % uint64(n))
		if _, ok := f.Resolve(s, d); !ok {
			b.Fatal("resolve failed")
		}
	}
}

// BenchmarkResolveBatch measures bulk resolution throughput; the
// routes/s metric is the fabric's serving-rate headline (target:
// >= 1M routes/s on a cached generation).
func BenchmarkResolveBatch(b *testing.B) {
	f := benchFabric(b)
	n := f.Topology().Leaves()
	const batch = 4096
	pairs := make([][2]int, batch)
	out := make([]xgft.Route, batch)
	h := uint64(1)
	for i := range pairs {
		h = hashutil.Splitmix64(h)
		pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ResolveBatch(pairs, out)
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "routes/s")
}

// BenchmarkResolveBatchPacked measures the wire-speed hot path: bulk
// resolution into packed words (no route materialization, zero
// allocations) — what the binary resolve protocol serves per request.
func BenchmarkResolveBatchPacked(b *testing.B) {
	f := benchFabric(b)
	n := f.Topology().Leaves()
	const batch = 4096
	pairs := make([][2]int, batch)
	out := make([]uint64, batch)
	h := uint64(1)
	for i := range pairs {
		h = hashutil.Splitmix64(h)
		pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ResolveBatchPacked(pairs, out)
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "routes/s")
}

// BenchmarkResolveBatchPackedObserved is the wire-speed hot path with
// full observability enabled — metrics registry, event journal and
// telemetry all attached. The bench gate holds it to the same
// regression budget as the bare path: per-batch instrumentation (two
// timestamps, a histogram observe, sharded counter adds) must stay in
// the noise.
func BenchmarkResolveBatchPackedObserved(b *testing.B) {
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 16})
	reg := obs.NewRegistry()
	f, err := New(Config{
		Topo: tp, Algo: core.NewDModK(tp),
		Telemetry: true, Metrics: reg, Journal: obs.NewJournal(64, nil),
	})
	if err != nil {
		b.Fatal(err)
	}
	n := tp.Leaves()
	const batch = 4096
	pairs := make([][2]int, batch)
	out := make([]uint64, batch)
	h := uint64(1)
	for i := range pairs {
		h = hashutil.Splitmix64(h)
		pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ResolveBatchPacked(pairs, out)
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "routes/s")
}

// BenchmarkResolveBatchPackedTraced is the wire-speed hot path with
// full observability plus a tracer (sampling off — the production
// default): per batch the tracing layer adds one root mint, two clock
// reads and a flight-recorder write. The bench gate holds it to the
// same regression budget as the untraced observed path.
func BenchmarkResolveBatchPackedTraced(b *testing.B) {
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 16})
	reg := obs.NewRegistry()
	tr := trace.New(trace.Config{SampleNum: 0, SampleDen: 1, RecorderCap: 4096})
	f, err := New(Config{
		Topo: tp, Algo: core.NewDModK(tp),
		Telemetry: true, Metrics: reg, Journal: obs.NewJournal(64, nil),
		Tracer: tr,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := tp.Leaves()
	const batch = 4096
	pairs := make([][2]int, batch)
	out := make([]uint64, batch)
	h := uint64(1)
	for i := range pairs {
		h = hashutil.Splitmix64(h)
		pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ResolveBatchPacked(pairs, out)
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "routes/s")
}

// BenchmarkResolveTelemetry is BenchmarkResolve with the flow
// counters enabled: the acceptance bar is < 10% regression (one
// uncontended atomic add per resolve).
func BenchmarkResolveTelemetry(b *testing.B) {
	f := benchFabricTelemetry(b, true)
	n := f.Topology().Leaves()
	h := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h = hashutil.Splitmix64(h)
		s := int(h % uint64(n))
		d := int(h >> 32 % uint64(n))
		if _, ok := f.Resolve(s, d); !ok {
			b.Fatal("resolve failed")
		}
	}
}

// BenchmarkResolveBatchTelemetry is the batch throughput headline
// with telemetry enabled.
func BenchmarkResolveBatchTelemetry(b *testing.B) {
	f := benchFabricTelemetry(b, true)
	n := f.Topology().Leaves()
	const batch = 4096
	pairs := make([][2]int, batch)
	out := make([]xgft.Route, batch)
	h := uint64(1)
	for i := range pairs {
		h = hashutil.Splitmix64(h)
		pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ResolveBatch(pairs, out)
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "routes/s")
}

// optimizeBenchFabric is the acceptance topology XGFT(2;16,16;1,10)
// with all-pairs traffic observed.
func optimizeBenchFabric(b *testing.B) *Fabric {
	b.Helper()
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 10})
	f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: true})
	if err != nil {
		b.Fatal(err)
	}
	tel := f.Telemetry()
	n := tp.Leaves()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				tel.RecordN(s, d, 64)
			}
		}
	}
	// Converge once so the timed passes measure the steady churn
	// regime: serving table == best candidate, no swap per pass.
	if _, err := f.Optimize(OptimizeConfig{}); err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkOptimize measures a steady-state re-optimization pass on
// XGFT(2;16,16;1,10): the serving generation and every candidate
// resolve and score the observed pattern, and nothing swaps.
func BenchmarkOptimize(b *testing.B) {
	f := optimizeBenchFabric(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Optimize(OptimizeConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeFresh measures a pass over fresh traffic, the
// dense-epoch regime of a live fabric: before every pass (timer
// stopped) each ordered pair of XGFT(2;16,16;1,10) is observed with a
// keyed count, so the Colored memo misses and the pass pays the
// Colored build that BenchmarkOptimize's replayed pattern never does.
func BenchmarkOptimizeFresh(b *testing.B) {
	f := optimizeBenchFabric(b)
	tel := f.Telemetry()
	tel.Reset()
	n := f.Topology().Leaves()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := hashutil.NewStream(uint64(i))
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src != dst {
					tel.RecordN(src, dst, uint64(1+s.Intn(32)))
				}
			}
		}
		b.StartTimer()
		if _, err := f.Optimize(OptimizeConfig{Reset: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailLinkSwap measures a full degrade cycle: incremental
// patch, deadlock verification, and generation swap.
func BenchmarkFailLinkSwap(b *testing.B) {
	f := benchFabric(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.FailLink(1, i%16, i/16%16); err != nil {
			b.StopTimer()
			if _, err := f.Heal(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			continue
		}
	}
}

// BenchmarkHeal measures a cache-served full rebuild (the hot-swap
// back to the healthy table).
func BenchmarkHeal(b *testing.B) {
	f := benchFabric(b)
	if _, err := f.FailLink(1, 0, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Heal(); err != nil {
			b.Fatal(err)
		}
	}
}
