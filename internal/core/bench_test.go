package core

import (
	"testing"

	"repro/internal/benchcal"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// BenchmarkCalibration is the shared machine-speed reference
// (internal/benchcal): cmd/benchgate divides this package's gated
// benchmarks by its drift ratio so the regression gate tracks code,
// not CI-runner speed.
func BenchmarkCalibration(b *testing.B) { benchcal.Bench(b) }

// BenchmarkNewColored builds Colored for one fresh-traffic snapshot on
// XGFT(2;16,16;1,10): every one of the 65,280 ordered pairs observed
// once with a keyed byte count, the shape of one dense telemetry
// epoch. Allocations per build are O(distinct pairs).
func BenchmarkNewColored(b *testing.B) {
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 10})
	n := tp.Leaves()
	s := hashutil.NewStream(1)
	ph := pattern.New(n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst {
				ph.Add(src, dst, int64(1+s.Intn(32)))
			}
		}
	}
	phases := []*pattern.Pattern{ph}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coloredSink = NewColored(tp, phases, ColoredConfig{})
	}
}

var coloredSink *Colored
