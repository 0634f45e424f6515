package sched_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/xgft"
)

// benchScheduler builds a telemetry-policy scheduler on the
// acceptance topology XGFT(2;16,16;1,10) with a heavy resident tenant
// mix — six all-to-all jobs whose combined flows are the background
// every probe placement must score against.
func benchScheduler(b *testing.B, fullRescore bool) *sched.Scheduler {
	b.Helper()
	tp, err := xgft.NewSlimmedTree(16, 16, 10)
	if err != nil {
		b.Fatal(err)
	}
	f, err := fabric.New(fabric.Config{Topo: tp, Algo: core.NewDModK(tp)})
	if err != nil {
		b.Fatal(err)
	}
	p, err := sched.PolicyByName("telemetry")
	if err != nil {
		b.Fatal(err)
	}
	cfg := sched.Config{Fabric: f, Policy: p}
	if fullRescore {
		cfg.Evaluator = opaque{f.Evaluator()}
	}
	s, err := sched.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		spec := sched.JobSpec{
			Name:   fmt.Sprintf("tenant%d", i),
			N:      16,
			Phases: []*pattern.Pattern{pattern.AllToAll(16, 4096)},
		}
		if _, err := s.Submit(spec); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// benchPlace times one probe placement (submit + release) against the
// resident background: the telemetry policy scores six candidate
// allocations per submission, which is where the delta and
// from-scratch paths part ways.
func benchPlace(b *testing.B, s *sched.Scheduler) {
	b.Helper()
	spec := permSpec("probe", 16, 99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := s.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Release(j.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlaceIncremental prices a telemetry-policy placement on
// the delta path: the background materializes into one LoadState and
// each candidate costs O(job flows).
func BenchmarkPlaceIncremental(b *testing.B) {
	benchPlace(b, benchScheduler(b, false))
}

// BenchmarkPlaceFullRescore is the same placement on the from-scratch
// path (the analytic evaluator behind the opaque wrapper): every
// candidate re-embeds the job into the background and pays a full
// census.
func BenchmarkPlaceFullRescore(b *testing.B) {
	benchPlace(b, benchScheduler(b, true))
}
