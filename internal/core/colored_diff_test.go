package core

import (
	"reflect"
	"testing"

	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// keyedPhases draws nPhases random phases over the topology's leaves
// from a keyed stream. Byte counts come from a small range so the
// heaviest-first order has many ties, pairs repeat within a phase
// (duplicate flows) and self flows appear. Later phases re-draw some
// pairs of earlier ones, so the optimizer must count those pairs as
// fixed load.
func keyedPhases(tp *xgft.Topology, key uint64, nPhases, flows int) []*pattern.Pattern {
	s := hashutil.NewStream(key)
	n := tp.Leaves()
	var phases []*pattern.Pattern
	var prev [][2]int
	for p := 0; p < nPhases; p++ {
		ph := pattern.New(n)
		for i := 0; i < flows; i++ {
			src, dst := s.Intn(n), s.Intn(n)
			switch r := s.Intn(8); {
			case r == 0:
				dst = src
			case r == 1 && len(prev) > 0:
				pr := prev[s.Intn(len(prev))]
				src, dst = pr[0], pr[1]
			}
			ph.Add(src, dst, int64(1+s.Intn(4)))
			prev = append(prev, [2]int{src, dst})
		}
		phases = append(phases, ph)
	}
	return phases
}

// TestColoredMatchesOracle is the differential test of the dense
// optimizer against the map-based one kept in colored_ref_test.go:
// equal routes for every pair, equal cache keys and equal group
// contention per phase, across tree shapes (two and three levels,
// slimmed, w_0 > 1), the sampled-candidate branch, multi-phase inputs
// and duplicate/self flows.
func TestColoredMatchesOracle(t *testing.T) {
	topos := []*xgft.Topology{
		xgft.MustNew(2, []int{16, 16}, []int{1, 10}),
		xgft.MustNew(2, []int{8, 8}, []int{1, 8}),
		xgft.MustNew(2, []int{4, 6}, []int{2, 3}),
		xgft.MustNew(3, []int{4, 4, 4}, []int{1, 4, 2}),
		xgft.MustNew(3, []int{3, 4, 2}, []int{2, 3, 2}),
		xgft.MustNew(1, []int{6}, []int{1}),
	}
	cfgs := []ColoredConfig{
		{},
		{MaxCandidates: 5, Seed: 7},
		{MaxPasses: 1, MaxCandidates: 3},
		{MaxPasses: 2, Seed: 3},
	}
	for ti, tp := range topos {
		name := tp.String()
		for ci, cfg := range cfgs {
			for trial := 0; trial < 3; trial++ {
				key := uint64(ti)<<16 | uint64(ci)<<8 | uint64(trial)
				flows := 2 * tp.Leaves()
				phases := keyedPhases(tp, key, 1+trial, flows)
				got := NewColored(tp, phases, cfg)
				want := refNewColored(tp, phases, cfg)
				if !reflect.DeepEqual(got.routes, want.routes) {
					t.Fatalf("%s cfg %+v trial %d: routes differ from the oracle", name, cfg, trial)
				}
				if got.CacheKey() != want.CacheKey() {
					t.Fatalf("%s cfg %+v trial %d: cache key %q, oracle %q", name, cfg, trial, got.CacheKey(), want.CacheKey())
				}
				for pi, ph := range phases {
					if g, w := got.MaxGroups(ph), want.refMaxGroups(ph); g != w {
						t.Fatalf("%s cfg %+v trial %d phase %d: MaxGroups %d, oracle %d", name, cfg, trial, pi, g, w)
					}
				}
			}
		}
	}
}
