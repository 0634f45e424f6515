package sched_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/evaluate"
	"repro/internal/hashutil"
	"repro/internal/sched"
)

// opaque hides an evaluator's backend name, so the telemetry policy
// cannot treat it as analytic and scores every candidate from
// scratch — the reference the delta path is checked against.
type opaque struct{ evaluate.Evaluator }

func (opaque) Name() string { return "opaque" }

// TestPlaceIncrementalMatchesFullRescore is the scheduler-side
// differential contract: the telemetry policy's delta path (job flows
// applied to a shared background LoadState and reverted) must place
// every job on exactly the leaves the from-scratch path chooses,
// through a churny submit/release sequence that grows, fragments, and
// re-fills the pool. The from-scratch path is reached by hiding the
// analytic evaluator behind the opaque wrapper.
func TestPlaceIncrementalMatchesFullRescore(t *testing.T) {
	run := func(full bool) [][]int {
		f := testFabric(t, 4, false)
		p, err := sched.PolicyByName("telemetry")
		if err != nil {
			t.Fatal(err)
		}
		cfg := sched.Config{Fabric: f, Policy: p}
		if full {
			cfg.Evaluator = opaque{f.Evaluator()}
		}
		s, err := sched.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var placements [][]int
		var live []uint64
		for i := 0; i < 24; i++ {
			n := int(hashutil.Mix(0x91ace, uint64(i))%12) + 2
			job, err := s.Submit(permSpec(fmt.Sprintf("j%d", i), n, uint64(i)+1))
			if errors.Is(err, sched.ErrNoCapacity) {
				placements = append(placements, nil)
			} else if err != nil {
				t.Fatal(err)
			} else {
				placements = append(placements, job.Leaves)
				live = append(live, job.ID)
			}
			// Release the oldest live job on a keyed cadence so later
			// placements score against a fragmented, shifting background.
			if len(live) > 0 && hashutil.Mix(0x91ace, 7, uint64(i))%3 == 0 {
				if err := s.Release(live[0]); err != nil {
					t.Fatal(err)
				}
				live = live[1:]
			}
		}
		return placements
	}
	inc, full := run(false), run(true)
	if !reflect.DeepEqual(inc, full) {
		t.Fatalf("placements diverged:\nincremental: %v\nfull:        %v", inc, full)
	}
}
