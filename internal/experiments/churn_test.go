package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/evaluate"
)

func churnOpts(par int) Options {
	return Options{Seeds: 2, Parallelism: par}
}

// opaque hides an evaluator's backend name, so the scheduler's
// telemetry policy cannot treat it as analytic and scores every
// placement from scratch instead of by LoadState deltas.
type opaque struct{ evaluate.Evaluator }

func (opaque) Name() string { return "opaque" }

// TestChurnSweepModesAgree is the churn sweep's differential oracle:
// the same keyed schedule run through the analytic evaluator (delta
// placement scoring) and through the opaque wrapper (from-scratch
// scoring) must make bit-identical decisions, seed by seed.
func TestChurnSweepModesAgree(t *testing.T) {
	opt := churnOpts(4)
	inc, err := churnSweep(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := churnSweep(opt, func(e evaluate.Evaluator) evaluate.Evaluator { return opaque{e} })
	if err != nil {
		t.Fatal(err)
	}
	// The hash folds every seed's decisions as exact float bits, so
	// this is bit-identity, not approximate agreement.
	if inc.DecisionHash != full.DecisionHash {
		t.Errorf("decision hashes diverged: %#x (analytic) vs %#x (opaque)", inc.DecisionHash, full.DecisionHash)
	}
	if inc.Placed != full.Placed || inc.Rejected != full.Rejected || inc.Flaps != full.Flaps ||
		inc.Optimizes != full.Optimizes || inc.Swaps != full.Swaps || inc.TouchedRoutes != full.TouchedRoutes {
		t.Errorf("deterministic counters diverged:\nanalytic %+v\nopaque   %+v", inc, full)
	}
	if inc.Placed == 0 {
		t.Error("churn schedule placed no jobs")
	}
	if inc.Swaps == 0 {
		t.Error("churn schedule never swapped a generation — the sweep is not exercising re-optimization")
	}
	if inc.TouchedRoutes == 0 {
		t.Error("swaps installed without route deltas")
	}
	if len(inc.SwapNS) != inc.Swaps || len(full.SwapNS) != full.Swaps {
		t.Errorf("swap latency samples %d/%d, want one per swap (%d/%d)",
			len(inc.SwapNS), len(full.SwapNS), inc.Swaps, full.Swaps)
	}
}

// TestChurnSweepParallelismInvariant is the sweep's determinism gate:
// the deterministic output (everything outside bracketed wall-clock
// lines) must be byte-identical between a sequential run and a
// maximally parallel one.
func TestChurnSweepParallelismInvariant(t *testing.T) {
	render := func(par int) string {
		row, err := ChurnSweep(churnOpts(par))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		WriteChurnSweep(&buf, row)
		var kept []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "[") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Errorf("sequential and parallel runs differ:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}
