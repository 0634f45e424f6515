package repro_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/evaluate"
	"repro/internal/fabric"
	"repro/internal/sched"
	"repro/internal/wire"
)

// TestSpanInventoryDocumented pins the tracing docs to the code: every
// span name an instrumented package exports via SpanNames() must
// appear verbatim in README.md and docs/ARCHITECTURE.md, so renaming
// or adding a span without updating the operator docs fails CI.
func TestSpanInventoryDocumented(t *testing.T) {
	var inventory []string
	inventory = append(inventory, wire.SpanNames()...)
	inventory = append(inventory, fabric.SpanNames()...)
	inventory = append(inventory, sched.SpanNames()...)
	inventory = append(inventory, evaluate.SpanNames()...)
	if len(inventory) == 0 {
		t.Fatal("no span names exported — the tracing layer lost its inventory")
	}
	// The incremental-evaluation instruments ride the same drift
	// check: the "Incremental evaluation" docs sections must name
	// every metric the scheduler's delta path records.
	inventory = append(inventory, evaluate.DeltaMetricNames()...)
	// Instruments the fabric no longer records must not be documented.
	retired := []string{"optimize_candidates_incremental", "optimize.incremental"}

	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md"} {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		text := string(body)
		for _, name := range inventory {
			if !strings.Contains(text, name) {
				t.Errorf("%s does not document span %q", doc, name)
			}
		}
		for _, name := range retired {
			if strings.Contains(text, name) {
				t.Errorf("%s still documents the retired instrument %q", doc, name)
			}
		}
	}
}
