package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the command must agree
// with: the workload names and every metric's name and unit.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesEndToEndMetrics(t *testing.T) {
	b := readBenchmarkFile(t)
	one := []float64{1}
	m := &measurements{
		setupS: one,
		serve: &serveResult{elapsed: time.Second,
			large: &sizeClass{rtt: one}, small: &sizeClass{rtt: one}},
		control: &controlRun{optimizeMS: one, reoptMS: one, placeMS: one, failMS: one,
			reader: lagRecorder{lag: one, late: one}},
		paper: &paperRun{analyticS: one, simS: one, checked: 1},
	}
	var got []struct{ Name, Unit string }
	for _, e := range endToEnd(m, 1, 0) {
		if !printedOnly[e.name] {
			got = append(got, struct{ Name, Unit string }{e.name, e.unit})
		}
	}
	if len(got) != len(b.EndToEnd) {
		t.Fatalf("command reports %d end-to-end metrics, BENCHMARK.json lists %d", len(got), len(b.EndToEnd))
	}
	for i := range got {
		if got[i] != b.EndToEnd[i] {
			t.Errorf("end-to-end metric %d: command %v, BENCHMARK.json %v", i, got[i], b.EndToEnd[i])
		}
	}
}

func TestBenchmarkFileMatchesPerLayerMetrics(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(layerMetrics) != len(b.PerLayer) {
		t.Fatalf("command reports %d per-layer metrics, BENCHMARK.json lists %d", len(layerMetrics), len(b.PerLayer))
	}
	for i, lm := range layerMetrics {
		if lm.name != b.PerLayer[i].Name || lm.unit != b.PerLayer[i].Unit {
			t.Errorf("per-layer metric %d: command %s (%s), BENCHMARK.json %s (%s)", i, lm.name, lm.unit, b.PerLayer[i].Name, b.PerLayer[i].Unit)
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != 3 || names[0] != "serve" || names[1] != "control" || names[2] != "paper" {
		t.Errorf("BENCHMARK.json workloads = %v, want serve, control, paper", names)
	}
}

func TestCoveredCountsOverlappingChildrenOnce(t *testing.T) {
	// Children [10,30) and [20,40) overlap; [50,70) sticks out past
	// the parent's end at 60.
	got := covered(0, 60, [][2]int64{{20, 40}, {10, 30}, {50, 70}})
	if got != 40 {
		t.Fatalf("covered = %d, want 30 (10..40) + 10 (50..60)", got)
	}
}
