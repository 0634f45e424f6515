package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark spent inside a layer call. Spans
// are recorded from the benchmark's own code, around each call it
// makes into a package; Parent links a call to the phase or
// operation that caused it (0 for a root).
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory for the length of a traced run.
// A nil recorder records nothing, so untraced runs pay one nil check
// per call site.
type spanRecorder struct {
	t0 time.Time

	mu    sync.Mutex
	next  uint64 // guarded by mu
	spans []span // guarded by mu
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	r      *spanRecorder
	id     uint64
	parent uint64
	name   string
	start  int64
}

// begin starts a span under parent (0 for a root).
func (r *spanRecorder) begin(name string, parent uint64) openSpan {
	if r == nil {
		return openSpan{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return openSpan{r: r, id: id, parent: parent, name: name, start: int64(time.Since(r.t0))}
}

func (s openSpan) end() {
	if s.r == nil {
		return
	}
	end := int64(time.Since(s.r.t0))
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, span{ID: s.id, Parent: s.parent, Name: s.name, StartNS: s.start, EndNS: end})
	s.r.mu.Unlock()
}

// count returns the number of spans recorded.
func (r *spanRecorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// writeFile writes the spans as JSON lines, one span per line, in
// recording order.
func (r *spanRecorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary is the per-name rollup: how many spans, their total
// duration, and their self time — each span's duration minus the
// part of its interval covered by its children.
type spanSummary struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
}

// summarize rolls spans up by name, sorted by total time.
func (r *spanRecorder) summarize() []spanSummary {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	byName := make(map[string]*spanSummary)
	var names []string
	for _, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
			names = append(names, s.Name)
		}
		dur := s.EndNS - s.StartNS
		sum.Count++
		sum.TotalMS += float64(dur) / 1e6
		sum.SelfMS += float64(dur-covered(s.StartNS, s.EndNS, children[s.ID])) / 1e6
	}
	out := make([]spanSummary, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}

// covered returns how much of [start, end) the union of the
// intervals covers; overlapping children (concurrent clients) count
// once.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, cur int64 = 0, start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// printSummary writes the rollup as a table.
func printSummary(w io.Writer, sums []spanSummary) {
	fmt.Fprintf(w, "%-32s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range sums {
		fmt.Fprintf(w, "%-32s %8d %12.3f %12.3f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
}
