// Command perfbench is the repository benchmark. One run drives one
// workload through the public functions of the packages it
// exercises and prints every metric by name with its unit, then one
// JSON object as its last line of output:
//
//	go run . --workload serve --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for the rationale of each):
//
//	serve    two closed-loop binary-resolve clients over loopback
//	control  a keyed control-plane stream against a fabricd-built daemon
//	paper    the paper's Fig. 2/5 (analytic) and a simulated Fig. 2 slice
//
// Every workload reports every end-to-end metric: the named workload
// gets the --seconds window (or, for paper, the full simulated slice)
// and the other two phases run at a fixed reduced size. With
// --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run records spans from the benchmark's own call
// sites, runs the layer probes, and reports the per-layer metrics,
// including the tracing overhead against untraced runs of the
// workload's own phase before and after the traced pass. Every output is checked — serve responses
// against the in-process resolver, the control decision stream
// against its golden hash and the reader's words against their
// generation's view, the paper rows against golden values — and any
// mismatch fails the run with a non-zero exit.
//
// With --write-golden the command regenerates golden/*.json from the
// current code instead of benchmarking.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Fixed size of the serve phase when the workload does not focus on
// it (the control and paper phases then run one rep / one reduced
// iteration), and how many times a run sets up.
const (
	reducedServe = 5 * time.Second
	setupReps    = 5
)

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		cfg        config
		traceFlag  int
		regenerate bool
	)
	flag.StringVar(&cfg.workload, "workload", "serve", "workload: serve, control or paper")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measurement window of the workload's own phase, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans, runs the layer probes and reports per-layer metrics")
	flag.BoolVar(&regenerate, "write-golden", false, "regenerate golden/*.json from the current code and exit")
	flag.Parse()
	cfg.trace = traceFlag == 1

	var err error
	switch {
	case traceFlag != 0 && traceFlag != 1:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	case regenerate:
		err = writeGolden()
	default:
		err = run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1) //lint:allow banned the benchmark is a command: a failed run must exit non-zero
	}
}

// measurements is everything one pass over the three phases produced.
type measurements struct {
	setupS  []float64
	serve   *serveResult
	control *controlRun
	paper   *paperRun
	gc      map[string]gcDelta
}

// gcDelta is the runtime's work during one phase.
type gcDelta struct {
	cycles  uint32
	pauseMS float64
	mallocs uint64
}

func phaseGC(before, after *runtime.MemStats) gcDelta {
	return gcDelta{
		cycles:  after.NumGC - before.NumGC,
		pauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		mallocs: after.Mallocs - before.Mallocs,
	}
}

func run(cfg config) error {
	switch cfg.workload {
	case "serve", "control", "paper":
	default:
		return fmt.Errorf("unknown workload %q (want serve, control or paper)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	window := time.Duration(cfg.seconds) * time.Second

	// A traced run brackets the traced pass with two untraced runs of
	// the workload's own phase, the reference for the tracing
	// overhead: a phase runs slower or faster depending on what the
	// process ran before it, and the two sides of the bracket see the
	// process before and after the traced pass.
	var (
		rec      *spanRecorder
		untraced []*measurements
	)
	if cfg.trace {
		rec = newSpanRecorder()
		ref, err := runFocus(cfg, window, golden)
		if err != nil {
			return err
		}
		untraced = append(untraced, ref)
	}
	m, err := runAll(cfg, window, golden, rec)
	if err != nil {
		return err
	}
	if cfg.trace {
		ref, err := runFocus(cfg, window, golden)
		if err != nil {
			return err
		}
		untraced = append(untraced, ref)
	}

	res := result{Metrics: make(map[string]metric)}
	var mismatches []string
	wantHash := golden.Control[fmt.Sprint(cfg.seed%controlScenarios)]
	for _, pass := range append([]*measurements{m}, untraced...) {
		a, f, mm := pass.check(wantHash)
		res.Attempted, res.Failed = res.Attempted+a, res.Failed+f
		mismatches = append(mismatches, mm...)
	}
	res.Correct = res.Failed == 0

	e2e := endToEnd(m, res.Attempted, res.Failed)
	printE2E(os.Stdout, cfg, e2e, res)
	if cfg.trace {
		layers, err := perLayer(cfg, m, untraced, rec)
		if err != nil {
			return err
		}
		res.Metrics = layers
		printMetrics(os.Stdout, "per-layer metrics (traced run)", layers)
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := rec.writeFile(path); err != nil {
			return err
		}
		fmt.Printf("\nspans (%d, written to %s)\n", rec.count(), path)
		printSummary(os.Stdout, rec.summarize())
	} else {
		for _, e := range e2e {
			if !printedOnly[e.name] {
				res.Metrics[e.name] = metric{Value: e.value, Unit: e.unit}
			}
		}
	}
	for _, s := range mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: MISMATCH", s)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d checked outputs were wrong", res.Failed, res.Attempted)
	}
	return nil
}

// check counts the outputs a pass checked and the wrong ones, phase
// by phase (a reference pass runs only one phase), with one line per
// kind of mismatch.
func (m *measurements) check(wantHash string) (attempted, failed int64, mismatches []string) {
	if s := m.serve; s != nil {
		attempted += s.large.checked + s.small.checked
		if bad := s.large.failed + s.small.failed; bad > 0 {
			failed += bad
			mismatches = append(mismatches, fmt.Sprintf("serve: %d responses differ from the in-process resolver", bad))
		}
	}
	if c := m.control; c != nil {
		attempted += c.decisions + c.readerChecked + int64(len(c.hashes))
		if c.readerFailed > 0 {
			failed += c.readerFailed
			mismatches = append(mismatches, fmt.Sprintf("control: %d reader batches hold a word that is unreachable or crosses a failed wire", c.readerFailed))
		}
		for i, h := range c.hashes {
			if fmt.Sprintf("%016x", h) != wantHash {
				failed++
				mismatches = append(mismatches, fmt.Sprintf("control: rep %d decision hash %016x, golden %s", i, h, wantHash))
			}
		}
	}
	if p := m.paper; p != nil {
		attempted += p.checked
		failed += p.failed
		mismatches = append(mismatches, p.mismatches...)
	}
	return attempted, failed, mismatches
}

// runAll sets up several times, then runs the serve, control and paper
// phases in that order; the workload's own phase gets the window.
func runAll(cfg config, window time.Duration, golden *goldenData, rec *spanRecorder) (*measurements, error) {
	m := &measurements{gc: make(map[string]gcDelta)}
	root := rec.begin("run."+cfg.workload, 0)
	defer root.end()

	var serving []*daemon // every serve daemon built, kept for the serve phase
	for i := 0; i < setupReps; i++ {
		sp := rec.begin("setup", root.id)
		start := time.Now()
		sd, err := buildDaemon(serveSpec, "d-mod-k", "linear")
		if err != nil {
			return nil, err
		}
		if _, err := buildDaemon(controlSpec, "d-mod-k", "telemetry"); err != nil {
			return nil, err
		}
		m.setupS = append(m.setupS, time.Since(start).Seconds())
		sp.end()
		serving = append(serving, sd)
	}

	var before, after runtime.MemStats
	serveFor := reducedServe
	if cfg.workload == "serve" {
		serveFor = window
	}
	runtime.GC() // each phase starts from a collected heap
	runtime.ReadMemStats(&before)
	sr, err := runServe(serving, cfg.seed, serveFor, rec, root.id)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	m.serve, m.gc["serve"] = sr, phaseGC(&before, &after)
	// The serve daemons are not needed past this point; drop them so
	// the later phases run on their own heap, as they do in the
	// untraced reference passes of a traced run.
	serving = nil

	controlFor := time.Duration(0) // one rep
	if cfg.workload == "control" {
		controlFor = window
	}
	runtime.GC() // each phase starts from a collected heap
	runtime.ReadMemStats(&before)
	cr, err := runControl(cfg.seed, controlFor, rec, root.id)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	m.control, m.gc["control"] = cr, phaseGC(&before, &after)

	runtime.GC() // each phase starts from a collected heap
	runtime.ReadMemStats(&before)
	pr, err := runPaper(cfg.workload == "paper", window, golden, rec, root.id)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	m.paper, m.gc["paper"] = pr, phaseGC(&before, &after)
	return m, nil
}

// runFocus runs only the workload's own phase, untraced: the
// reference the traced run's overhead is measured against.
func runFocus(cfg config, window time.Duration, golden *goldenData) (*measurements, error) {
	m := &measurements{}
	var err error
	switch cfg.workload {
	case "serve":
		var serving []*daemon
		for i := 0; i < setupReps; i++ {
			d, berr := buildDaemon(serveSpec, "d-mod-k", "linear")
			if berr != nil {
				return nil, berr
			}
			serving = append(serving, d)
		}
		m.serve, err = runServe(serving, cfg.seed, window, nil, 0)
	case "control":
		m.control, err = runControl(cfg.seed, window, nil, 0)
	case "paper":
		m.paper, err = runPaper(true, window, golden, nil, 0)
	}
	return m, err
}

// runControl plays the seed's scenario on fresh daemons until the
// window is spent (at least once).
func runControl(seed uint64, window time.Duration, rec *spanRecorder, parent uint64) (*controlRun, error) {
	sc, err := newScenario(seed % controlScenarios)
	if err != nil {
		return nil, err
	}
	run := &controlRun{}
	sp := rec.begin("control.phase", parent)
	defer sp.end()
	start := time.Now()
	for run.reps == 0 || time.Since(start) < window {
		runtime.GC() // the previous rep's daemon is garbage; do not charge it to this one
		if _, err := runControlRep(sc, seed, run, rec, sp.id, rec != nil); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// runPaper regenerates the paper artifacts: with full set, the whole
// simulated slice, repeated until the window is spent (at least
// once); otherwise one iteration with the reduced slice.
func runPaper(full bool, window time.Duration, golden *goldenData, rec *spanRecorder, parent uint64) (*paperRun, error) {
	run := &paperRun{}
	sp := rec.begin("paper.phase", parent)
	defer sp.end()
	start := time.Now()
	for len(run.analyticS) == 0 || (full && time.Since(start) < window) {
		runtime.GC()
		if err := paperIteration(full, golden.Paper, run, rec, sp.id); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// printedOnly are end-to-end metrics the command prints but leaves
// out of the result line, so BENCHMARK.json does not gate them.
// error_rate is 0 on every correct run (the result's failed and
// attempted carry it). read_lag_tail_us is the reader's stall time
// behind GC and host preemption: in ten-run sets on a 2-vCPU VM its
// median moved by 60 % between sets while every other metric moved
// by about 10 % or less.
var printedOnly = map[string]bool{"error_rate": true, "read_lag_tail_us": true}

// e2eMetric is one end-to-end reading with an optional note (tail
// percentile and sample counts).
type e2eMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

func endToEnd(m *measurements, attempted, failed int64) []e2eMetric {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // Maxrss is in KiB on Linux
	s, c, p := m.serve, m.control, m.paper
	lt, ltw := windowedTail(s.large.rtt)
	st, stw := windowedTail(s.small.rtt)
	rt, rtw := windowedTail(c.reader.lag)
	return []e2eMetric{
		{"setup_s", median(m.setupS), "s", fmt.Sprintf("median of %d", len(m.setupS))},
		{"peak_rss_mb", float64(ru.Maxrss) / 1024, "MB", ""},
		{"error_rate", float64(failed) / float64(attempted), "ratio", fmt.Sprintf("%d of %d", failed, attempted)},
		{"resolve_rate", s.rate(), "pairs/s", ""},
		{"rtt_large_p50_us", median(s.large.rtt), "us", fmt.Sprintf("n=%d", len(s.large.rtt))},
		{"rtt_large_tail_us", lt.Value, "us", tailNote(lt, ltw)},
		{"rtt_small_p50_us", median(s.small.rtt), "us", fmt.Sprintf("n=%d", len(s.small.rtt))},
		{"rtt_small_tail_us", st.Value, "us", tailNote(st, stw)},
		{"optimize_p50_ms", median(c.optimizeMS), "ms", fmt.Sprintf("n=%d", len(c.optimizeMS))},
		{"reopt_p50_ms", median(c.reoptMS), "ms", fmt.Sprintf("n=%d", len(c.reoptMS))},
		{"place_p50_ms", median(c.placeMS), "ms", fmt.Sprintf("n=%d", len(c.placeMS))},
		{"fault_swap_p50_ms", median(c.failMS), "ms", fmt.Sprintf("n=%d", len(c.failMS))},
		{"read_lag_p50_us", median(c.reader.lag), "us", fmt.Sprintf("n=%d", len(c.reader.lag))},
		{"read_lag_tail_us", rt.Value, "us", tailNote(rt, rtw)},
		{"analytic_figs_s", median(p.analyticS), "s", fmt.Sprintf("median of %d", len(p.analyticS))},
		{"sim_slice_s", median(p.simS), "s", fmt.Sprintf("median of %d", len(p.simS))},
	}
}

func tailNote(t tail, windows int) string {
	return fmt.Sprintf("p%g, %d of %d samples beyond, median window of %d", t.Pct, t.Beyond, t.N, windows)
}

func printE2E(w *os.File, cfg config, e2e []e2eMetric, res result) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced: compare with an untraced run for the tracing overhead"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d: end-to-end metrics (%s)\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	for _, e := range e2e {
		note := e.note
		if printedOnly[e.name] {
			note += " (printed only, not in the result line)"
		}
		fmt.Fprintf(w, "  %-20s %16.4f %-8s %s\n", e.name, e.value, e.unit, note)
	}
	fmt.Fprintf(w, "  checked %d outputs, %d wrong\n", res.Attempted, res.Failed)
}

func printMetrics(w *os.File, title string, ms map[string]metric) {
	fmt.Fprintln(w, title)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
