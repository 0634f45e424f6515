// Command experiments regenerates every table and figure of the
// paper's evaluation (see DESIGN.md §3 for the index):
//
//	experiments -table1             Table I label schema
//	experiments -fig2a -fig2b       Fig. 2: WRF/CG slimming sweeps
//	experiments -fig3               Fig. 3: CG traffic decomposition
//	experiments -fig4a -fig4b       Fig. 4: routes per NCA
//	experiments -fig5a -fig5b       Fig. 5: r-NCA-u/d boxplots
//	experiments -faults             degraded-topology sweep (failed links)
//	experiments -shift              shifting-traffic sweep (online re-optimization)
//	experiments -placement          multi-tenant placement churn sweep
//	experiments -churn              churn convergence sweep (placement + re-optimization under link flaps)
//	experiments -fidelity           analytic bound vs venus simulation (rank agreement)
//	experiments -all                everything above
//
// By default the fast analytic engine is used; -engine simulated runs
// the full trace-replay pipeline (minutes with paper message sizes;
// use -bytes to scale down). -csv switches the sweep output format.
//
// Sweeps fan their independent (topology, algorithm, pattern, seed)
// cells out over -parallel workers (default: all CPUs) and reuse
// routing tables across figures through a process-wide cache;
// -progress reports cell completion on stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/xgft"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		table1   = flag.Bool("table1", false, "Table I")
		fig2a    = flag.Bool("fig2a", false, "Fig. 2a (WRF)")
		fig2b    = flag.Bool("fig2b", false, "Fig. 2b (CG)")
		fig3     = flag.Bool("fig3", false, "Fig. 3 (CG pattern)")
		fig4a    = flag.Bool("fig4a", false, "Fig. 4a (census, w2=16)")
		fig4b    = flag.Bool("fig4b", false, "Fig. 4b (census, w2=10)")
		fig5a    = flag.Bool("fig5a", false, "Fig. 5a (WRF boxplots)")
		fig5b    = flag.Bool("fig5b", false, "Fig. 5b (CG boxplots)")
		ext      = flag.Bool("ext", false, "extension: three-level XGFT generalization sweep")
		faults   = flag.Bool("faults", false, "extension: degraded-topology sweep (failed top-level links)")
		shift    = flag.Bool("shift", false, "extension: shifting-traffic sweep (static d-mod-k vs online re-optimization)")
		place    = flag.Bool("placement", false, "extension: multi-tenant placement churn sweep (scheduler policies)")
		churn    = flag.Bool("churn", false, "extension: churn convergence sweep (placement + re-optimization under link flaps)")
		fidelity = flag.Bool("fidelity", false, "extension: analytic bound vs venus simulation fidelity sweep")
		ablate   = flag.Bool("ablation", false, "ablation: balanced vs uniform relabeling")
		adaptive = flag.Bool("adaptive", false, "extension: adaptive vs oblivious routing")
		engine   = flag.String("engine", "analytic", "analytic or simulated")
		seeds    = flag.Int("seeds", 40, "seeds per boxplot (paper: 40-60)")
		bytes    = flag.Int64("bytes", 0, "message size override (0 = paper sizes)")
		par      = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent sweep cells")
		progress = flag.Bool("progress", false, "report sweep-cell completion on stderr")
		csv      = flag.Bool("csv", false, "CSV output for sweeps")
	)
	flag.Parse()

	opt := experiments.Options{
		Engine:       experiments.Engine(*engine),
		Seeds:        *seeds,
		MessageBytes: *bytes,
		Parallelism:  *par,
	}
	if *progress {
		opt.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	any := false
	fail := func(err error) {
		if *progress {
			// Terminate a partially-written progress line so the
			// error starts on its own line.
			fmt.Fprintln(os.Stderr)
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	section := func(name string) func() {
		any = true
		start := time.Now()
		fmt.Printf("=== %s ===\n", name)
		return func() { fmt.Printf("    [%.2fs]\n\n", time.Since(start).Seconds()) }
	}

	if *all || *table1 {
		done := section("Table I")
		for _, spec := range []string{"2;16,16;1,16", "2;16,16;1,10", "3;4,4,4;1,2,2"} {
			tp, err := xgft.Parse(spec)
			if err != nil {
				fail(err)
			}
			experiments.WriteTable1(os.Stdout, tp, experiments.Table1(tp))
			fmt.Println()
		}
		done()
	}
	if *all || *fig2a {
		done := section("Figure 2a — WRF-256")
		app := experiments.WRFApp()
		rows, err := experiments.Figure2(app, opt)
		if err != nil {
			fail(err)
		}
		if *csv {
			experiments.WriteFigure2CSV(os.Stdout, rows)
		} else {
			experiments.WriteFigure2(os.Stdout, app, rows)
		}
		done()
	}
	if *all || *fig2b {
		done := section("Figure 2b — CG.D-128")
		app := experiments.CGApp()
		rows, err := experiments.Figure2(app, opt)
		if err != nil {
			fail(err)
		}
		if *csv {
			experiments.WriteFigure2CSV(os.Stdout, rows)
		} else {
			experiments.WriteFigure2(os.Stdout, app, rows)
		}
		done()
	}
	if *all || *fig3 {
		done := section("Figure 3 — CG.D-128 traffic")
		res, err := experiments.Figure3(opt)
		if err != nil {
			fail(err)
		}
		experiments.WriteFigure3(os.Stdout, res)
		done()
	}
	if *all || *fig4a {
		done := section("Figure 4a — routes per NCA, w2=16")
		res, err := experiments.Figure4(16, opt)
		if err != nil {
			fail(err)
		}
		experiments.WriteFigure4(os.Stdout, res)
		done()
	}
	if *all || *fig4b {
		done := section("Figure 4b — routes per NCA, w2=10")
		res, err := experiments.Figure4(10, opt)
		if err != nil {
			fail(err)
		}
		experiments.WriteFigure4(os.Stdout, res)
		done()
	}
	if *all || *fig5a {
		done := section("Figure 5a — WRF-256 boxplots")
		app := experiments.WRFApp()
		rows, err := experiments.Figure5(app, opt)
		if err != nil {
			fail(err)
		}
		if *csv {
			experiments.WriteFigure5CSV(os.Stdout, rows)
		} else {
			experiments.WriteFigure5(os.Stdout, app, rows)
		}
		done()
	}
	if *all || *fig5b {
		done := section("Figure 5b — CG.D-128 boxplots")
		app := experiments.CGApp()
		rows, err := experiments.Figure5(app, opt)
		if err != nil {
			fail(err)
		}
		if *csv {
			experiments.WriteFigure5CSV(os.Stdout, rows)
		} else {
			experiments.WriteFigure5(os.Stdout, app, rows)
		}
		done()
	}
	if *all || *ext {
		done := section("Extension — three-level XGFT sweep")
		rows, err := experiments.DeepTreeSweep(opt)
		if err != nil {
			fail(err)
		}
		experiments.WriteDeepTreeSweep(os.Stdout, rows)
		done()
	}
	if *all || *faults {
		if opt.Engine == experiments.Simulated && !*faults {
			// The fault sweep is analytic-only; during -all with a
			// simulated engine, skip it visibly rather than abort.
			fmt.Println("=== Extension — degraded topology — skipped (analytic engine only) ===")
			fmt.Println()
		} else {
			done := section("Extension — degraded topology (failed top-level links)")
			for _, app := range []*experiments.App{experiments.WRFApp(), experiments.CGApp()} {
				rows, err := experiments.FaultSweep(app, opt)
				if err != nil {
					fail(err)
				}
				experiments.WriteFaultSweep(os.Stdout, app, rows)
				fmt.Println()
			}
			done()
		}
	}
	if *all || *shift {
		if opt.Engine == experiments.Simulated && !*shift {
			// Analytic-only, like the fault sweep: during -all with a
			// simulated engine, skip it visibly rather than abort.
			fmt.Println("=== Extension — shifting traffic — skipped (analytic engine only) ===")
			fmt.Println()
		} else {
			done := section("Extension — shifting traffic (online re-optimization)")
			rows, err := experiments.ShiftSweep(opt)
			if err != nil {
				fail(err)
			}
			experiments.WriteShiftSweep(os.Stdout, rows)
			done()
		}
	}
	if *all || *place {
		if opt.Engine == experiments.Simulated && !*place {
			// Analytic-only, like the fault sweep: during -all with a
			// simulated engine, skip it visibly rather than abort.
			fmt.Println("=== Extension — placement churn — skipped (analytic engine only) ===")
			fmt.Println()
		} else {
			done := section("Extension — placement churn (multi-tenant scheduler policies)")
			rows, err := experiments.PlacementSweep(opt)
			if err != nil {
				fail(err)
			}
			experiments.WritePlacementSweep(os.Stdout, rows)
			done()
		}
	}
	if *all || *churn {
		if opt.Engine == experiments.Simulated && !*churn {
			// Analytic-only, like the fault sweep: during -all with a
			// simulated engine, skip it visibly rather than abort.
			fmt.Println("=== Extension — churn convergence — skipped (analytic engine only) ===")
			fmt.Println()
		} else {
			done := section("Extension — churn convergence (placement + re-optimization under link flaps)")
			row, err := experiments.ChurnSweep(opt)
			if err != nil {
				fail(err)
			}
			experiments.WriteChurnSweep(os.Stdout, row)
			done()
		}
	}
	if *all || *fidelity {
		if opt.Engine == experiments.Simulated && !*fidelity {
			// The sweep pairs its own analytic and venus backends;
			// during -all with a simulated engine, skip it visibly.
			fmt.Println("=== Extension — analytic vs simulation fidelity — skipped (manages its own backends) ===")
			fmt.Println()
		} else {
			done := section("Extension — analytic vs simulation fidelity")
			rows, err := experiments.FidelitySweep(opt)
			if err != nil {
				fail(err)
			}
			experiments.WriteFidelitySweep(os.Stdout, rows)
			done()
		}
	}
	if *all || *ablate {
		done := section("Ablation — balanced vs uniform relabeling")
		for _, w2 := range []int{10, 6} {
			row, err := experiments.BalanceAblation(w2, opt)
			if err != nil {
				fail(err)
			}
			experiments.WriteBalanceAblation(os.Stdout, row)
			fmt.Println()
		}
		done()
	}
	if *all || *adaptive {
		done := section("Extension — adaptive vs oblivious")
		rows, err := experiments.AdaptiveComparison(opt)
		if err != nil {
			fail(err)
		}
		experiments.WriteAdaptiveComparison(os.Stdout, rows)
		done()
	}
	if !any {
		flag.Usage()
		os.Exit(2)
	}
	if *progress {
		cache := experiments.SharedTableCache()
		hits, misses := cache.Stats()
		algoHits, algoMisses := cache.MemoStats()
		fmt.Fprintf(os.Stderr, "routing-table cache: %d hits, %d misses, %d tables retained; algorithm memo: %d hits, %d misses\n",
			hits, misses, cache.Len(), algoHits, algoMisses)
	}
}
