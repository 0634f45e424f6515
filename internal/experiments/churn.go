package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/fabric"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/xgft"
)

// The churn convergence sweep: under sustained job arrivals,
// departures and link flaps, how fast does the control plane reach
// each new generation? This sweep drives a keyed-hash churn schedule
// per seed through a telemetry-placement scheduler and a
// re-optimizing fabric, and folds every placement and optimizer
// decision into a hash — the fingerprint the tests compare across
// evaluator backends. Wall-clock figures (time to a new generation,
// placement rate) are observational and rendered in bracketed lines;
// everything else is a pure function of the cell coordinates, so runs
// are byte-identical at any Parallelism.

// churnSeed domain-separates the churn schedule's draws.
const churnSeed = 0xc84a7

// churnJobs is the number of arrivals per seed; churnOptEvery gates
// the re-optimization cadence (one threshold-gated pass every third
// arrival); churnFlapEvery/churnHealAfter shape the link-flap cycle
// (a keyed level-1 link fails before every fifth arrival and heals
// two arrivals later).
const (
	churnJobs      = 18
	churnOptEvery  = 3
	churnFlapEvery = 5
	churnHealAfter = 2
	churnThreshold = 0.0
)

// churnJob is one arrival of the churn schedule.
type churnJob struct {
	arrive int64
	depart int64
	spec   sched.JobSpec
}

// churnSchedule draws seed s's arrival schedule: a resident
// bit-reversal tenant on half the machine (the structured adversary
// d-mod-k cannot serve contention-free, so the optimizer has a swap
// to earn after every heal), then keyed-hash interarrivals (1-10
// ticks) and lifetimes (20-69 ticks) over the placement sweep's
// WRF/CG/permutation job mix.
func churnSchedule(seed uint64, bytes int64) ([]churnJob, error) {
	jobs := make([]churnJob, churnJobs)
	br, err := pattern.BitReversal(128, bytes)
	if err != nil {
		return nil, err
	}
	jobs[0] = churnJob{
		arrive: 1,
		depart: int64(math.MaxInt64),
		spec:   sched.JobSpec{Name: "resident-br", N: 128, Phases: []*pattern.Pattern{br}},
	}
	t := int64(1)
	for e := 1; e < len(jobs); e++ {
		t += 1 + int64(hashutil.Mix(churnSeed, seed, uint64(e), 1)%10)
		life := 20 + int64(hashutil.Mix(churnSeed, seed, uint64(e), 2)%50)
		spec, err := placementSpec(seed, e, bytes)
		if err != nil {
			return nil, err
		}
		jobs[e] = churnJob{arrive: t, depart: t + life, spec: spec}
	}
	return jobs, nil
}

// churnCell is one seed's outcome.
type churnCell struct {
	placed, rejected  int
	flaps             int
	optimizes, swaps  int
	touched           int
	hash              uint64
	swapNS            []int64
	placeSec, swapSec float64
}

// ChurnRow is the sweep's aggregate over the seeds.
type ChurnRow struct {
	// Placed/Rejected count submissions; Flaps the injected link
	// failures; Optimizes/Swaps the re-optimization passes and the
	// ones that installed a new generation.
	Placed    int
	Rejected  int
	Flaps     int
	Optimizes int
	Swaps     int
	// TouchedRoutes sums the installed generations' route deltas
	// against their predecessors.
	TouchedRoutes int
	// DecisionHash folds every placement (job leaves), rejection, and
	// optimizer decision (swap verdict, scores as exact float bits,
	// winning algorithm) across the seeds in order.
	DecisionHash uint64
	// SwapNS (time from deciding a pass to serving the new
	// generation, per swap) and PlaceSeconds (total wall time inside
	// Submit) are observational wall-clock figures: excluded from the
	// hash and rendered only in bracketed lines.
	SwapNS       []int64
	PlaceSeconds float64
}

// churnFold mixes a decision into the running hash.
func churnFold(h uint64, vs ...uint64) uint64 {
	return hashutil.Mix(append([]uint64{h}, vs...)...)
}

// ChurnSweep runs the churn schedule on the paper's cost-reduced tree
// XGFT(2;16,16;1,10), one cell per seed on the parallel engine. Every
// cell owns a telemetry-enabled d-mod-k fabric and a telemetry-policy
// scheduler; after every third arrival the tenant mix is synced into
// the fabric's counters and a threshold-gated optimizer pass runs,
// while keyed link flaps degrade and heal the topology underneath.
// Options.Seeds defaults to 4 here; the sweep is analytic-only.
func ChurnSweep(opt Options) (ChurnRow, error) {
	return churnSweep(opt, nil)
}

// churnSweep is ChurnSweep with an optional wrapper around every
// cell's analytic evaluator (fabric and scheduler share it), so tests
// can replay the same schedule through another backend.
func churnSweep(opt Options, wrap func(evaluate.Evaluator) evaluate.Evaluator) (ChurnRow, error) {
	if opt.Seeds <= 0 {
		opt.Seeds = 4
	}
	opt = opt.withDefaults()
	if opt.Engine != Analytic {
		return ChurnRow{}, fmt.Errorf("experiments: the churn sweep supports only the analytic engine, not %q", opt.Engine)
	}
	tp, err := xgft.NewSlimmedTree(16, 16, 10)
	if err != nil {
		return ChurnRow{}, err
	}
	bytes := opt.MessageBytes
	if bytes <= 0 {
		bytes = 64 * 1024
	}
	cells := make([]churnCell, opt.Seeds)
	err = opt.run(len(cells), func(idx int) error {
		seed := uint64(idx) + 1
		// Every cell owns its table cache (unlike the other sweeps,
		// which share the process-wide one): memo hits leaking across
		// cells would make a cell's wall-clock figures depend on which
		// cells ran before it.
		cache := core.NewTableCache(64)
		var eval evaluate.Evaluator = evaluate.NewAnalytic(cache)
		if wrap != nil {
			eval = wrap(eval)
		}
		f, err := fabric.New(fabric.Config{
			Topo:      tp,
			Algo:      core.NewDModK(tp),
			Cache:     cache,
			Telemetry: true,
			Evaluator: eval,
		})
		if err != nil {
			return err
		}
		policy, err := sched.PolicyByName("telemetry")
		if err != nil {
			return err
		}
		sc, err := sched.New(sched.Config{Fabric: f, Policy: policy, Seed: seed})
		if err != nil {
			return err
		}
		schedule, err := churnSchedule(seed, bytes)
		if err != nil {
			return err
		}
		cell := &cells[idx]
		cell.hash = hashutil.Mix(churnSeed, seed)
		type active struct {
			id     uint64
			depart int64
		}
		var running []active
		healIn := 0
		for e, ev := range schedule {
			// The flap cycle: fail a keyed level-1 link before every
			// fifth arrival, heal it two arrivals later. Heal rebuilds
			// the configured healthy table, discarding any optimized
			// choice — the optimizer has to re-earn its swap, which is
			// exactly the churn the sweep measures.
			if healIn > 0 {
				if healIn--; healIn == 0 {
					if _, err := f.Heal(); err != nil {
						return err
					}
				}
			}
			if e%churnFlapEvery == churnFlapEvery-1 {
				li := int(hashutil.Mix(churnSeed, seed, uint64(e), 3) % uint64(tp.M(1)))
				lp := int(hashutil.Mix(churnSeed, seed, uint64(e), 4) % uint64(tp.W(1)))
				if _, err := f.FailLink(1, li, lp); err != nil {
					return err
				}
				cell.flaps++
				healIn = churnHealAfter
			}
			// Departures due before this arrival, in (depart, id) order.
			sort.Slice(running, func(i, j int) bool {
				if running[i].depart != running[j].depart {
					return running[i].depart < running[j].depart
				}
				return running[i].id < running[j].id
			})
			for len(running) > 0 && running[0].depart <= ev.arrive {
				if err := sc.Release(running[0].id); err != nil {
					return err
				}
				running = running[1:]
			}
			placeStart := time.Now() //lint:allow nondeterminism placement rate is observational (bracketed output only)
			job, err := sc.Submit(ev.spec)
			cell.placeSec += time.Since(placeStart).Seconds() //lint:allow nondeterminism placement rate is observational (bracketed output only)
			if errors.Is(err, sched.ErrNoCapacity) {
				cell.rejected++
				cell.hash = churnFold(cell.hash, 2, uint64(e))
			} else if err != nil {
				return err
			} else {
				cell.placed++
				cell.hash = churnFold(cell.hash, 1, job.ID)
				for _, l := range job.Leaves {
					cell.hash = churnFold(cell.hash, uint64(l))
				}
				running = append(running, active{id: job.ID, depart: ev.depart})
			}
			if e%churnOptEvery != churnOptEvery-1 {
				continue
			}
			// Re-fit the table to the tenant mix: sync the counters,
			// then one threshold-gated pass.
			sc.SyncTelemetry()
			optStart := time.Now() //lint:allow nondeterminism time-to-new-generation is observational (bracketed output only)
			res, err := f.Optimize(fabric.OptimizeConfig{
				Threshold: churnThreshold,
				Seed:      seed,
				Reset:     true,
			})
			optNS := time.Since(optStart).Nanoseconds() //lint:allow nondeterminism time-to-new-generation is observational (bracketed output only)
			if err != nil {
				return err
			}
			cell.optimizes++
			cell.hash = churnFold(cell.hash, 3,
				boolBit(res.Swapped),
				math.Float64bits(res.Current),
				math.Float64bits(res.BestSlowdown))
			for _, c := range res.Best {
				cell.hash = churnFold(cell.hash, uint64(c))
			}
			if res.Swapped {
				cell.swaps++
				cell.touched += res.SwapTouched
				cell.swapNS = append(cell.swapNS, optNS)
			}
		}
		return nil
	})
	if err != nil {
		return ChurnRow{}, err
	}
	row := ChurnRow{DecisionHash: hashutil.Mix(churnSeed)}
	for _, c := range cells {
		row.Placed += c.placed
		row.Rejected += c.rejected
		row.Flaps += c.flaps
		row.Optimizes += c.optimizes
		row.Swaps += c.swaps
		row.TouchedRoutes += c.touched
		row.DecisionHash = churnFold(row.DecisionHash, c.hash)
		row.SwapNS = append(row.SwapNS, c.swapNS...)
		row.PlaceSeconds += c.placeSec
	}
	return row, nil
}

// boolBit maps a bool to a hashable word.
func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// swapPercentileNS returns the p-th percentile (nearest-rank) of the
// per-swap latencies.
func swapPercentileNS(ns []int64, p float64) int64 {
	if len(ns) == 0 {
		return 0
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// WriteChurnSweep renders the churn sweep: deterministic decision
// columns first, then the wall-clock figures in a bracketed line
// (stripped by the CLI determinism check, like every timing line).
func WriteChurnSweep(w io.Writer, r ChurnRow) {
	fmt.Fprintln(w, "Churn convergence — XGFT(2;16,16;1,10), telemetry placement + threshold-gated re-optimization under link flaps")
	fmt.Fprintf(w, "%6s %8s %6s %9s %6s %8s  %s\n",
		"placed", "rejected", "flaps", "optimizes", "swaps", "touched", "decision-hash")
	fmt.Fprintf(w, "%6d %8d %6d %9d %6d %8d  %#016x\n",
		r.Placed, r.Rejected, r.Flaps, r.Optimizes, r.Swaps, r.TouchedRoutes, r.DecisionHash)
	if len(r.SwapNS) == 0 {
		fmt.Fprintln(w, "[no swaps]")
		return
	}
	p50 := float64(swapPercentileNS(r.SwapNS, 0.50)) / 1e6
	p99 := float64(swapPercentileNS(r.SwapNS, 0.99)) / 1e6
	rate := 0.0
	if r.PlaceSeconds > 0 {
		rate = float64(r.Placed) / r.PlaceSeconds
	}
	fmt.Fprintf(w, "[time-to-new-generation p50=%.1fms p99=%.1fms over %d swaps, %.0f placements/s]\n",
		p50, p99, len(r.SwapNS), rate)
}
