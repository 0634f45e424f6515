package main

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/xgft"
)

// Control-plane stream shape: the paper's cost-reduced tree under
// fabricd's -sched telemetry configuration, optimizer passes at
// fabricd's default threshold, dense epochs of ~1M observed pairs and
// a paced reader of one 1024-pair batch per millisecond.
const (
	controlSpec       = "2;16,16;1,10"
	controlThreshold  = 0.05
	controlScenarios  = 8 // the seed picks one; each has a golden decision hash
	denseBatches      = 256
	denseBatch        = 4096
	readerBatch       = 1024
	readerPeriod      = time.Millisecond
	readerRing        = 32 // distinct reader batches
	readerSampleEvery = 16 // reader batches kept for the route check
	jobBytes          = 64 << 10
	oversizeJob       = 240 // never fits while any other job runs
)

type opKind int

const (
	opSubmit opKind = iota
	opRelease
	opDense
	opFail
	opHeal
)

// controlOp is one step of the stream; job indexes the scenario's
// job list (submit, release), link names the wire a fail takes down.
type controlOp struct {
	kind opKind
	job  int
	link [3]int
}

// The stream is a sequence of identical rounds, so that every kind of
// operation is sampled many times at similar cost: round r submits
// job r (each followed by a Reoptimize), flaps one link, releases job
// r-3 once three are running (each followed by a Reoptimize), and
// every fourth round, starting at round 1, runs a dense epoch. Round
// 5 also submits the oversize job the scheduler must refuse. After
// the last round the remaining jobs are released.
const (
	controlRounds = 12
	jobSize       = 32 // every job: WRF 2x16, CG-32 or a 32-rank permutation
	jobsRunning   = 3  // jobs a round leaves running; at most 4 at once
	oversizeRound = 5
)

// scenario is one keyed control stream.
type scenario struct {
	key  uint64
	jobs []sched.JobSpec
	ops  []controlOp
}

// newScenario builds the stream for one scenario key: the job kinds
// cycle WRF, CG, permutation (the permutations' traffic keyed by the
// scenario), and the flapped links are keyed draws.
func newScenario(key uint64) (*scenario, error) {
	st := hashutil.NewStream(0xc047, key)
	sc := &scenario{key: key}
	cg, err := pattern.CGPhases(jobSize, jobBytes)
	if err != nil {
		return nil, err
	}
	for r := 0; r < controlRounds; r++ {
		spec := sched.JobSpec{N: jobSize}
		switch r % 3 {
		case 0:
			spec.Name, spec.Phases = "wrf", []*pattern.Pattern{pattern.WRF(jobSize/16, 16, jobBytes)}
		case 1:
			spec.Name, spec.Phases = "cg", cg
		default:
			spec.Name = "perm"
			spec.Phases = []*pattern.Pattern{pattern.KeyedRandomPermutation(jobSize, jobBytes, hashutil.Mix(0x10b5, key, uint64(r)))}
		}
		sc.jobs = append(sc.jobs, spec)
	}
	for r := 0; r < controlRounds; r++ {
		sc.ops = append(sc.ops, controlOp{kind: opSubmit, job: r})
		if r == oversizeRound {
			sc.ops = append(sc.ops, controlOp{kind: opSubmit, job: -1})
		}
		// A level-1 switch uplink: 16 switches with 10 up-ports each,
		// so every pair stays reachable.
		sc.ops = append(sc.ops, controlOp{kind: opFail, link: [3]int{1, st.Intn(16), st.Intn(10)}}, controlOp{kind: opHeal})
		if r >= jobsRunning {
			sc.ops = append(sc.ops, controlOp{kind: opRelease, job: r - jobsRunning})
		}
		if r%4 == 1 {
			sc.ops = append(sc.ops, controlOp{kind: opDense})
		}
	}
	for j := controlRounds - jobsRunning; j < controlRounds; j++ {
		sc.ops = append(sc.ops, controlOp{kind: opRelease, job: j})
	}
	return sc, nil
}

// controlRun accumulates every control rep of a phase.
type controlRun struct {
	reps                                        int
	optimizeMS, reoptMS, placeMS, releaseMS     []float64
	submitMS                                    []float64 // every Submit, refusals included
	failMS, healMS                              []float64
	reader                                      lagRecorder
	readerChecked, readerFailed                 int64
	decisions                                   int64
	hashes                                      []uint64
	candidates, incremental, swaps, swapTouched int64
	linksTouched                                uint64
	placements, rejections, patched             int64
	tableHits, tableMisses, memoMisses          uint64
	snapshot                                    *pattern.Pattern // first dense epoch, for the probes
}

// readerSample is one reader batch kept for checking after the rep:
// the words must be valid routes in the generation that served them.
type readerSample struct {
	gen   *fabric.Generation
	pairs [][2]int
	words []uint64
}

// runControlRep builds a fresh daemon and plays the scenario's stream
// on the calling goroutine while the paced reader runs on a second
// one. It returns the decision hash.
func runControlRep(sc *scenario, seed uint64, run *controlRun, rec *spanRecorder, parent uint64, keepSnapshot bool) (uint64, error) {
	d, err := buildDaemon(controlSpec, "d-mod-k", "telemetry")
	if err != nil {
		return 0, err
	}
	leaves := d.f.Topology().Leaves()
	rep := rec.begin("control.rep", parent)
	defer rep.end()

	// The reader's pairs vary with the run seed; the decision stream
	// depends only on the scenario, so its hash can be golden.
	rst := hashutil.NewStream(0x7ead, seed, uint64(run.reps))
	ring := make([][][2]int, readerRing)
	for i := range ring {
		ring[i] = keyedPairs(rst, leaves, readerBatch)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var samples []readerSample
	wg.Add(1)
	go func() {
		defer wg.Done()
		samples = pacedReader(d.f, ring, stop, &run.reader)
	}()

	h := fnv.New64a()
	dst := hashutil.NewStream(0xde45, sc.key)
	ids := make(map[int]uint64)
	var opErr error
	for _, op := range sc.ops {
		if opErr = controlStep(d, sc, op, dst, ids, h, run, rec, rep.id, keepSnapshot); opErr != nil {
			break
		}
	}
	close(stop)
	wg.Wait()
	if opErr != nil {
		return 0, opErr
	}
	for _, s := range samples {
		run.readerChecked++
		if !readerWordsOK(s) {
			run.readerFailed++
		}
	}
	run.tableHits, run.tableMisses = d.cache.Stats()
	_, run.memoMisses = d.cache.MemoStats()
	run.reps++
	sum := h.Sum64()
	run.hashes = append(run.hashes, sum)
	return sum, nil
}

// controlStep plays one operation, times the call into the layer it
// exercises, and folds the decision into h.
func controlStep(d *daemon, sc *scenario, op controlOp, dst *hashutil.Stream, ids map[int]uint64, h hash.Hash64, run *controlRun, rec *spanRecorder, parent uint64, keepSnapshot bool) error {
	run.decisions++
	switch op.kind {
	case opSubmit:
		spec := sched.JobSpec{Name: "oversize", N: oversizeJob,
			Phases: []*pattern.Pattern{pattern.KeyedRandomPermutation(oversizeJob, jobBytes, sc.key)}}
		if op.job >= 0 {
			spec = sc.jobs[op.job]
		}
		sp := rec.begin("sched.submit", parent)
		start := time.Now()
		job, err := d.s.Submit(spec)
		ms := msSince(start)
		sp.end()
		run.submitMS = append(run.submitMS, ms)
		if op.job < 0 {
			if !errors.Is(err, sched.ErrNoCapacity) {
				return fmt.Errorf("control: oversize submission was not refused for capacity: %v", err)
			}
			run.rejections++
			fmt.Fprintf(h, "reject %s\n", spec.Name)
			return nil
		}
		if err != nil {
			return fmt.Errorf("control: submit %s: %w", spec.Name, err)
		}
		run.placeMS = append(run.placeMS, ms)
		run.placements++
		ids[op.job] = job.ID
		fmt.Fprintf(h, "place %s %d %v\n", spec.Name, job.ID, job.Leaves)
		return reoptimize(d, h, run, rec, parent)
	case opRelease:
		sp := rec.begin("sched.release", parent)
		start := time.Now()
		err := d.s.Release(ids[op.job])
		run.releaseMS = append(run.releaseMS, msSince(start))
		sp.end()
		if err != nil {
			return fmt.Errorf("control: release job %d: %w", op.job, err)
		}
		fmt.Fprintf(h, "release %d\n", ids[op.job])
		return reoptimize(d, h, run, rec, parent)
	case opDense:
		leaves := d.f.Topology().Leaves()
		pairs := make([][2]int, denseBatch)
		out := make([]uint64, denseBatch)
		sp := rec.begin("fabric.resolve.dense", parent)
		for b := 0; b < denseBatches; b++ {
			for i := range pairs {
				s := dst.Intn(leaves)
				t := dst.Intn(leaves - 1)
				if t >= s {
					t++
				}
				pairs[i] = [2]int{s, t}
			}
			d.f.ResolveBatchPacked(pairs, out)
		}
		sp.end()
		if keepSnapshot && run.snapshot == nil {
			run.snapshot = d.f.SnapshotFlows()
		}
		sp = rec.begin("fabric.optimize", parent)
		start := time.Now()
		res, err := d.f.Optimize(fabric.OptimizeConfig{Threshold: controlThreshold, Reset: true})
		run.optimizeMS = append(run.optimizeMS, msSince(start))
		sp.end()
		if err != nil {
			return fmt.Errorf("control: optimize: %w", err)
		}
		foldOptimize(h, "optimize", true, res, run)
		return nil
	case opFail:
		sp := rec.begin("fabric.fail_link", parent)
		start := time.Now()
		st, err := d.f.FailLink(op.link[0], op.link[1], op.link[2])
		for err == nil && d.f.Generation().Seq() != st.Seq {
			runtime.Gosched()
		}
		run.failMS = append(run.failMS, msSince(start))
		sp.end()
		if err != nil {
			return fmt.Errorf("control: fail link %v: %w", op.link, err)
		}
		run.patched += int64(st.Patched)
		fmt.Fprintf(h, "fail %v seq=%d patched=%d unreachable=%d\n", op.link, st.Seq, st.Patched, st.Unreachable)
		return nil
	case opHeal:
		sp := rec.begin("fabric.heal", parent)
		start := time.Now()
		st, err := d.f.Heal()
		run.healMS = append(run.healMS, msSince(start))
		sp.end()
		if err != nil {
			return fmt.Errorf("control: heal: %w", err)
		}
		fmt.Fprintf(h, "heal seq=%d\n", st.Seq)
		return nil
	}
	return fmt.Errorf("control: unknown op %d", op.kind)
}

// reoptimize runs the job-triggered pass fabricd runs after every
// submission and release.
func reoptimize(d *daemon, h hash.Hash64, run *controlRun, rec *spanRecorder, parent uint64) error {
	sp := rec.begin("sched.reoptimize", parent)
	start := time.Now()
	res, ran, err := d.s.Reoptimize(controlThreshold)
	run.reoptMS = append(run.reoptMS, msSince(start))
	sp.end()
	if err != nil {
		return fmt.Errorf("control: reoptimize: %w", err)
	}
	foldOptimize(h, "reoptimize", ran, res, run)
	return nil
}

// foldOptimize hashes a pass's verdict with its scores as float bits
// and tallies its counters.
func foldOptimize(h hash.Hash64, what string, ran bool, res fabric.OptimizeResult, run *controlRun) {
	fmt.Fprintf(h, "%s ran=%v pairs=%d current=%x best=%s/%x swapped=%v seq=%d\n", what, ran, res.Pairs,
		math.Float64bits(res.Current), res.Best, math.Float64bits(res.BestSlowdown), res.Swapped, res.Stats.Seq)
	for _, c := range res.Candidates {
		fmt.Fprintf(h, "  %s %x\n", c.Algo, math.Float64bits(c.Slowdown))
		run.candidates++
		if c.Incremental {
			run.incremental++
		}
	}
	run.linksTouched += res.LinksTouched
	if res.Swapped {
		run.swaps++
		run.swapTouched += int64(res.SwapTouched)
	}
}

// pacedReader is the open-loop reader: batch i is due at
// t0 + i*readerPeriod whatever happened to batch i-1, and when it
// falls behind it issues back to back until it has caught up. It reads
// through Generation().ResolveBatchPacked, which leaves telemetry
// untouched, so the control stream's decisions do not depend on how
// many reads it managed.
func pacedReader(f *fabric.Fabric, ring [][][2]int, stop <-chan struct{}, lag *lagRecorder) []readerSample {
	p := pacer{t0: time.Now(), period: readerPeriod}
	out := make([]uint64, readerBatch)
	var samples []readerSample
	for i := 0; ; i++ {
		due := p.due(i)
		// time.Sleep wakes on the runtime poller's millisecond tick,
		// which would make the generator itself ~0.6 ms late at the
		// median; a nanosleep keeps the schedule to tens of
		// microseconds. A signal can cut it short, hence the loop.
		for wait := time.Until(due); wait > 0; wait = time.Until(due) {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
		}
		select {
		case <-stop:
			return samples
		default:
		}
		pairs := ring[i%len(ring)]
		start := time.Now()
		gen := f.Generation()
		gen.ResolveBatchPacked(pairs, out)
		lag.record(due, start, time.Now())
		if i%readerSampleEvery == 0 {
			samples = append(samples, readerSample{gen: gen, pairs: pairs, words: append([]uint64(nil), out...)})
		}
	}
}

// readerWordsOK checks every word of a reader sample: a real route
// (no pair is severed by a single level-1 link failure) whose wires
// are all alive in the generation that served it.
func readerWordsOK(s readerSample) bool {
	view := s.gen.View()
	var up []int
	for i, w := range s.words {
		if w == fabric.PackedUnreachable {
			return false
		}
		up = fabric.AppendPackedUp(w, up[:0])
		if !view.RouteOK(xgft.Route{Src: s.pairs[i][0], Dst: s.pairs[i][1], Up: up}) {
			return false
		}
	}
	return true
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
