// Package sched is the multi-tenant job scheduler: it owns the leaf
// pool of a serving fabric and decides which leaves each job gets.
// The paper evaluates routing for one workload occupying the whole
// XGFT; a production cluster runs many concurrent jobs, and their
// placement decides which routes ever carry traffic — placement
// quality and routing quality interact. The scheduler closes that
// loop: jobs (a size plus an application-style traffic profile) are
// placed by pluggable policies, the job's rank-space pattern is
// remapped onto the allocated leaves (dimemas.MappingFromLeaves), and
// the combined tenant traffic can be pushed back into the fabric's
// telemetry so the pattern-aware optimizer re-fits the routing table
// to what the cluster actually runs.
//
// Every policy is a pure function of (scheduler state, job id, seed):
// there is no shared RNG and every tie is broken by index order, so
// concurrent sweeps over scheduler runs stay byte-identical.
package sched

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dimemas"
	"repro/internal/evaluate"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/trace"
	"repro/internal/xgft"
)

// ErrNoCapacity reports a job that does not fit the free pool. It is
// a sentinel (errors.Is) so servers can map it to "try again later"
// rather than "bad request".
var ErrNoCapacity = fmt.Errorf("sched: not enough free leaves")

// Config parameterizes a scheduler.
type Config struct {
	// Fabric is the serving fabric whose leaf pool the scheduler
	// owns. Required: placement policies read its current routes and
	// Reoptimize feeds its telemetry.
	Fabric *fabric.Fabric
	// Policy places jobs; nil selects Linear (the paper's sequential
	// mapping generalized to a busy cluster).
	Policy Policy
	// Seed keys the random policy's draws and the telemetry policy's
	// candidate allocations. Defaults to 1, so runs are reproducible.
	Seed uint64
	// Evaluator scores candidate allocations for traffic-aware
	// policies; nil adopts the fabric's evaluator, so scheduler and
	// optimizer judge "better" with the same backend by default.
	Evaluator evaluate.Evaluator
	// Metrics, when set, registers the sched_* instruments (placement
	// counters and latency, pool gauges) on the registry.
	Metrics *obs.Registry
	// Journal, when set, receives job.submit / job.release /
	// job.reject events.
	Journal *obs.Journal
	// Tracer, when set, records a sched.place span per submission
	// (accepted or rejected), so placement latency shows up in the
	// same flight recorder as the resolve traffic it shapes.
	Tracer *trace.Tracer
}

// schedMetrics are the registry instruments a scheduler records into.
// The placements counter carries the policy as a constant label, so
// side-by-side schedulers stay distinguishable on one registry.
type schedMetrics struct {
	placements    *obs.Counter
	releases      *obs.Counter
	rejections    *obs.Counter
	placeNS       *obs.Histogram
	jobs          *obs.Gauge
	freeLeaves    *obs.Gauge
	fragmentation *obs.Gauge
}

// Metric and journal-event names as constants (one placements
// variant per policy: the label set is closed, and constants are what
// repolint's obskeys pass can check against the inventory).
const (
	metricPlacementsLinear    = `sched_placements_total{policy="linear"}`
	metricPlacementsRandom    = `sched_placements_total{policy="random"}`
	metricPlacementsBalanced  = `sched_placements_total{policy="balanced"}`
	metricPlacementsTelemetry = `sched_placements_total{policy="telemetry"}`
	metricReleases            = "sched_releases_total"
	metricRejections          = "sched_rejections_total"
	metricPlaceNS             = "sched_place_ns"
	metricJobs                = "sched_jobs"
	metricFreeLeaves          = "sched_free_leaves"
	metricFragmentation       = "sched_fragmentation"

	eventJobSubmit  = "job.submit"
	eventJobReject  = "job.reject"
	eventJobRelease = "job.release"

	spanPlace = "sched.place"

	attrJob    = "job"
	attrN      = "n"
	attrPlaced = "placed"
)

// SpanNames lists every span name the scheduler can record, for the
// docs-drift check and the fabricd trace inventory.
func SpanNames() []string { return []string{spanPlace} }

// placementsMetric maps a policy name to its labeled counter name. A
// future policy must add its constant (and README row) here; until it
// does it shares the linear counter rather than minting an unchecked
// name at runtime.
func placementsMetric(policy string) string {
	switch policy {
	case "random":
		return metricPlacementsRandom
	case "balanced":
		return metricPlacementsBalanced
	case "telemetry":
		return metricPlacementsTelemetry
	default:
		return metricPlacementsLinear
	}
}

func newSchedMetrics(reg *obs.Registry, policy string) *schedMetrics {
	return &schedMetrics{
		//lint:allow obskeys the name is one of the four per-policy constants selected by placementsMetric
		placements:    reg.Counter(placementsMetric(policy), "jobs placed", 1),
		releases:      reg.Counter(metricReleases, "jobs released", 1),
		rejections:    reg.Counter(metricRejections, "submissions rejected (capacity or invalid spec)", 1),
		placeNS:       reg.Histogram(metricPlaceNS, "placement decision latency"),
		jobs:          reg.Gauge(metricJobs, "active jobs"),
		freeLeaves:    reg.Gauge(metricFreeLeaves, "unallocated leaves"),
		fragmentation: reg.Gauge(metricFragmentation, "free-pool fragmentation (1 - largest_free/free)"),
	}
}

// JobSpec describes a submission: a size and an application-style
// traffic profile (communication phases over N ranks, the shape of
// experiments.App).
type JobSpec struct {
	// Name is a free-form label ("wrf-32").
	Name string
	// N is the number of leaves requested (one rank per leaf).
	N int
	// Phases are the job's communication phases; every phase must be
	// a pattern over exactly N endpoints. An empty profile is legal
	// (a compute-only job still occupies leaves).
	Phases []*pattern.Pattern
}

// Job is a placed job. Jobs are immutable after placement; the
// scheduler hands out the same *Job it stores, so callers must not
// mutate the slices.
type Job struct {
	// ID is the scheduler-assigned identity (1, 2, ... in submission
	// order).
	ID uint64
	// Name, N and Phases echo the spec.
	Name   string
	N      int
	Phases []*pattern.Pattern
	// Policy names the policy that placed the job.
	Policy string
	// Leaves is the allocation, ascending; rank r runs on Leaves[r].
	Leaves []int

	leafPhases []*pattern.Pattern // phases remapped onto Leaves
	leafAll    *pattern.Pattern   // union of leafPhases
}

// Mapping returns the rank -> leaf mapping (a copy), the exact form
// dimemas.Config.Mapping consumes for replaying the job's trace onto
// its allocation.
func (j *Job) Mapping() []int { return append([]int(nil), j.Leaves...) }

// LeafPhases returns the job's communication phases remapped onto the
// allocated leaves (patterns over the fabric's leaf count).
func (j *Job) LeafPhases() []*pattern.Pattern { return j.leafPhases }

// LeafPattern returns the union of the remapped phases: the job's
// aggregate traffic in leaf space.
func (j *Job) LeafPattern() *pattern.Pattern { return j.leafAll }

// JobInfo is the reporting view of a placed job.
type JobInfo struct {
	ID     uint64
	Name   string
	N      int
	Leaves []int
}

// Snapshot is a consistent view of the scheduler's pool: the active
// jobs in submission order plus the free-block census the churn sweep
// tracks over time.
type Snapshot struct {
	Policy string
	// Leaves and Free count the pool and its unallocated part.
	Leaves int
	Free   int
	// Jobs lists the active jobs in submission order.
	Jobs []JobInfo
	// FreeBlocks counts the maximal runs of contiguous free leaves;
	// LargestFree is the longest such run.
	FreeBlocks  int
	LargestFree int
	// Fragmentation is 1 - LargestFree/Free: 0 when the free pool is
	// one contiguous block (or empty), approaching 1 as it shatters.
	Fragmentation float64
}

// Scheduler owns a fabric's leaf pool. All methods are safe for
// concurrent use; placement and release serialize on an internal
// mutex while the fabric's resolve path stays lock-free.
type Scheduler struct {
	f      *fabric.Fabric
	topo   *xgft.Topology
	policy Policy
	seed   uint64
	eval   evaluate.Evaluator
	reg    *obs.Registry // nil when metrics are disabled

	m       *schedMetrics
	journal *obs.Journal
	tracer  *trace.Tracer

	mu     sync.Mutex
	nextID uint64          // guarded by mu
	free   []bool          // free[leaf]; guarded by mu
	nFree  int             // guarded by mu
	jobs   map[uint64]*Job // guarded by mu
	order  []uint64        // active job IDs in submission order; guarded by mu
}

// New builds a scheduler owning the fabric's full leaf pool.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Fabric == nil {
		return nil, fmt.Errorf("sched: Config.Fabric is required")
	}
	if cfg.Policy == nil {
		cfg.Policy = Linear()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Evaluator == nil {
		cfg.Evaluator = cfg.Fabric.Evaluator()
	}
	topo := cfg.Fabric.Topology()
	s := &Scheduler{
		f:      cfg.Fabric,
		topo:   topo,
		policy: cfg.Policy,
		seed:   cfg.Seed,
		eval:   cfg.Evaluator,
		reg:    cfg.Metrics,
		free:   make([]bool, topo.Leaves()),
		nFree:  topo.Leaves(),
		jobs:   make(map[uint64]*Job),
	}
	for i := range s.free {
		s.free[i] = true
	}
	if cfg.Metrics != nil {
		s.m = newSchedMetrics(cfg.Metrics, cfg.Policy.Name())
	}
	s.journal = cfg.Journal
	s.tracer = cfg.Tracer
	s.mu.Lock()
	s.poolGaugesLocked()
	s.mu.Unlock()
	return s, nil
}

// Fabric returns the fabric whose pool the scheduler owns.
func (s *Scheduler) Fabric() *fabric.Fabric { return s.f }

// Policy returns the placement policy's name.
func (s *Scheduler) Policy() string { return s.policy.Name() }

// Submit validates the spec, asks the policy for an allocation, and
// places the job. It returns ErrNoCapacity (wrapped) when fewer than
// spec.N leaves are free; any other error means the spec was invalid
// or the policy misbehaved, and the pool is unchanged either way.
func (s *Scheduler) Submit(spec JobSpec) (job *Job, err error) {
	start := time.Now() //lint:allow nondeterminism placement latency measurement is observational
	// The placement span records every submission's outcome; its
	// duration is the same decision latency the sched_place_ns
	// histogram sees, so a slow policy trips the span budget anomaly.
	sp := s.tracer.StartSpan(trace.SpanContext{}, spanPlace)
	defer func() {
		sp.SetAttr(attrN, int64(spec.N))
		if job != nil {
			sp.SetAttr(attrJob, int64(job.ID))
			sp.SetAttr(attrPlaced, 1)
		} else {
			sp.SetAttr(attrPlaced, 0)
		}
		sp.End()
	}()
	if spec.N < 1 || spec.N > s.topo.Leaves() {
		return nil, s.reject(spec, start, fmt.Errorf("sched: job size %d out of range [1,%d]", spec.N, s.topo.Leaves()))
	}
	for i, ph := range spec.Phases {
		if ph == nil {
			return nil, s.reject(spec, start, fmt.Errorf("sched: phase %d is nil", i))
		}
		if ph.N != spec.N {
			return nil, s.reject(spec, start, fmt.Errorf("sched: phase %d is over %d endpoints, want %d", i, ph.N, spec.N))
		}
		if err := ph.Validate(); err != nil {
			return nil, s.reject(spec, start, fmt.Errorf("sched: phase %d: %w", i, err))
		}
	}
	all := unionPhases(spec.N, spec.Phases)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nFree < spec.N {
		return nil, s.reject(spec, start, fmt.Errorf("%w: %d requested, %d free", ErrNoCapacity, spec.N, s.nFree))
	}
	id := s.nextID + 1
	// Background traffic for pattern-aware policies: what the fabric
	// has actually observed when it counts flows, the composed tenant
	// pattern otherwise (a fresh telemetry window falls back too).
	bg := s.f.SnapshotFlows()
	if bg == nil || len(bg.Flows) == 0 {
		bg = s.backgroundLocked()
	}
	req := &Request{
		Topo:       s.topo,
		Free:       s.freeListLocked(),
		N:          spec.N,
		JobID:      id,
		Seed:       s.seed,
		Pattern:    all,
		Background: bg,
		Resolve:    s.f.Generation().Resolve,
		Evaluator:  s.eval,
		Metrics:    s.reg,
	}
	leaves, err := s.policy.Place(req)
	if err != nil {
		return nil, s.reject(spec, start, fmt.Errorf("sched: policy %s: %w", s.policy.Name(), err))
	}
	if err := s.checkAllocationLocked(leaves, spec.N); err != nil {
		return nil, s.reject(spec, start, fmt.Errorf("sched: policy %s returned an invalid allocation: %w", s.policy.Name(), err))
	}
	mapping, err := dimemas.MappingFromLeaves(leaves, spec.N)
	if err != nil {
		return nil, s.reject(spec, start, fmt.Errorf("sched: policy %s returned an invalid allocation: %w", s.policy.Name(), err))
	}
	job = &Job{
		ID:     id,
		Name:   spec.Name,
		N:      spec.N,
		Phases: append([]*pattern.Pattern(nil), spec.Phases...),
		Policy: s.policy.Name(),
		Leaves: leaves,
	}
	job.leafPhases = make([]*pattern.Pattern, len(spec.Phases))
	for i, ph := range spec.Phases {
		job.leafPhases[i] = RemapPattern(ph, mapping, s.topo.Leaves())
	}
	job.leafAll = RemapPattern(all, mapping, s.topo.Leaves())
	for _, l := range leaves {
		s.free[l] = false
	}
	s.nFree -= spec.N
	s.nextID = id
	s.jobs[id] = job
	s.order = append(s.order, id)
	dur := time.Since(start) //lint:allow nondeterminism placement latency measurement is observational
	if s.m != nil {
		s.m.placements.Inc()
		s.m.placeNS.Observe(dur.Nanoseconds())
		s.poolGaugesLocked()
	}
	if s.journal != nil {
		s.journal.Record(eventJobSubmit, dur, map[string]any{
			"job": id, "name": spec.Name, "n": spec.N,
			"policy": job.Policy, "leaves": job.Leaves, "free": s.nFree,
		})
	}
	return job, nil
}

// reject is the Submit error path: count it, journal it, pass the
// error through.
func (s *Scheduler) reject(spec JobSpec, start time.Time, err error) error {
	if s.m != nil {
		s.m.rejections.Inc()
	}
	if s.journal != nil {
		s.journal.Record(eventJobReject, time.Since(start), map[string]any{ //lint:allow nondeterminism journal duration is observational
			"name": spec.Name, "n": spec.N, "error": err.Error(),
		})
	}
	return err
}

// Release frees a job's leaves. Unknown IDs are an error (the job may
// have already been released).
func (s *Scheduler) Release(id uint64) error {
	start := time.Now() //lint:allow nondeterminism release latency measurement is observational
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("sched: no job %d", id)
	}
	for _, l := range job.Leaves {
		s.free[l] = true
	}
	s.nFree += len(job.Leaves)
	delete(s.jobs, id)
	for i, v := range s.order {
		if v == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if s.m != nil {
		s.m.releases.Inc()
		s.poolGaugesLocked()
	}
	if s.journal != nil {
		s.journal.Record(eventJobRelease, time.Since(start), map[string]any{ //lint:allow nondeterminism journal duration is observational
			"job": id, "name": job.Name, "n": job.N, "free": s.nFree,
		})
	}
	return nil
}

// Job returns a placed job by ID.
func (s *Scheduler) Job(id uint64) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns the active jobs in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	for i, id := range s.order {
		out[i] = s.jobs[id]
	}
	return out
}

// Snapshot returns the pool census: active jobs in submission order
// plus the free-block fragmentation figures.
func (s *Scheduler) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Policy: s.policy.Name(),
		Leaves: s.topo.Leaves(),
		Free:   s.nFree,
	}
	for _, id := range s.order {
		j := s.jobs[id]
		snap.Jobs = append(snap.Jobs, JobInfo{
			ID:     j.ID,
			Name:   j.Name,
			N:      j.N,
			Leaves: append([]int(nil), j.Leaves...),
		})
	}
	snap.FreeBlocks, snap.LargestFree, snap.Fragmentation = s.censusLocked()
	return snap
}

// censusLocked counts the maximal runs of contiguous free leaves and
// the fragmentation figure derived from them.
func (s *Scheduler) censusLocked() (blocks, largest int, frag float64) {
	run := 0
	for _, f := range s.free {
		if f {
			run++
			if run == 1 {
				blocks++
			}
			if run > largest {
				largest = run
			}
		} else {
			run = 0
		}
	}
	if s.nFree > 0 {
		frag = 1 - float64(largest)/float64(s.nFree)
	}
	return blocks, largest, frag
}

// poolGaugesLocked refreshes the pool gauges after a placement or
// release.
func (s *Scheduler) poolGaugesLocked() {
	if s.m == nil {
		return
	}
	_, _, frag := s.censusLocked()
	s.m.jobs.Set(float64(len(s.order)))
	s.m.freeLeaves.Set(float64(s.nFree))
	s.m.fragmentation.Set(frag)
}

// TenantPattern returns the union of every active job's leaf-space
// traffic: the combined pattern the cluster currently runs, in
// submission order (deterministic fingerprint).
func (s *Scheduler) TenantPattern() *pattern.Pattern {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backgroundLocked()
}

// SyncTelemetry rewrites the fabric's flow counters to exactly the
// combined tenant pattern, so "observed traffic" means "what the
// placed jobs run" even before any of them resolves a route. It
// reports false when the fabric's telemetry is disabled. The rewrite
// happens under the scheduler's mutex, so concurrent syncs never
// interleave their Reset and Record halves.
func (s *Scheduler) SyncTelemetry() bool {
	tel := s.f.Telemetry()
	if tel == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncTelemetryLocked(tel)
	return true
}

func (s *Scheduler) syncTelemetryLocked(tel *fabric.Telemetry) {
	p := s.backgroundLocked()
	tel.Reset()
	for _, fl := range p.Flows {
		if fl.Src != fl.Dst && fl.Bytes > 0 {
			tel.RecordN(fl.Src, fl.Dst, uint64(fl.Bytes))
		}
	}
}

// Reoptimize pushes the combined tenant pattern into the fabric's
// telemetry and runs one threshold-gated optimizer pass over it, so a
// submission or release can immediately re-fit the routing table to
// the new tenant mix. ran is false (with a zero result and nil error)
// when the fabric's telemetry is disabled. The scheduler's mutex is
// held through the pass: concurrent Reoptimize calls serialize, and
// the optimizer always scores the tenant mix the sync wrote (resolve
// traffic stays lock-free on the fabric).
func (s *Scheduler) Reoptimize(threshold float64) (res fabric.OptimizeResult, ran bool, err error) {
	tel := s.f.Telemetry()
	if tel == nil {
		return fabric.OptimizeResult{}, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncTelemetryLocked(tel)
	res, err = s.f.Optimize(fabric.OptimizeConfig{
		Threshold: threshold,
		Seed:      s.seed,
		Reset:     true,
	})
	return res, true, err
}

// freeListLocked returns the free leaves in ascending order.
func (s *Scheduler) freeListLocked() []int {
	out := make([]int, 0, s.nFree)
	for l, f := range s.free {
		if f {
			out = append(out, l)
		}
	}
	return out
}

// backgroundLocked unions the active jobs' leaf patterns in
// submission order.
func (s *Scheduler) backgroundLocked() *pattern.Pattern {
	bg := pattern.New(s.topo.Leaves())
	for _, id := range s.order {
		bg.Flows = append(bg.Flows, s.jobs[id].leafAll.Flows...)
	}
	return bg
}

// checkAllocationLocked verifies a policy's allocation: exactly n
// leaves, ascending, distinct, in range, and currently free.
func (s *Scheduler) checkAllocationLocked(leaves []int, n int) error {
	if len(leaves) != n {
		return fmt.Errorf("%d leaves for a job of size %d", len(leaves), n)
	}
	for i, l := range leaves {
		if l < 0 || l >= s.topo.Leaves() {
			return fmt.Errorf("leaf %d out of range", l)
		}
		if i > 0 && leaves[i-1] >= l {
			return fmt.Errorf("leaves not strictly ascending at index %d", i)
		}
		if !s.free[l] {
			return fmt.Errorf("leaf %d is not free", l)
		}
	}
	return nil
}

// RemapPattern lifts a rank-space pattern onto a placement: flow
// (src, dst) becomes (mapping[src], mapping[dst]) over a pattern of
// leaves endpoints. Flow order (and with it the fingerprint) is
// preserved.
func RemapPattern(p *pattern.Pattern, mapping []int, leaves int) *pattern.Pattern {
	out := &pattern.Pattern{N: leaves, Flows: make([]pattern.Flow, len(p.Flows))}
	for i, fl := range p.Flows {
		out.Flows[i] = pattern.Flow{Src: mapping[fl.Src], Dst: mapping[fl.Dst], Bytes: fl.Bytes}
	}
	return out
}

// unionPhases merges a job's phases into its aggregate pattern.
func unionPhases(n int, phases []*pattern.Pattern) *pattern.Pattern {
	all := pattern.New(n)
	for _, ph := range phases {
		all.Flows = append(all.Flows, ph.Flows...)
	}
	return all
}
