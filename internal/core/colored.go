package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/pattern"
	"repro/internal/xgft"
)

// Colored is the pattern-aware baseline of the paper's evaluation
// (the "Colored" scheme of the authors' ICS'09 work), reproduced here
// as a greedy NCA assignment with hill-climbing refinement (see
// DESIGN.md, substitution #4). It is *not* oblivious: it knows the
// communication phases in advance and assigns NCAs so that groups of
// flows that are not already serialized at an endpoint avoid sharing
// channels. The paper uses it as the best-achievable envelope for a
// network of the same cost.
type Colored struct {
	topo     *xgft.Topology
	fallback Algorithm
	routes   map[[2]int][]int
	cacheKey string
}

// ColoredConfig tunes the optimizer.
type ColoredConfig struct {
	// MaxPasses bounds local-search sweeps per phase (default 8).
	MaxPasses int
	// MaxCandidates bounds the number of ascent vectors tried per
	// flow (default 4096); beyond it, candidates are the mod-k
	// defaults plus a deterministic pseudo-random sample.
	MaxCandidates int
	// Seed feeds candidate sampling for very wide trees.
	Seed uint64
}

func (c ColoredConfig) withDefaults() ColoredConfig {
	if c.MaxPasses <= 0 {
		c.MaxPasses = 8
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 4096
	}
	return c
}

// NewColored optimizes routes for the given communication phases
// (each phase contends only with itself, matching the paper's
// per-phase extraction of connectivity matrices). Pairs appearing in
// several phases keep their first assignment; pairs outside every
// phase fall back to D-mod-k.
func NewColored(t *xgft.Topology, phases []*pattern.Pattern, cfg ColoredConfig) *Colored {
	cfg = cfg.withDefaults()
	c := &Colored{
		topo:     t,
		fallback: NewDModK(t),
		routes:   make(map[[2]int][]int),
	}
	st := newPhaseState(t)
	for _, ph := range phases {
		c.optimizePhase(ph, cfg, st)
	}
	id := mix(uint64(cfg.MaxPasses), uint64(cfg.MaxCandidates), cfg.Seed)
	var totalBytes int64
	for _, ph := range phases {
		id = mix(id, ph.Fingerprint())
		totalBytes += ph.TotalBytes()
	}
	// Cheap exact invariants (phase count, byte total) ride along with
	// the hash so a 64-bit collision alone cannot alias two keys,
	// matching the tableKey design.
	c.cacheKey = fmt.Sprintf("colored/%d/%#x/%#x", len(phases), totalBytes, id)
	return c
}

// Name implements Algorithm.
func (c *Colored) Name() string { return "colored" }

// CacheKey marks Colored routes as memoizable: the optimizer is
// deterministic in (topology, input phases, config), all of which the
// key encodes.
func (c *Colored) CacheKey() string { return c.cacheKey }

// Route implements Algorithm.
func (c *Colored) Route(src, dst int) xgft.Route {
	if up, ok := c.routes[[2]int{src, dst}]; ok {
		return xgft.Route{Src: src, Dst: dst, Up: append([]int(nil), up...)}
	}
	return c.fallback.Route(src, dst)
}

// phaseState tracks, per channel and direction, how many flows of
// each endpoint group currently use it, plus the number of distinct
// groups. The optimizer minimizes the potential: the sum over
// channels of groups²; distinct groups on one channel serialize each
// other (network contention), while flows within one group are
// already serialized at their endpoint and cost nothing extra (§IV).
//
// The counts are dense. A level-i channel carries only flows whose
// endpoint lies in the subtree below it, span[i] = m_0·…·m_{i-1}
// leaves, so a count is addressed by (channel, endpoint mod span[i]):
// N·w_0·…·w_i slots per level and direction.
type phaseState struct {
	topo *xgft.Topology
	// Per level i: the up-port radix w_i, fan[i] = w_0·…·w_{i-1} (the
	// stride of port i in a candidate index), span[i], and the first
	// flat channel ID and count slot of the level.
	w, fan, span, chanBase, slotBase [xgft.MaxHeight + 1]int
	up, down                         []int32 // flows per (channel, endpoint) slot: up by source, down by destination
	upGroups, downGroups             []int32 // distinct endpoints per channel
}

func newPhaseState(t *xgft.Topology) *phaseState {
	st := &phaseState{topo: t}
	h := t.Height()
	st.fan[0], st.span[0] = 1, 1
	for i := 0; i < h; i++ {
		st.w[i] = t.W(i)
		st.fan[i+1] = st.fan[i] * t.W(i)
		st.span[i+1] = st.span[i] * t.M(i)
		st.chanBase[i+1] = st.chanBase[i] + t.ChannelsAt(i)
		st.slotBase[i+1] = st.slotBase[i] + t.ChannelsAt(i)*st.span[i]
	}
	st.up = make([]int32, st.slotBase[h])
	st.down = make([]int32, st.slotBase[h])
	st.upGroups = make([]int32, t.TotalChannels())
	st.downGroups = make([]int32, t.TotalChannels())
	return st
}

func (st *phaseState) reset() {
	clear(st.up)
	clear(st.down)
	clear(st.upGroups)
	clear(st.downGroups)
}

// ends places a flow in the dense state: for every level below its
// NCA, the channel and count slot that ascent offset 0 uses on the
// source (up) and destination (down) side. At level i, an ascent
// whose ports 0..i-1 form candidate index prefix and whose port i is
// p has offset o = prefix·w_i + p, which adds o to the channel and
// o·span[i] to the slot.
type ends struct {
	l                          int
	upCh, upSlot, dnCh, dnSlot [xgft.MaxHeight]int
}

func (st *phaseState) locate(src, dst int) ends {
	e := ends{l: st.topo.NCALevel(src, dst)}
	for i := 0; i < e.l; i++ {
		span, block := st.span[i], st.fan[i+1]
		e.upCh[i] = st.chanBase[i] + src/span*block
		e.upSlot[i] = st.slotBase[i] + src/span*block*span + src%span
		e.dnCh[i] = st.chanBase[i] + dst/span*block
		e.dnSlot[i] = st.slotBase[i] + dst/span*block*span + dst%span
	}
	return e
}

// apply adds delta flows along the ascent up (and its descent).
func (st *phaseState) apply(e *ends, up []int, delta int32) {
	prefix := 0
	for i, p := range up {
		o := prefix*st.w[i] + p
		bump(st.up, st.upGroups, e.upSlot[i]+o*st.span[i], e.upCh[i]+o, delta)
		bump(st.down, st.downGroups, e.dnSlot[i]+o*st.span[i], e.dnCh[i]+o, delta)
		prefix += p * st.fan[i]
	}
}

func bump(counts, groups []int32, slot, ch int, delta int32) {
	counts[slot] += delta
	switch {
	case delta > 0 && counts[slot] == delta:
		groups[ch]++
	case delta < 0 && counts[slot] == 0:
		groups[ch]--
	}
}

// levelCost is the potential delta of adding a flow on the level-i
// channels at offset o without mutating state: (g+1)² − g² = 2g+1 per
// channel the flow's endpoint group does not use yet.
func (st *phaseState) levelCost(e *ends, i, o int) int64 {
	var c int64
	if st.up[e.upSlot[i]+o*st.span[i]] == 0 {
		c += 2*int64(st.upGroups[e.upCh[i]+o]) + 1
	}
	if st.down[e.dnSlot[i]+o*st.span[i]] == 0 {
		c += 2*int64(st.downGroups[e.dnCh[i]+o]) + 1
	}
	return c
}

// cost is the potential delta of adding the flow with ascent up.
func (st *phaseState) cost(e *ends, up []int) int64 {
	var c int64
	prefix := 0
	for i, p := range up {
		c += st.levelCost(e, i, prefix*st.w[i]+p)
		prefix += p * st.fan[i]
	}
	return c
}

// sweep costs every ascent of the flow, each candidate index a mixed
// radix number over the up-ports (port 0 least significant). The
// level-i channel depends only on ports 0..i, so the sweep walks the
// ports with port l-1 fastest and recosts only the levels whose
// prefix changed. It returns the cheapest index, the lowest among
// equals, its cost, and the cost of index keep.
func (st *phaseState) sweep(e *ends, keep int) (best int, bestCost, keepCost int64) {
	l := e.l
	var port [xgft.MaxHeight]int
	var prefix [xgft.MaxHeight + 1]int
	var acc [xgft.MaxHeight + 1]int64
	bestCost = int64(1) << 62
	for lvl := 0; ; {
		for ; lvl < l; lvl++ {
			acc[lvl+1] = acc[lvl] + st.levelCost(e, lvl, prefix[lvl]*st.w[lvl]+port[lvl])
			prefix[lvl+1] = prefix[lvl] + port[lvl]*st.fan[lvl]
		}
		k, c := prefix[l], acc[l]
		if c < bestCost || c == bestCost && k < best {
			best, bestCost = k, c
		}
		if k == keep {
			keepCost = c
		}
		for lvl = l - 1; lvl >= 0; lvl-- {
			if port[lvl]++; port[lvl] < st.w[lvl] {
				break
			}
			port[lvl] = 0
		}
		if lvl < 0 {
			return best, bestCost, keepCost
		}
	}
}

// ascent decodes candidate index k of an l-level ascent into buf.
func (st *phaseState) ascent(k, l int, buf []int) []int {
	buf = buf[:l]
	for i := range buf {
		buf[i] = k / st.fan[i] % st.w[i]
	}
	return buf
}

// coloredJob is one distinct pair the optimizer places. Its pick is a
// candidate index: into sampled when the pair has more ascents than
// MaxCandidates, otherwise the mixed-radix index of the ascent.
type coloredJob struct {
	flow    pattern.Flow
	pick    int
	sampled [][]int
}

// choose returns the job's cheapest candidate, the lowest index among
// equals, except that the current pick keeps its place on a tie.
func (st *phaseState) choose(e *ends, jb *coloredJob) int {
	var best int
	var bestCost, keepCost int64
	if jb.sampled == nil {
		best, bestCost, keepCost = st.sweep(e, jb.pick)
	} else {
		bestCost = int64(1) << 62
		for i, cand := range jb.sampled {
			c := st.cost(e, cand)
			if c < bestCost {
				best, bestCost = i, c
			}
			if i == jb.pick {
				keepCost = c
			}
		}
	}
	if jb.pick >= 0 && keepCost == bestCost {
		return jb.pick
	}
	return best
}

// place adds (delta 1) or removes (delta -1) the job's current pick.
func (st *phaseState) place(e *ends, jb *coloredJob, delta int32) {
	if jb.sampled != nil {
		st.apply(e, jb.sampled[jb.pick], delta)
		return
	}
	var buf [xgft.MaxHeight]int
	st.apply(e, st.ascent(jb.pick, e.l, buf[:]), delta)
}

func (c *Colored) optimizePhase(ph *pattern.Pattern, cfg ColoredConfig, st *phaseState) {
	st.reset()
	jobs := make([]coloredJob, 0, len(ph.Flows))
	seen := make(map[[2]int]bool, len(ph.Flows))
	for _, f := range ph.Flows {
		if f.Src == f.Dst {
			continue
		}
		key := [2]int{f.Src, f.Dst}
		if seen[key] {
			continue
		}
		seen[key] = true
		if prior, ok := c.routes[key]; ok {
			// Fixed by an earlier phase: count its load, don't move it.
			e := st.locate(f.Src, f.Dst)
			st.apply(&e, prior, 1)
			continue
		}
		jobs = append(jobs, coloredJob{flow: f, pick: -1, sampled: c.sample(f, cfg)})
	}
	// Deterministic order: heaviest flows first, then by pair. Pairs
	// are distinct, so the order is total.
	slices.SortFunc(jobs, func(a, b coloredJob) int {
		if a.flow.Bytes != b.flow.Bytes {
			return cmp.Compare(b.flow.Bytes, a.flow.Bytes)
		}
		if a.flow.Src != b.flow.Src {
			return cmp.Compare(a.flow.Src, b.flow.Src)
		}
		return cmp.Compare(a.flow.Dst, b.flow.Dst)
	})
	// Greedy construction.
	for i := range jobs {
		jb := &jobs[i]
		e := st.locate(jb.flow.Src, jb.flow.Dst)
		jb.pick = st.choose(&e, jb)
		st.place(&e, jb, 1)
	}
	// Hill-climbing sweeps.
	for pass := 0; pass < cfg.MaxPasses; pass++ {
		improved := false
		for i := range jobs {
			jb := &jobs[i]
			e := st.locate(jb.flow.Src, jb.flow.Dst)
			st.place(&e, jb, -1)
			if best := st.choose(&e, jb); best != jb.pick {
				improved = true
				jb.pick = best
			}
			st.place(&e, jb, 1)
		}
		if !improved {
			break
		}
	}
	// Enumerated picks decode into one shared backing array.
	backing := make([]int, len(jobs)*c.topo.Height())
	for _, jb := range jobs {
		key := [2]int{jb.flow.Src, jb.flow.Dst}
		if jb.sampled != nil {
			c.routes[key] = jb.sampled[jb.pick]
			continue
		}
		l := c.topo.NCALevel(jb.flow.Src, jb.flow.Dst)
		c.routes[key] = st.ascent(jb.pick, l, backing[:l:l])
		backing = backing[l:]
	}
}

// sample materializes the candidates of a flow whose ascent space
// exceeds cfg.MaxCandidates: the two mod-k defaults plus a
// deterministic pseudo-random sample. It returns nil for smaller
// spaces, whose candidates are every ascent, addressed by index.
func (c *Colored) sample(f pattern.Flow, cfg ColoredConfig) [][]int {
	l := c.topo.NCALevel(f.Src, f.Dst)
	total := 1
	for lvl := 0; lvl < l; lvl++ {
		total *= c.topo.W(lvl)
		if total > cfg.MaxCandidates {
			break
		}
	}
	if total <= cfg.MaxCandidates {
		return nil
	}
	out := [][]int{
		c.fallback.Route(f.Src, f.Dst).Up,
		NewSModK(c.topo).Route(f.Src, f.Dst).Up,
	}
	for k := 0; len(out) < cfg.MaxCandidates; k++ {
		cand := make([]int, l)
		for lvl := 0; lvl < l; lvl++ {
			cand[lvl] = uniform(mix(cfg.Seed, uint64(f.Src), uint64(f.Dst), uint64(k), uint64(lvl)), c.topo.W(lvl))
		}
		out = append(out, cand)
	}
	return out
}

// MaxGroups reports the maximum per-channel group contention of the
// routes Colored assigned for a phase — used by tests to verify that
// permutations on full trees are routed conflict-free.
func (c *Colored) MaxGroups(ph *pattern.Pattern) int {
	return maxGroups(c.topo, ph, c)
}

// maxGroups routes a phase's flows with a and reports the largest
// number of endpoint groups sharing one channel direction.
func maxGroups(t *xgft.Topology, ph *pattern.Pattern, a Algorithm) int {
	st := newPhaseState(t)
	for _, f := range ph.Flows {
		if f.Src == f.Dst {
			continue
		}
		e := st.locate(f.Src, f.Dst)
		st.apply(&e, a.Route(f.Src, f.Dst).Up, 1)
	}
	return int(max(slices.Max(st.upGroups), slices.Max(st.downGroups)))
}
