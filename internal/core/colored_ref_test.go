package core

import (
	"fmt"
	"sort"

	"repro/internal/pattern"
	"repro/internal/xgft"
)

// This file keeps the original map-based Colored optimizer as a test
// oracle for the dense one in colored.go. Nothing outside tests calls
// it; TestColoredMatchesOracle asserts both produce the same routes,
// cache key and group contention.

// refNewColored is NewColored driven by the map-based optimizer.
func refNewColored(t *xgft.Topology, phases []*pattern.Pattern, cfg ColoredConfig) *Colored {
	cfg = cfg.withDefaults()
	c := &Colored{
		topo:     t,
		fallback: NewDModK(t),
		routes:   make(map[[2]int][]int),
	}
	for _, ph := range phases {
		c.refOptimizePhase(ph, cfg)
	}
	id := mix(uint64(cfg.MaxPasses), uint64(cfg.MaxCandidates), cfg.Seed)
	var totalBytes int64
	for _, ph := range phases {
		id = mix(id, ph.Fingerprint())
		totalBytes += ph.TotalBytes()
	}
	c.cacheKey = fmt.Sprintf("colored/%d/%#x/%#x", len(phases), totalBytes, id)
	return c
}

// refMaxGroups is Colored.MaxGroups over the map-based state.
func (c *Colored) refMaxGroups(ph *pattern.Pattern) int {
	st := newRefPhaseState(c.topo)
	for _, f := range ph.Flows {
		if f.Src == f.Dst {
			continue
		}
		st.apply(f, c.Route(f.Src, f.Dst).Up, 1)
	}
	max := 0
	for _, g := range st.upGroups {
		if g > max {
			max = g
		}
	}
	for _, g := range st.downGroups {
		if g > max {
			max = g
		}
	}
	return max
}

// refPhaseState tracks, per channel and direction, how many flows of
// each endpoint group currently use it, plus the number of distinct
// groups. Potential = sum over channels of groups^2; distinct groups
// on one channel serialize each other (network contention), while
// flows within one group are already serialized at their endpoint and
// cost nothing extra (§IV).
type refPhaseState struct {
	topo       *xgft.Topology
	upCounts   []map[int]int // by source
	downCounts []map[int]int // by destination
	upGroups   []int
	downGroups []int
	potential  int64
}

func newRefPhaseState(t *xgft.Topology) *refPhaseState {
	n := t.TotalChannels()
	return &refPhaseState{
		topo:       t,
		upCounts:   make([]map[int]int, n),
		downCounts: make([]map[int]int, n),
		upGroups:   make([]int, n),
		downGroups: make([]int, n),
	}
}

func (st *refPhaseState) apply(f pattern.Flow, up []int, delta int) {
	r := xgft.Route{Src: f.Src, Dst: f.Dst, Up: up}
	r.Walk(st.topo, func(_, _, _, ch int, isUp bool) {
		counts, groups := st.downCounts, st.downGroups
		key := f.Dst
		if isUp {
			counts, groups = st.upCounts, st.upGroups
			key = f.Src
		}
		if counts[ch] == nil {
			counts[ch] = make(map[int]int)
		}
		g := int64(groups[ch])
		counts[ch][key] += delta
		switch counts[ch][key] {
		case 0:
			if delta < 0 {
				groups[ch]--
				st.potential += (g-1)*(g-1) - g*g
			}
		case delta: // 0 -> 1 when adding
			if delta > 0 {
				groups[ch]++
				st.potential += (g+1)*(g+1) - g*g
			}
		}
	})
}

// cost evaluates the potential delta of adding the flow with the given
// ascent without mutating state.
func (st *refPhaseState) cost(f pattern.Flow, up []int) int64 {
	var delta int64
	r := xgft.Route{Src: f.Src, Dst: f.Dst, Up: up}
	r.Walk(st.topo, func(_, _, _, ch int, isUp bool) {
		counts, groups := st.downCounts, st.downGroups
		key := f.Dst
		if isUp {
			counts, groups = st.upCounts, st.upGroups
			key = f.Src
		}
		if counts[ch][key] == 0 {
			g := int64(groups[ch])
			delta += (g+1)*(g+1) - g*g
		}
	})
	return delta
}

func (c *Colored) refOptimizePhase(ph *pattern.Pattern, cfg ColoredConfig) {
	type job struct {
		flow pattern.Flow
		cand [][]int
		pick int
	}
	var jobs []*job
	seen := make(map[[2]int]bool)
	st := newRefPhaseState(c.topo)
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
			st.apply(f, prior, 1)
			continue
		}
		jobs = append(jobs, &job{flow: f, cand: c.refCandidates(f, cfg), pick: -1})
	}
	// Deterministic order: heaviest flows first, then by pair.
	sort.SliceStable(jobs, func(i, j int) bool {
		if jobs[i].flow.Bytes != jobs[j].flow.Bytes {
			return jobs[i].flow.Bytes > jobs[j].flow.Bytes
		}
		if jobs[i].flow.Src != jobs[j].flow.Src {
			return jobs[i].flow.Src < jobs[j].flow.Src
		}
		return jobs[i].flow.Dst < jobs[j].flow.Dst
	})
	// Greedy construction.
	for _, jb := range jobs {
		best, bestCost := 0, int64(1)<<62
		for i, cand := range jb.cand {
			if cost := st.cost(jb.flow, cand); cost < bestCost {
				best, bestCost = i, cost
			}
		}
		jb.pick = best
		st.apply(jb.flow, jb.cand[best], 1)
	}
	// Hill-climbing sweeps.
	for pass := 0; pass < cfg.MaxPasses; pass++ {
		improved := false
		for _, jb := range jobs {
			st.apply(jb.flow, jb.cand[jb.pick], -1)
			best, bestCost := jb.pick, st.cost(jb.flow, jb.cand[jb.pick])
			for i, cand := range jb.cand {
				if i == jb.pick {
					continue
				}
				if cost := st.cost(jb.flow, cand); cost < bestCost {
					best, bestCost = i, cost
				}
			}
			if best != jb.pick {
				improved = true
				jb.pick = best
			}
			st.apply(jb.flow, jb.cand[jb.pick], 1)
		}
		if !improved {
			break
		}
	}
	for _, jb := range jobs {
		c.routes[[2]int{jb.flow.Src, jb.flow.Dst}] = jb.cand[jb.pick]
	}
}

// refCandidates enumerates ascent vectors for a flow: the full cartesian
// product of up-port choices when small, otherwise the two mod-k
// defaults plus a deterministic random sample.
func (c *Colored) refCandidates(f pattern.Flow, cfg ColoredConfig) [][]int {
	l := c.topo.NCALevel(f.Src, f.Dst)
	total := 1
	for lvl := 0; lvl < l; lvl++ {
		total *= c.topo.W(lvl)
		if total > cfg.MaxCandidates {
			break
		}
	}
	if total <= cfg.MaxCandidates {
		out := make([][]int, 0, total)
		cur := make([]int, l)
		for {
			out = append(out, append([]int(nil), cur...))
			lvl := 0
			for ; lvl < l; lvl++ {
				cur[lvl]++
				if cur[lvl] < c.topo.W(lvl) {
					break
				}
				cur[lvl] = 0
			}
			if lvl == l {
				break
			}
		}
		return out
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
