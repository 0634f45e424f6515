package core

import (
	"fmt"

	"repro/internal/pattern"
	"repro/internal/xgft"
)

// LevelWise is the pattern-aware permutation scheduler of Ding,
// Hoare, Jones & Melhem ("Level-wise scheduling algorithm for fat
// tree interconnection networks", SC'06 — the paper's ref. [15],
// cited as the efficient algorithm for known permutations on k-ary
// n-trees). Ascent ports are assigned level by level: at level l the
// flows still climbing form a bipartite multigraph between their
// current up-side and down-side ancestors; a König edge coloring with
// w_{l+1} colors assigns the ports so that no two flows share an up
// or down channel — a constructive proof of the rearrangeability the
// paper invokes in §II.
//
// On full k-ary n-trees any (partial) permutation is routed with zero
// network contention. On slimmed trees, where conflicts are
// unavoidable, the balanced folding of ColorBipartiteBalanced spreads
// them evenly (ceil(D/w) flows per channel), which is what §VII-A
// demands of a good slimmed-tree schedule.
type LevelWise struct {
	topo     *xgft.Topology
	fallback Algorithm
	routes   map[[2]int][]int
}

// NewLevelWise schedules every phase of the pattern sequence
// independently (phases contend only with themselves). Non-permutation
// phases are legal: degrees just exceed one and the balanced coloring
// spreads them. Pairs outside the phases fall back to D-mod-k.
func NewLevelWise(t *xgft.Topology, phases []*pattern.Pattern) (*LevelWise, error) {
	lw := &LevelWise{
		topo:     t,
		fallback: NewDModK(t),
		routes:   make(map[[2]int][]int),
	}
	for pi, ph := range phases {
		if err := lw.schedulePhase(ph); err != nil {
			return nil, fmt.Errorf("core: level-wise phase %d: %w", pi, err)
		}
	}
	return lw, nil
}

// Name implements Algorithm.
func (lw *LevelWise) Name() string { return "level-wise" }

// Route implements Algorithm.
func (lw *LevelWise) Route(src, dst int) xgft.Route {
	if up, ok := lw.routes[[2]int{src, dst}]; ok {
		return xgft.Route{Src: src, Dst: dst, Up: append([]int(nil), up...)}
	}
	return lw.fallback.Route(src, dst)
}

type lwFlow struct {
	src, dst int
	nca      int
	up       []int
}

func (lw *LevelWise) schedulePhase(ph *pattern.Pattern) error {
	t := lw.topo
	var flows []*lwFlow
	seen := make(map[[2]int]bool)
	for _, f := range ph.Flows {
		if f.Src == f.Dst {
			continue
		}
		key := [2]int{f.Src, f.Dst}
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, done := lw.routes[key]; done {
			continue // fixed by an earlier phase
		}
		l := t.NCALevel(f.Src, f.Dst)
		flows = append(flows, &lwFlow{src: f.Src, dst: f.Dst, nca: l, up: make([]int, l)})
	}
	// Level 0: the leaf's w1 ports. Every flow from one leaf shares
	// the single adapter anyway; use port 0 balanced by flow count
	// when w1 > 1 (the paper's trees all have w1 = 1).
	if t.W(0) > 1 {
		perLeaf := make(map[int]int)
		for _, f := range flows {
			f.up[0] = perLeaf[f.src] % t.W(0)
			perLeaf[f.src]++
		}
	}
	// Levels 1..h-1: edge-color the climbing flows.
	for l := 1; l < t.Height(); l++ {
		var climbing []*lwFlow
		var edges [][2]int
		for _, f := range flows {
			if f.nca <= l {
				continue
			}
			upAnc := t.NCAIndex(f.src, f.up[:l])
			downAnc := t.NCAIndex(f.dst, f.up[:l])
			climbing = append(climbing, f)
			edges = append(edges, [2]int{upAnc, downAnc})
		}
		if len(climbing) == 0 {
			break
		}
		nodes := t.NodesAt(l)
		colors, err := ColorBipartiteBalanced(nodes, nodes, t.W(l), edges)
		if err != nil {
			return err
		}
		for i, f := range climbing {
			f.up[l] = colors[i]
		}
	}
	for _, f := range flows {
		r := xgft.Route{Src: f.src, Dst: f.dst, Up: f.up}
		if err := r.Validate(t); err != nil {
			return err
		}
		lw.routes[[2]int{f.src, f.dst}] = f.up
	}
	return nil
}

// MaxGroups reports the maximum per-channel endpoint-group contention
// of the scheduled routes for a phase (1 = conflict-free), mirroring
// Colored.MaxGroups for comparisons.
func (lw *LevelWise) MaxGroups(ph *pattern.Pattern) int {
	return maxGroups(lw.topo, ph, lw)
}
