package experiments

import (
	"fmt"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/evaluate"
	"repro/internal/pattern"
	"repro/internal/stats"
	"repro/internal/traces"
	"repro/internal/venus"
	"repro/internal/xgft"
)

// Engine selects how slowdowns are obtained.
type Engine string

const (
	// Analytic uses the congestion bound model of
	// internal/contention: exact, fast, byte-size independent.
	Analytic Engine = "analytic"
	// Simulated replays the application trace over the event-driven
	// network simulator (the paper's methodology).
	Simulated Engine = "simulated"
)

// Options parameterizes the sweeps.
type Options struct {
	// Engine defaults to Analytic.
	Engine Engine
	// Seeds is the number of samples for the randomized schemes
	// (paper: 40-60 per boxplot). Defaults to 40.
	Seeds int
	// MessageBytes scales message sizes for Simulated runs; 0 keeps
	// the paper's sizes (slow), tests use small values.
	MessageBytes int64
	// W2Values lists the slimming sweep; defaults to 16..1.
	W2Values []int
	// Parallelism bounds the worker pool the sweep cells run on
	// (default: 4). Results are independent of the value: every cell
	// derives its randomness from its own coordinates and writes its
	// own result slot, so parallel and sequential runs are
	// byte-identical.
	Parallelism int
	// Progress, when non-nil, is called after each completed sweep
	// cell with monotonically increasing done counts and the total
	// cell count of the running experiment. It is called from the
	// sweep goroutines under a lock (never concurrently).
	Progress func(done, total int)
	// Cache overrides the routing-table cache. nil selects the
	// process-wide shared cache; a zero-capacity cache
	// (core.NewTableCache(0)) disables memoization entirely.
	Cache *core.TableCache
	// Evaluator overrides the scoring backend for pattern-level
	// sweeps: nil selects the analytic congestion bound over the
	// options' cache (the historical behavior, bit-identical). Any
	// evaluate.Evaluator — grouped, venus, a CachedEvaluator, a test
	// double — slots in; the Simulated engine's trace-replay pipeline
	// is still selected by Engine, not here.
	Evaluator evaluate.Evaluator
}

func (o Options) withDefaults() Options {
	if o.Engine == "" {
		o.Engine = Analytic
	}
	if o.Seeds <= 0 {
		o.Seeds = 40
	}
	if len(o.W2Values) == 0 {
		for w2 := 16; w2 >= 1; w2-- {
			o.W2Values = append(o.W2Values, w2)
		}
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 4
	}
	return o
}

// phasedSlowdown evaluates one (topology, algorithm) cell over the
// app's communication phases. Analytic-engine cells score through the
// options' evaluator (routing tables shared through the cache);
// simulated cells build their own simulator instances, so workers
// never share mutable state.
func phasedSlowdown(tp *xgft.Topology, algo core.Algorithm, ranks int, phases []*pattern.Pattern, opt Options) (float64, error) {
	switch opt.Engine {
	case Analytic:
		res, err := opt.evaluator().Score(tp, algo, phases)
		if err != nil {
			return 0, err
		}
		return res.Slowdown, nil
	case Simulated:
		tr, err := traces.FromPhases(ranks, phases, 1, 0)
		if err != nil {
			return 0, err
		}
		return dimemas.MeasuredSlowdown(tr, tp, algo, dimemas.Config{Net: venus.DefaultConfig()})
	default:
		return 0, fmt.Errorf("experiments: unknown engine %q", opt.Engine)
	}
}

// coloredFor returns the pattern-aware baseline for a sweep cell,
// memoized through the options' cache: the optimizer is deterministic
// in (topology, phases) and its cost grows with the distinct pairs of
// the phases (~130 ms for all 65,280 pairs of XGFT(2;16,16;1,10) on a
// 2-vCPU VM, see core.BenchmarkNewColored), so Figure2 and Figure5
// share one instance per sweep topology. Colored's Route is read-only
// after construction, hence safe to share across workers.
func coloredFor(tp *xgft.Topology, phases []*pattern.Pattern, opt Options) core.Algorithm {
	key := "colored|" + tp.String()
	for _, ph := range phases {
		// Exact invariants ride along with the fingerprint so a
		// 64-bit collision alone cannot alias two keys (the tableKey
		// design rule).
		key += fmt.Sprintf("|%d:%#x:%#x", len(ph.Flows), ph.TotalBytes(), ph.Fingerprint())
	}
	return opt.tableCache().MemoAlgorithm(key, func() core.Algorithm {
		return core.NewColored(tp, phases, core.ColoredConfig{})
	})
}

// fixedCellAlgo maps the fixed-baseline cell indices shared by
// Figure2 and Figure5 (0: s-mod-k, 1: d-mod-k, 2: colored) to their
// algorithm.
func fixedCellAlgo(c int, tp *xgft.Topology, phases []*pattern.Pattern, opt Options) core.Algorithm {
	switch c {
	case 0:
		return core.NewSModK(tp)
	case 1:
		return core.NewDModK(tp)
	default:
		return coloredFor(tp, phases, opt)
	}
}

// slimmedTopologies builds the sweep's topology per W2 value.
func slimmedTopologies(w2s []int) ([]*xgft.Topology, error) {
	topos := make([]*xgft.Topology, len(w2s))
	for i, w2 := range w2s {
		tp, err := xgft.NewSlimmedTree(16, 16, w2)
		if err != nil {
			return nil, err
		}
		topos[i] = tp
	}
	return topos, nil
}

// Fig2Row is one x-position of Fig. 2: the slowdown of each fixed
// algorithm on XGFT(2;16,16;1,W2), with Random represented by the
// median over seeds (the paper plots one static table).
type Fig2Row struct {
	W2       int
	Random   float64
	SModK    float64
	DModK    float64
	Colored  float64
	Crossbar float64 // always 1 by construction; kept for the figure
}

// Figure2 reproduces Fig. 2a (WRF-256) or Fig. 2b (CG.D-128):
// progressive tree slimming of the 16-ary 2-tree under the three
// classic oblivious routings and the pattern-aware bound. Cells —
// one per (topology, fixed algorithm) plus one per (topology, Random
// seed) — fan out over the options' worker pool.
func Figure2(app *App, opt Options) ([]Fig2Row, error) {
	opt = opt.withDefaults()
	phases := app.Phases(opt.MessageBytes)
	topos, err := slimmedTopologies(opt.W2Values)
	if err != nil {
		return nil, err
	}
	const fixedCells = 3 // s-mod-k, d-mod-k, colored
	cellsPerW := fixedCells + opt.Seeds
	rows := make([]Fig2Row, len(topos))
	randSamples := make([][]float64, len(topos))
	for i := range randSamples {
		randSamples[i] = make([]float64, opt.Seeds)
	}
	err = opt.run(len(topos)*cellsPerW, func(idx int) error {
		i, c := idx/cellsPerW, idx%cellsPerW
		tp := topos[i]
		var algo core.Algorithm
		var slot *float64
		if c < fixedCells {
			algo = fixedCellAlgo(c, tp, phases, opt)
			slot = [...]*float64{&rows[i].SModK, &rows[i].DModK, &rows[i].Colored}[c]
		} else {
			seed := c - fixedCells
			algo, slot = core.NewRandom(tp, uint64(seed)+1), &randSamples[i][seed]
		}
		s, err := phasedSlowdown(tp, algo, app.Ranks, phases, opt)
		if err != nil {
			return err
		}
		*slot = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].W2 = opt.W2Values[i]
		rows[i].Crossbar = 1
		rows[i].Random = stats.Summarize(randSamples[i]).Median
	}
	return rows, nil
}

// Fig5Row is one x-position of Fig. 5: fixed curves for
// S-mod-k/D-mod-k/Colored plus seed boxplots for the randomized
// schemes.
type Fig5Row struct {
	W2      int
	SModK   float64
	DModK   float64
	Colored float64
	RNCAUp  stats.Summary
	RNCADn  stats.Summary
	Random  stats.Summary
}

// figure5Schemes enumerates the randomized schemes of Fig. 5 in
// result order.
var figure5Schemes = []func(tp *xgft.Topology, seed uint64) core.Algorithm{
	func(tp *xgft.Topology, s uint64) core.Algorithm { return core.NewRandomNCAUp(tp, s) },
	func(tp *xgft.Topology, s uint64) core.Algorithm { return core.NewRandomNCADown(tp, s) },
	func(tp *xgft.Topology, s uint64) core.Algorithm { return core.NewRandom(tp, s) },
}

// Figure5 reproduces Fig. 5a/5b: the proposed r-NCA-u and r-NCA-d
// schemes against Random (boxplots over seeds) and the fixed
// baselines, under progressive slimming. Every (topology, scheme,
// seed) triple is an independent sweep cell.
func Figure5(app *App, opt Options) ([]Fig5Row, error) {
	opt = opt.withDefaults()
	phases := app.Phases(opt.MessageBytes)
	topos, err := slimmedTopologies(opt.W2Values)
	if err != nil {
		return nil, err
	}
	const fixedCells = 3
	nSchemes := len(figure5Schemes)
	cellsPerW := fixedCells + nSchemes*opt.Seeds
	rows := make([]Fig5Row, len(topos))
	// samples[i][k][seed]: topology i, randomized scheme k.
	samples := make([][][]float64, len(topos))
	for i := range samples {
		samples[i] = make([][]float64, nSchemes)
		for k := range samples[i] {
			samples[i][k] = make([]float64, opt.Seeds)
		}
	}
	err = opt.run(len(topos)*cellsPerW, func(idx int) error {
		i, c := idx/cellsPerW, idx%cellsPerW
		tp := topos[i]
		var algo core.Algorithm
		var slot *float64
		if c < fixedCells {
			algo = fixedCellAlgo(c, tp, phases, opt)
			slot = [...]*float64{&rows[i].SModK, &rows[i].DModK, &rows[i].Colored}[c]
		} else {
			k := (c - fixedCells) / opt.Seeds
			seed := (c - fixedCells) % opt.Seeds
			algo, slot = figure5Schemes[k](tp, uint64(seed)+1), &samples[i][k][seed]
		}
		s, err := phasedSlowdown(tp, algo, app.Ranks, phases, opt)
		if err != nil {
			return err
		}
		*slot = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].W2 = opt.W2Values[i]
		rows[i].RNCAUp = stats.Summarize(samples[i][0])
		rows[i].RNCADn = stats.Summarize(samples[i][1])
		rows[i].Random = stats.Summarize(samples[i][2])
	}
	return rows, nil
}

// Fig4Result holds the routes-per-NCA census of one topology:
// deterministic vectors for the mod-k schemes and per-NCA boxplots
// over seeds for the randomized ones.
type Fig4Result struct {
	Topology string
	Roots    int
	SModK    []int
	DModK    []int
	Random   []stats.Summary
	RNCAUp   []stats.Summary
	RNCADn   []stats.Summary
}

// figure4Schemes enumerates the randomized schemes of Fig. 4 in
// result order.
var figure4Schemes = []func(tp *xgft.Topology, seed uint64) core.Algorithm{
	func(tp *xgft.Topology, s uint64) core.Algorithm { return core.NewRandom(tp, s) },
	func(tp *xgft.Topology, s uint64) core.Algorithm { return core.NewRandomNCAUp(tp, s) },
	func(tp *xgft.Topology, s uint64) core.Algorithm { return core.NewRandomNCADown(tp, s) },
}

// Figure4 reproduces Fig. 4a (w2=16) / 4b (w2=10): the distribution
// of all-pairs route assignments over the roots. Cells are the two
// deterministic censuses plus one census per (scheme, seed).
func Figure4(w2 int, opt Options) (*Fig4Result, error) {
	opt = opt.withDefaults()
	tp, err := xgft.NewSlimmedTree(16, 16, w2)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{
		Topology: tp.String(),
		Roots:    tp.NodesAt(2),
	}
	nSchemes := len(figure4Schemes)
	// censuses[k][seed]: scheme k's census at one seed.
	censuses := make([][][]int, nSchemes)
	for k := range censuses {
		censuses[k] = make([][]int, opt.Seeds)
	}
	err = opt.run(2+nSchemes*opt.Seeds, func(idx int) error {
		switch idx {
		case 0:
			res.SModK = core.AllPairsNCACensus(tp, core.NewSModK(tp))
		case 1:
			res.DModK = core.AllPairsNCACensus(tp, core.NewDModK(tp))
		default:
			k := (idx - 2) / opt.Seeds
			seed := (idx - 2) % opt.Seeds
			censuses[k][seed] = core.AllPairsNCACensus(tp, figure4Schemes[k](tp, uint64(seed)+1))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	summarize := func(k int) []stats.Summary {
		out := make([]stats.Summary, res.Roots)
		perRoot := make([]float64, opt.Seeds)
		for root := 0; root < res.Roots; root++ {
			for seed := 0; seed < opt.Seeds; seed++ {
				perRoot[seed] = float64(censuses[k][seed][root])
			}
			out[root] = stats.Summarize(perRoot)
		}
		return out
	}
	res.Random = summarize(0)
	res.RNCAUp = summarize(1)
	res.RNCADn = summarize(2)
	return res, nil
}

// Fig3Result decomposes CG.D-128: its aggregate connectivity matrix
// and the per-phase slowdown of D-mod-k on the full 16-ary 2-tree
// (the paper's "fifth phase takes ~8x longer" analysis; here 7x — see
// EXPERIMENTS.md X1).
type Fig3Result struct {
	Matrix      [][]int64
	PhaseNet    []int64 // per-phase completion bound, bytes
	PhaseXbar   []int64 // per-phase crossbar bound, bytes
	PhaseFactor []float64
}

// Figure3 reproduces Fig. 3. The d-mod-k phase tables are served from
// the options' routing-table cache, so a -all run shares them with
// the Fig. 2b/5b sweeps.
func Figure3(opt Options) (*Fig3Result, error) {
	opt = opt.withDefaults()
	tp, err := xgft.NewSlimmedTree(16, 16, 16)
	if err != nil {
		return nil, err
	}
	phases := pattern.CGD128Phases()
	all, err := pattern.Union(phases...)
	if err != nil {
		return nil, err
	}
	net, xbar, err := contention.PhaseBoundsCached(opt.tableCache(), tp, core.NewDModK(tp), phases)
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{
		Matrix:    all.ConnectivityMatrix(),
		PhaseNet:  net,
		PhaseXbar: xbar,
	}
	res.PhaseFactor = make([]float64, len(net))
	for i := range net {
		if xbar[i] > 0 {
			res.PhaseFactor[i] = float64(net[i]) / float64(xbar[i])
		}
	}
	return res, nil
}

// Table1Row describes one level of an XGFT the way the paper's
// Table I does.
type Table1Row struct {
	Level      int
	Nodes      int
	LabelForm  string
	UpLinks    int
	DownLinks  int
	ExampleLab string
}

// Table1 renders the label schema of a topology.
func Table1(tp *xgft.Topology) []Table1Row {
	h := tp.Height()
	rows := make([]Table1Row, h+1)
	for l := 0; l <= h; l++ {
		form := "<"
		for j := h - 1; j >= 0; j-- {
			if j < h-1 {
				form += ","
			}
			if j < l {
				form += fmt.Sprintf("W%d", j+1)
			} else {
				form += fmt.Sprintf("M%d", j+1)
			}
		}
		form += ">"
		up := 0
		if l < h {
			up = tp.ChannelsAt(l)
		}
		down := 0
		if l > 0 {
			down = tp.ChannelsAt(l - 1)
		}
		example := ""
		if tp.NodesAt(l) > 1 {
			example = tp.FormatLabel(l, tp.NodesAt(l)-1)
		} else {
			example = tp.FormatLabel(l, 0)
		}
		rows[l] = Table1Row{
			Level:      l,
			Nodes:      tp.NodesAt(l),
			LabelForm:  form,
			UpLinks:    up,
			DownLinks:  down,
			ExampleLab: example,
		}
	}
	return rows
}
