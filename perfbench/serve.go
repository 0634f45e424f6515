package main

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/hashutil"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Serve topology and batch shapes: the fabricd default tree, one
// client sending large batches (per-pair costs dominate) and one
// sending small ones (per-frame costs dominate).
const (
	serveSpec       = "2;16,16;1,16"
	largeBatch      = 4096
	smallBatch      = 64
	batchesPerClass = 32 // distinct batches each client cycles through
	// spanEvery records one client call span in this many; the calls
	// are ~10^5 per second, and every one would swamp the recorder.
	spanEvery = 64
)

// sizeClass is one client's share of the serve phase.
type sizeClass struct {
	name     string
	pairs    [][][2]int
	want     [][]uint64 // in-process answers, per batch
	rtt      []float64  // microseconds, in call order
	resolved int64
	checked  int64
	failed   int64
	// traced-run attribution from the protocol-v2 timing trailer, per
	// frame: server stages in nanoseconds, network plus queueing in
	// microseconds.
	decodeNS, encodeNS, serverNS, queueNetUS []float64
}

// keyedPairs draws n uniform (src, dst) pairs, src != dst, from the
// keyed stream.
func keyedPairs(st *hashutil.Stream, leaves, n int) [][2]int {
	out := make([][2]int, n)
	for i := range out {
		s := st.Intn(leaves)
		d := st.Intn(leaves - 1)
		if d >= s {
			d++
		}
		out[i] = [2]int{s, d}
	}
	return out
}

func newSizeClass(name string, st *hashutil.Stream, gen *fabric.Generation, leaves, batch int) *sizeClass {
	c := &sizeClass{name: name}
	for b := 0; b < batchesPerClass; b++ {
		pairs := keyedPairs(st, leaves, batch)
		want := make([]uint64, batch)
		gen.ResolveBatchPacked(pairs, want)
		c.pairs = append(c.pairs, pairs)
		c.want = append(c.want, want)
	}
	return c
}

// timedResolver is the traced run's view of the fabric from the wire
// server: it forwards every batch to the fabric unchanged (including
// the traced entry point the server prefers) and adds up the time the
// fabric spends on large batches, so the resolve layer's per-pair
// cost can be read separately from framing and syscalls and set
// against the bare lookup on the same batches.
type timedResolver struct {
	f     *fabric.Fabric
	ns    atomic.Int64
	pairs atomic.Int64
}

func (t *timedResolver) ResolveBatchPacked(pairs [][2]int, out []uint64) (int, uint64) {
	return t.ResolveBatchPackedTraced(trace.SpanContext{}, pairs, out)
}

func (t *timedResolver) ResolveBatchPackedTraced(parent trace.SpanContext, pairs [][2]int, out []uint64) (int, uint64) {
	if len(pairs) != largeBatch {
		return t.f.ResolveBatchPackedTraced(parent, pairs, out)
	}
	start := time.Now()
	n, g := t.f.ResolveBatchPackedTraced(parent, pairs, out)
	t.ns.Add(int64(time.Since(start)))
	t.pairs.Add(int64(len(pairs)))
	return n, g
}

// serveResult is what one serve phase measured.
type serveResult struct {
	elapsed      time.Duration
	large, small *sizeClass
	resolveNSPP  float64 // traced: fabric resolve ns per pair, large batches as served
	bareNSPP     float64 // traced: Generation().ResolveBatchPacked ns per pair
}

func (r *serveResult) rate() float64 {
	return float64(r.large.resolved+r.small.resolved) / r.elapsed.Seconds()
}

// runServe drives a closed loop of two binary-resolve clients over
// loopback against wire.Servers fronting the daemons' fabrics for dur.
// Every response word is compared with the in-process answer for the
// same pairs; the daemons are built alike, so they all serve the same
// routes.
//
// The window is split into sessions of about a second, each on fresh
// connections to the next daemon in turn, so one run samples several
// independently built daemons and connection sets instead of one.
func runServe(ds []*daemon, seed uint64, dur time.Duration, rec *spanRecorder, parent uint64) (*serveResult, error) {
	gen := ds[0].f.Generation()
	leaves := ds[0].f.Topology().Leaves()
	st := hashutil.NewStream(0x5e7e, seed)
	res := &serveResult{
		large: newSizeClass("large", st, gen, leaves, largeBatch),
		small: newSizeClass("small", st, gen, leaves, smallBatch),
	}
	traced := rec != nil
	addrs := make([]string, len(ds))
	timed := make([]*timedResolver, len(ds))
	for i, d := range ds {
		var resolver wire.Resolver = d.f
		if traced {
			timed[i] = &timedResolver{f: d.f}
			resolver = timed[i]
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := &wire.Server{Resolver: resolver, Metrics: d.reg, Tracer: d.tr}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		defer func() {
			srv.Close()
			<-served
		}()
		addrs[i] = ln.Addr().String()
	}

	phase := rec.begin("serve.phase", parent)
	start := time.Now()
	sessions := max(1, int(dur/time.Second))
	for i := 0; i < sessions; i++ {
		deadline := start.Add(dur * time.Duration(i+1) / time.Duration(sessions))
		if err := serveSession(addrs[i%len(addrs)], res, gen.Seq(), deadline, rec, phase.id); err != nil {
			phase.end()
			return nil, err
		}
	}
	res.elapsed = time.Since(start)
	phase.end()
	if traced {
		var ns, pairs int64
		for _, t := range timed {
			ns += t.ns.Load()
			pairs += t.pairs.Load()
		}
		res.resolveNSPP = float64(ns) / float64(pairs)
		res.bareNSPP = bareProbe(gen, res.large, rec, parent)
	}
	return res, nil
}

// serveSession connects the two clients and runs their closed loops
// until deadline.
func serveSession(addr string, res *serveResult, wantGen uint64, deadline time.Time, rec *spanRecorder, parent uint64) error {
	classes := []*sizeClass{res.large, res.small}
	clients := make([]*wire.Client, len(classes))
	for i := range clients {
		c, err := wire.Dial(addr, 10*time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		clients[i] = c
	}
	var wg sync.WaitGroup
	errs := make([]error, len(classes))
	for i, cls := range classes {
		wg.Add(1)
		go func(i int, c *wire.Client, cls *sizeClass) {
			defer wg.Done()
			errs[i] = clientLoop(c, cls, wantGen, deadline, rec, parent)
		}(i, clients[i], cls)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// clientLoop is one closed-loop client: it sends its next batch only
// after the previous reply has arrived and been checked.
func clientLoop(c *wire.Client, cls *sizeClass, wantGen uint64, deadline time.Time, rec *spanRecorder, parent uint64) error {
	traced := rec != nil
	var tc wire.TraceContext // zero: untraced, so the server samples nothing
	for i := 0; ; i++ {
		now := time.Now()
		if !now.Before(deadline) {
			return nil
		}
		b := i % len(cls.pairs)
		pairs := cls.pairs[b]
		var (
			g     uint64
			words []uint64
			tm    wire.Timing
			err   error
			sp    openSpan
		)
		if traced && i%spanEvery == 0 {
			sp = rec.begin("wire.client.resolve."+cls.name, parent)
		}
		start := time.Now()
		if traced {
			g, words, tm, err = c.ResolveBatchPackedTraced(tc, pairs)
		} else {
			g, words, err = c.ResolveBatchPacked(pairs)
		}
		rtt := time.Since(start)
		sp.end()
		if err != nil {
			return fmt.Errorf("serve %s client: %w", cls.name, err)
		}
		cls.rtt = append(cls.rtt, float64(rtt)/float64(time.Microsecond))
		cls.resolved += int64(len(pairs))
		cls.checked++
		if g != wantGen || !equalWords(words, cls.want[b]) {
			cls.failed++
		}
		if traced {
			cls.decodeNS = append(cls.decodeNS, float64(tm.DecodeNS))
			cls.encodeNS = append(cls.encodeNS, float64(tm.EncodeNS))
			cls.serverNS = append(cls.serverNS, float64(tm.TotalNS))
			cls.queueNetUS = append(cls.queueNetUS, float64(rtt.Nanoseconds()-tm.TotalNS)/1e3)
		}
	}
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bareProbe times the bare generation lookup on the large class's
// batches: the same words the fabric served, without telemetry,
// metrics or spans. Run after the timed window.
func bareProbe(gen *fabric.Generation, cls *sizeClass, rec *spanRecorder, parent uint64) float64 {
	sp := rec.begin("probe.fabric.bare", parent)
	defer sp.end()
	out := make([]uint64, largeBatch)
	samples := make([]float64, 0, 256)
	for rep := 0; rep < 8; rep++ {
		for _, pairs := range cls.pairs {
			start := time.Now()
			gen.ResolveBatchPacked(pairs, out)
			samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(len(pairs)))
		}
	}
	sort.Float64s(samples)
	return percentile(samples, 50)
}
