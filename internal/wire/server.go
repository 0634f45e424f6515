package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Span names the server records, as constants for repolint's obskeys
// pass. wire.request covers one frame from decode through response
// encode (it ends before the response is flushed); decode/resolve/
// encode are its stage children, recorded only for sampled traces.
const (
	spanRequest = "wire.request"
	spanDecode  = "wire.decode"
	spanResolve = "wire.resolve"
	spanEncode  = "wire.encode"

	attrPairs = "pairs"
	attrGen   = "gen"
)

// SpanNames lists every span name this package records, for the
// documentation drift test.
func SpanNames() []string {
	return []string{spanRequest, spanDecode, spanResolve, spanEncode}
}

// DefaultTimeout is the per-frame read/write deadline when
// Server.Timeout is zero: a peer that stalls mid-frame (slow-loris)
// or stops draining responses is cut loose instead of pinning a
// goroutine and its buffers forever.
const DefaultTimeout = 30 * time.Second

// Resolver is the store a Server fronts: a batch resolve into packed
// route words, tagged with the generation it was served from.
// fabric.Fabric implements it.
type Resolver interface {
	ResolveBatchPacked(pairs [][2]int, out []uint64) (resolved int, generation uint64)
}

// TracedResolver is the optional extension a Resolver implements to
// join the server's trace: the batch span it records becomes a child
// of the wire request's resolve span instead of a locally minted
// root. fabric.Fabric implements it.
type TracedResolver interface {
	ResolveBatchPackedTraced(parent trace.SpanContext, pairs [][2]int, out []uint64) (resolved int, generation uint64)
}

// Server serves the binary resolve protocol over a listener: one
// goroutine per connection, each owning a reusable read buffer, pair
// batch, packed batch and response buffer, so the steady-state
// request loop performs zero allocations per resolve. Protocol
// violations get one best-effort error frame and the connection is
// closed; well-formed traffic is served until the peer disconnects,
// a deadline expires, or the server closes.
type Server struct {
	// Resolver answers the batches. Required.
	Resolver Resolver
	// Timeout is the per-frame read deadline and per-response write
	// deadline; 0 means DefaultTimeout. Tests use short values to
	// exercise the slow-loris path quickly.
	Timeout time.Duration
	// Metrics, when set, registers the wire_* instruments (frames,
	// bytes, deadline cuts, connection counts, request latency) on the
	// registry. Per-connection stats are kept either way.
	Metrics *obs.Registry
	// Tracer, when set, records a wire.request span per frame. Traced
	// (type 4) requests join the client's trace and inherit its
	// sampling verdict; plain requests get a locally minted root keyed
	// by connection and frame coordinates. nil disables spans; the
	// timing trailer on traced responses is filled either way.
	Tracer *trace.Tracer

	mu        sync.Mutex
	listeners map[net.Listener]struct{} // guarded by mu
	conns     map[net.Conn]*connState   // guarded by mu
	closed    bool                      // guarded by mu
	wg        sync.WaitGroup
	m         *serverMetrics
	connSeq   atomic.Uint64
}

// serverMetrics are the registry instruments a Server records into.
// Counters shard by connection id, so busy peers do not contend.
type serverMetrics struct {
	frames       *obs.Counter
	bytesRead    *obs.Counter
	bytesWritten *obs.Counter
	deadlineCuts *obs.Counter
	conns        *obs.Counter
	connsActive  *obs.Gauge
	requestNS    *obs.Histogram
}

// Metric names as constants so repolint's obskeys pass keeps the
// inventory greppable.
const (
	metricFrames       = "wire_frames_total"
	metricBytesRead    = "wire_bytes_read_total"
	metricBytesWritten = "wire_bytes_written_total"
	metricDeadlineCuts = "wire_deadline_cuts_total"
	metricConns        = "wire_conns_total"
	metricConnsActive  = "wire_conns_active"
	metricRequestNS    = "wire_request_ns"
)

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		frames:       reg.Counter(metricFrames, "resolve request frames served", 8),
		bytesRead:    reg.Counter(metricBytesRead, "bytes read from resolve peers", 8),
		bytesWritten: reg.Counter(metricBytesWritten, "bytes written to resolve peers", 8),
		deadlineCuts: reg.Counter(metricDeadlineCuts, "connections cut by a read/write deadline", 1),
		conns:        reg.Counter(metricConns, "connections accepted", 1),
		connsActive:  reg.Gauge(metricConnsActive, "connections currently open"),
		requestNS:    reg.Histogram(metricRequestNS, "server-side resolve service time (decode, resolve, respond)"),
	}
}

// connState is one connection's live stat block, updated with atomics
// on the serve path and snapshotted by ConnStats.
type connState struct {
	id           uint64
	remote       string
	frames       atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
	deadlineCuts atomic.Uint64
}

// ConnStats is a point-in-time snapshot of one open connection.
type ConnStats struct {
	RemoteAddr   string `json:"remote_addr"`
	Frames       uint64 `json:"frames"`
	BytesRead    uint64 `json:"bytes_read"`
	BytesWritten uint64 `json:"bytes_written"`
	DeadlineCuts uint64 `json:"deadline_cuts"`
}

// ConnStats snapshots every open connection's counters, ordered by
// accept order (oldest first).
func (s *Server) ConnStats() []ConnStats {
	s.mu.Lock()
	states := make([]*connState, 0, len(s.conns))
	for _, st := range s.conns {
		states = append(states, st)
	}
	s.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].id < states[j].id })
	out := make([]ConnStats, len(states))
	for i, st := range states {
		out[i] = ConnStats{
			RemoteAddr:   st.remote,
			Frames:       st.frames.Load(),
			BytesRead:    st.bytesRead.Load(),
			BytesWritten: st.bytesWritten.Load(),
			DeadlineCuts: st.deadlineCuts.Load(),
		}
	}
	return out
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("wire: server closed")

func (s *Server) timeout() time.Duration {
	if s.Timeout > 0 {
		return s.Timeout
	}
	return DefaultTimeout
}

// track registers a listener for Close; it reports false (and closes
// nothing) when the server is already closed.
func (s *Server) track(l net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.m == nil && s.Metrics != nil {
		s.m = newServerMetrics(s.Metrics)
	}
	if s.listeners == nil {
		s.listeners = make(map[net.Listener]struct{})
	}
	s.listeners[l] = struct{}{}
	return true
}

// trackConn registers a connection for Close and allocates its stat
// block; it reports false when the server is already closed.
func (s *Server) trackConn(c net.Conn) (*connState, bool) {
	st := &connState{id: s.connSeq.Add(1)}
	if addr := c.RemoteAddr(); addr != nil {
		st.remote = addr.String()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]*connState)
	}
	s.conns[c] = st
	if s.m != nil {
		s.m.conns.Inc()
		s.m.connsActive.Add(1)
	}
	return st, true
}

func (s *Server) untrack(l net.Listener, c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l != nil {
		delete(s.listeners, l)
	}
	if c != nil {
		if _, ok := s.conns[c]; ok && s.m != nil {
			s.m.connsActive.Add(-1)
		}
		delete(s.conns, c)
	}
}

// Serve accepts connections on l until the listener fails or the
// server is closed. It always closes l before returning.
func (s *Server) Serve(l net.Listener) error {
	if s.Resolver == nil {
		l.Close()
		return errors.New("wire: Server.Resolver is required")
	}
	if !s.track(l) {
		l.Close()
		return ErrServerClosed
	}
	defer func() {
		s.untrack(l, nil)
		l.Close()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		st, ok := s.trackConn(conn)
		if !ok {
			conn.Close()
			return ErrServerClosed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(nil, conn)
			s.serveConn(conn, st)
		}()
	}
}

// Close stops accepting, closes every active connection, and waits
// for the per-connection goroutines to drain — after Close returns no
// server goroutine remains.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// countingReader feeds the connection's bufio reader while crediting
// bytes to the per-connection stat block and the registry counter.
type countingReader struct {
	conn net.Conn
	st   *connState
	m    *serverMetrics
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.conn.Read(p)
	if n > 0 {
		r.st.bytesRead.Add(uint64(n))
		if r.m != nil {
			r.m.bytesRead.AddAt(r.st.id, uint64(n))
		}
	}
	return n, err
}

// deadlineCut reports whether err is a deadline expiry (as opposed to
// a peer disconnect or protocol fault).
func deadlineCut(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// serveConn is the per-connection request loop; every buffer it needs
// is allocated once here and reused for the connection's lifetime, so
// the steady state — metrics included — allocates nothing per frame.
func (s *Server) serveConn(conn net.Conn, st *connState) {
	defer conn.Close()
	timeout := s.timeout()
	m := s.m
	tracer := s.Tracer
	var tres TracedResolver
	if tracer != nil {
		// Only worth the indirection when spans are on; the plain
		// interface call stays on the tracerless path.
		tres, _ = s.Resolver.(TracedResolver)
	}
	fr := NewFrameReader(bufio.NewReaderSize(&countingReader{conn: conn, st: st, m: m}, 64<<10))
	pairs := make([][2]int, 0, 1024)
	packed := make([]uint64, 0, 1024)
	wbuf := make([]byte, 0, 16<<10)
	cut := func(err error) {
		if deadlineCut(err) {
			st.deadlineCuts.Add(1)
			if m != nil {
				m.deadlineCuts.Inc()
			}
		}
	}
	write := func(buf []byte) error {
		conn.SetWriteDeadline(time.Now().Add(timeout))
		n, err := conn.Write(buf)
		if n > 0 {
			st.bytesWritten.Add(uint64(n))
			if m != nil {
				m.bytesWritten.AddAt(st.id, uint64(n))
			}
		}
		if err != nil {
			cut(err)
		}
		return err
	}
	fail := func(code byte, msg string) {
		// Best-effort: the peer may already be gone, and the
		// connection closes either way.
		write(AppendError(wbuf[:0], code, msg))
	}
	for {
		conn.SetReadDeadline(time.Now().Add(timeout))
		typ, payload, err := fr.Read()
		if err != nil {
			// A clean close between frames needs no error frame; a
			// malformed header gets one so the peer can tell protocol
			// rejection from a network fault.
			cut(err)
			if err == io.EOF {
				return
			}
			code := byte(ErrCodeMalformed)
			if errors.Is(err, ErrTooLarge) {
				code = ErrCodeOverflow
			}
			fail(code, err.Error())
			return
		}
		traced := typ == TypeResolveRequestTraced
		start := time.Now()
		if typ != TypeResolveRequest && !traced {
			fail(ErrCodeBadType, fmt.Sprintf("unexpected frame type %d (want resolve request)", typ))
			return
		}
		// The request span joins the client's trace when one came over
		// the wire (keeping its sampling verdict), else it gets a local
		// root keyed by connection and frame coordinates.
		var parent trace.SpanContext
		body := payload
		if traced {
			tc, terr := ParseTraceContext(payload)
			if terr != nil {
				fail(ErrCodeMalformed, terr.Error())
				return
			}
			parent = trace.SpanContext{
				Trace: trace.TraceID{Hi: tc.TraceHi, Lo: tc.TraceLo},
				Span:  tc.SpanID,
				Flags: tc.Flags,
			}
			body = payload[TraceContextSize:]
		} else {
			parent = tracer.Root(st.id, st.frames.Load()+1)
		}
		req := tracer.StartSpan(parent, spanRequest)
		ds := tracer.StartChild(req.Context(), spanDecode)
		pairs, err = DecodeResolveRequest(body, pairs[:0])
		ds.End()
		if err != nil {
			req.End()
			fail(ErrCodeMalformed, err.Error())
			return
		}
		var tm Timing
		tm.DecodeNS = time.Since(start).Nanoseconds()
		if cap(packed) < len(pairs) {
			packed = make([]uint64, len(pairs))
		}
		packed = packed[:len(pairs)]
		rs := tracer.StartChild(req.Context(), spanResolve)
		resolveStart := time.Now()
		var gen uint64
		if tres != nil {
			// Nest the resolver's own span under wire.resolve (under
			// the request when sampling dropped the stage child).
			rparent := rs.Context()
			if !rparent.Valid() {
				rparent = req.Context()
			}
			_, gen = tres.ResolveBatchPackedTraced(rparent, pairs, packed)
		} else {
			_, gen = s.Resolver.ResolveBatchPacked(pairs, packed)
		}
		tm.ResolveNS = time.Since(resolveStart).Nanoseconds()
		rs.SetAttr(attrPairs, int64(len(pairs)))
		rs.End()
		es := tracer.StartChild(req.Context(), spanEncode)
		encodeStart := time.Now()
		if traced {
			wbuf, err = AppendResolveResponseTraced(wbuf[:0], gen, packed, Timing{})
		} else {
			wbuf, err = AppendResolveResponse(wbuf[:0], gen, packed)
		}
		tm.EncodeNS = time.Since(encodeStart).Nanoseconds()
		es.End()
		if err != nil {
			req.End()
			fail(ErrCodeServer, err.Error())
			return
		}
		if traced {
			tm.TotalNS = time.Since(start).Nanoseconds()
			PatchTiming(wbuf, tm)
		}
		// The span ends before the flush: a client holding the
		// response must already find it in the recorder.
		req.SetAttr(attrPairs, int64(len(pairs)))
		req.SetAttr(attrGen, int64(gen))
		req.End()
		if err := write(wbuf); err != nil {
			return
		}
		st.frames.Add(1)
		if m != nil {
			m.frames.AddAt(st.id, 1)
			m.requestNS.Observe(time.Since(start).Nanoseconds())
		}
	}
}
