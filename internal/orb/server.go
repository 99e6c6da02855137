package orb

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/telemetry"
	"pardis/internal/transport"
)

// Handler processes one inbound request. It runs on its own goroutine
// and must eventually call exactly one of the Incoming reply methods
// (unless the request is oneway).
type Handler func(in *Incoming)

// Incoming is one request as seen by a Handler.
type Incoming struct {
	// Header is the decoded request header.
	Header giop.RequestHeader
	// Order is the byte order of Body.
	Order cdr.ByteOrder
	// Body is the CDR-encoded in-arguments (stream offset continues
	// from the request header).
	Body []byte
	// BodyBase is the stream offset at which Body starts, for
	// alignment-correct decoding.
	BodyBase int
	// Ctx is canceled if the client sends CancelRequest or the
	// connection drops, and carries the client's propagated deadline
	// when the request header had one.
	Ctx context.Context
	// Expiry is the propagated deadline rebased onto this host's
	// clock (zero when the client sent no deadline): the moment the
	// caller stops waiting for a reply.
	Expiry time.Time

	// Endpoint is the bound endpoint the request arrived at — for
	// SPMD servers, which thread's port.
	Endpoint string

	conn *serverConn
}

// Decoder returns a CDR decoder positioned at the first in-argument.
func (in *Incoming) Decoder() *cdr.Decoder {
	return cdr.NewDecoderAt(in.Order, in.Body, in.BodyBase)
}

// Reply sends a normal or exceptional reply with a marshaled body.
func (in *Incoming) Reply(status giop.ReplyStatus, body func(*cdr.Encoder)) error {
	if !in.Header.ResponseExpected {
		return nil
	}
	e := giop.AcquireEncoder(in.conn.srv.order)
	(&giop.ReplyHeader{RequestID: in.Header.RequestID, Status: status}).Encode(e.Encoder)
	if body != nil {
		body(e.Encoder)
	}
	err := in.conn.write(giop.MsgReply, e.Bytes())
	e.Release()
	return err
}

// ReplySystemException reports a PIOP-level failure.
func (in *Incoming) ReplySystemException(code, detail string) error {
	ex := &giop.SystemException{Code: code, Detail: detail}
	return in.Reply(giop.ReplySystemException, ex.Encode)
}

// ReplyForward redirects the client to another object location; the
// client's ORB transparently retries there.
func (in *Incoming) ReplyForward(stringifiedIOR string) error {
	return in.Reply(giop.ReplyLocationForward, func(e *cdr.Encoder) {
		e.PutString(stringifiedIOR)
	})
}

// Server is the object-adapter side of the ORB: it owns listeners,
// dispatches requests to handlers by object key, answers locate
// queries, and routes inbound block transfers.
type Server struct {
	reg   *transport.Registry
	order cdr.ByteOrder

	mu        sync.Mutex
	listeners []transport.Listener
	handlers  map[string]Handler
	conns     map[*serverConn]struct{}
	draining  bool
	closed    bool

	adm *admission // nil = no admission control

	blocks   *blockRouter
	quit     chan struct{} // closed once on Close/Shutdown; stops the sweeper
	quitOnce sync.Once
	wg       sync.WaitGroup // accept loops, connection readers, sweeper
	reqWG    sync.WaitGroup // in-flight request handlers

	// Interned per-object-key instruments, cached because the registry
	// lookup builds a label key per call — too hot for dispatch.
	keyMetrics sync.Map // object key → *serverKeyMetrics
}

// serverInflight is the process-wide in-dispatch gauge (no labels, so
// it is interned once at package load).
var serverInflight = telemetry.Default.Gauge("pardis_server_inflight")

// serverKeyMetrics holds the per-key instruments touched on every
// dispatched request.
type serverKeyMetrics struct {
	requests *telemetry.Counter
	latency  *telemetry.Histogram
}

func (s *Server) keyMetricsFor(key string) *serverKeyMetrics {
	if m, ok := s.keyMetrics.Load(key); ok {
		return m.(*serverKeyMetrics)
	}
	m := &serverKeyMetrics{
		requests: telemetry.Default.Counter("pardis_server_requests_total", "key", key),
		latency:  telemetry.Default.Histogram("pardis_server_request_seconds", "key", key),
	}
	actual, _ := s.keyMetrics.LoadOrStore(key, m)
	return actual.(*serverKeyMetrics)
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerByteOrder sets the byte order replies are marshaled in
// (default: the host's, see WithByteOrder; this is the tests' pin for a
// foreign-order server).
func WithServerByteOrder(o cdr.ByteOrder) ServerOption {
	return func(s *Server) { s.order = o }
}

// WithPendingPolicy bounds the server's early-block pending buffer
// (block count, byte budget, abandonment TTL and sweep cadence). Zero
// fields take the package defaults.
func WithPendingPolicy(p PendingPolicy) ServerOption {
	return func(s *Server) { s.blocks.pol = p.withDefaults() }
}

// NewServer creates a server using the given transport registry (nil
// means transport.Default).
func NewServer(reg *transport.Registry, opts ...ServerOption) *Server {
	if reg == nil {
		reg = transport.Default
	}
	s := &Server{
		reg:      reg,
		order:    cdr.NativeOrder,
		handlers: make(map[string]Handler),
		conns:    make(map[*serverConn]struct{}),
		blocks:   newBlockRouter(),
		quit:     make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	// The pending sweeper reclaims early-block buffers abandoned past
	// the TTL — the residue of clients that died between shipping
	// blocks and issuing the invocation that would have consumed them.
	s.wg.Add(1)
	go s.pendingSweepLoop()
	return s
}

func (s *Server) pendingSweepLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.blocks.pol.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			now := time.Now()
			s.blocks.sweep(now)
			s.blocks.sweepWindows(now)
		case <-s.quit:
			return
		}
	}
}

// stopSweeper releases the background sweeper; safe to call from both
// shutdown paths (and more than once).
func (s *Server) stopSweeper() {
	s.quitOnce.Do(func() { close(s.quit) })
}

// Order returns the byte order the server marshals replies in.
func (s *Server) Order() cdr.ByteOrder { return s.order }

// Handle installs a handler for an object key.
func (s *Server) Handle(key string, h Handler) {
	s.mu.Lock()
	s.handlers[key] = h
	s.mu.Unlock()
}

// Unhandle removes a handler.
func (s *Server) Unhandle(key string) {
	s.mu.Lock()
	delete(s.handlers, key)
	s.mu.Unlock()
}

// handler looks up the handler for a key.
func (s *Server) handler(key string) (Handler, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.handlers[key]
	return h, ok
}

// ExpectBlocksFunc registers a callback sink for inbound block
// transfers under an invocation id: blocks for inv are handed to fn
// directly on the delivering connection's read goroutine,
// so blocks from different senders (different connections) are
// assembled concurrently. fn must be safe for concurrent use and must
// not block; returning an error tears down that connection.
func (s *Server) ExpectBlocksFunc(inv uint64, fn func(Block) error) (func(), error) {
	return s.blocks.registerFunc(inv, fn)
}

// RegisterWindow exposes dst as a one-sided destination window:
// MsgWindowPut frames addressed to id land straight off the delivering
// connection's read buffer into dst[DstOff:DstOff+Count], bounds
// checked, until expect elements have arrived (puts that raced the
// registration are flushed from the pending buffer first). The
// returned cancel must be called on every exit path — it removes the
// registration so later strays buffer (and age out) instead of
// writing into a reclaimed slice.
// onPut, when non-nil, runs after every landed put on the delivering
// connection's read goroutine (a liveness hook; it must not block).
func (s *Server) RegisterWindow(id uint64, dst []float64, expect int64, onPut func()) (*Window, func(), error) {
	return s.blocks.registerWindow(id, dst, expect, onPut)
}

// BlockStats reports the server block router's sink/pending counts.
func (s *Server) BlockStats() BlockRouterStats { return s.blocks.stats() }

// Listen binds an endpoint ("tcp:host:port", port 0 for ephemeral, or
// "inproc:name"/"inproc:*") and serves connections on it until Close.
// It returns the resolved endpoint to advertise in object references.
func (s *Server) Listen(endpoint string) (string, error) {
	l, err := s.reg.Listen(endpoint)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return "", ErrClosed
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Endpoint(), nil
}

func (s *Server) acceptLoop(l transport.Listener) {
	defer s.wg.Done()
	for {
		raw, err := l.Accept()
		if err != nil {
			return
		}
		sc := &serverConn{
			srv:      s,
			raw:      raw,
			endpoint: l.Endpoint(),
			inflight: make(map[uint32]context.CancelFunc),
		}
		if s.adm != nil && s.adm.cfg.MaxPerConn > 0 {
			sc.slots = make(chan struct{}, s.adm.cfg.MaxPerConn)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			raw.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sc.readLoop()
			s.mu.Lock()
			delete(s.conns, sc)
			s.mu.Unlock()
		}()
	}
}

// Close stops all listeners and connections immediately and waits for
// the serving goroutines to drain. In-flight requests are canceled.
// For an orderly stop that lets clients fail over, use Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ls := s.listeners
	s.listeners = nil
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	s.stopSweeper()
	for _, l := range ls {
		l.Close()
	}
	for _, sc := range conns {
		sc.close()
	}
	s.wg.Wait()
	return nil
}

// Shutdown stops the server gracefully: it stops accepting
// connections, rejects newly arriving requests with a TRANSIENT
// system exception (which the client retry layer treats as an
// invitation to fail over), waits for in-flight requests to complete
// until ctx expires, then announces MsgCloseConnection on every
// connection — so clients see an orderly close and re-issue pending
// work elsewhere instead of hitting raw resets — and finally tears
// the connections down.
//
// It returns ctx.Err() when the drain deadline expired before all
// in-flight requests finished (they were then canceled), nil on a
// clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	alreadyDraining := s.draining
	s.draining = true
	ls := s.listeners
	s.listeners = nil
	s.mu.Unlock()
	if alreadyDraining {
		return nil // a concurrent Shutdown is already in charge
	}
	for _, l := range ls {
		l.Close()
	}

	// Drain in-flight handlers up to the deadline.
	drainStart := time.Now()
	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
	}
	telemetry.Default.Histogram("pardis_server_drain_seconds").ObserveDuration(time.Since(drainStart))
	if telemetry.LogEnabled(slog.LevelInfo) {
		telemetry.Logger().Info("server drained",
			"duration", time.Since(drainStart), "clean", drainErr == nil)
	}

	s.mu.Lock()
	s.closed = true
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	s.stopSweeper()
	for _, sc := range conns {
		// Best-effort goodbye; the close that follows is what
		// guarantees progress.
		_ = sc.write(giop.MsgCloseConnection, nil)
		sc.close()
	}
	s.wg.Wait()
	return drainErr
}

// Draining reports whether the server is in a graceful shutdown.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// serverConn is one accepted connection.
type serverConn struct {
	srv      *Server
	raw      transport.Conn
	endpoint string

	writeMu sync.Mutex

	// slots is the per-connection admission gate (nil = unlimited).
	slots chan struct{}

	mu       sync.Mutex
	inflight map[uint32]context.CancelFunc
	dead     bool
}

func (sc *serverConn) write(t giop.MsgType, body []byte) error {
	sc.writeMu.Lock()
	defer sc.writeMu.Unlock()
	if err := giop.WriteMessage(sc.raw, sc.srv.order, t, body); err != nil {
		sc.close()
		return fmt.Errorf("%w: %v", ErrConnectionLost, err)
	}
	return nil
}

func (sc *serverConn) close() {
	sc.mu.Lock()
	if sc.dead {
		sc.mu.Unlock()
		return
	}
	sc.dead = true
	cancels := make([]context.CancelFunc, 0, len(sc.inflight))
	for _, c := range sc.inflight {
		cancels = append(cancels, c)
	}
	sc.inflight = make(map[uint32]context.CancelFunc)
	sc.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	sc.raw.Close()
}

func (sc *serverConn) readLoop() {
	defer sc.close()
	// The FrameReader buffers the socket (one raw Read per header+body
	// in the common case) and surfaces the sender's protocol minor
	// version, which the header decoder needs: 1.0 peers frame request
	// headers without trace bytes. Control-frame bodies are pooled and
	// released here once decoded; Request/BlockTransfer bodies escape
	// to handlers and block sinks, so ownership transfers with them.
	fr := giop.NewFrameReader(sc.raw)
	for {
		fh, err := fr.ReadFrameHeader()
		if err != nil {
			return
		}
		// Window puts take the one-sided fast path before the body is
		// read: a registered window receives its payload straight off
		// the read buffer with no body allocation.
		if fh.Type == giop.MsgWindowPut {
			if err := sc.handleWindowPut(fr, fh); err != nil {
				return
			}
			continue
		}
		f, err := fr.ReadFrameBody(fh)
		if err != nil {
			return
		}
		t, order, body := f.Type, f.Order, f.Body
		switch t {
		case giop.MsgRequest:
			if err := sc.handleRequest(f.Minor, order, body); err != nil {
				return
			}
		case giop.MsgLocateRequest:
			err := sc.handleLocate(order, body)
			f.Release()
			if err != nil {
				return
			}
		case giop.MsgCancelRequest:
			d := cdr.NewDecoder(order, body)
			ch, err := giop.DecodeCancelRequestHeader(d)
			f.Release()
			if err != nil {
				return
			}
			sc.mu.Lock()
			cancel := sc.inflight[ch.RequestID]
			sc.mu.Unlock()
			if cancel != nil {
				cancel()
			}
		case giop.MsgBlockTransfer:
			d := cdr.NewDecoder(order, body)
			bh, err := giop.DecodeBlockTransferHeader(d)
			if err != nil {
				return
			}
			blk := Block{Header: bh, Order: order, Payload: body[d.Pos():]}
			if err := sc.srv.blocks.deliver(blk); err != nil {
				return
			}
		case giop.MsgCloseConnection, giop.MsgError:
			f.Release()
			return
		default:
			// Replies have no business arriving at a server.
			f.Release()
			_ = giop.WriteMessage(sc.raw, sc.srv.order, giop.MsgError, nil)
			return
		}
	}
}

// handleWindowPut lands one MsgWindowPut. Registered window: payload
// streams wire → destination slice (bounds checked first; a range
// violation poisons the window, not the connection, and the payload is
// skimmed to keep the stream framed). Unregistered window: the payload
// is buffered (in a recycled buffer) under the pending budgets until
// registration, exactly like an early routed block. Only stream-level failures tear the
// connection down.
func (sc *serverConn) handleWindowPut(fr *giop.FrameReader, fh giop.FrameHeader) error {
	wh, err := fr.ReadWindowPut(fh)
	if err != nil {
		return err
	}
	if w, ok := sc.srv.blocks.windowFor(wh.WindowID); ok {
		if err := w.checkRange(wh); err != nil {
			w.fail(err)
			return fr.DiscardPayload(int(wh.Count) * 8)
		}
		dst := w.dst[wh.DstOff : int64(wh.DstOff)+int64(wh.Count)]
		if err := fr.ReadWindowPayload(fh.Order, dst); err != nil {
			return err
		}
		w.landed(wh.Count)
		return nil
	}
	buf := acquirePutBuf(int(wh.Count) * 8)
	if err := fr.ReadPayloadBytes(*buf); err != nil {
		releasePutBuf(buf)
		return err
	}
	return sc.srv.blocks.bufferWindowPut(wh, fh.Order, buf)
}

func (sc *serverConn) handleRequest(minor byte, order cdr.ByteOrder, body []byte) error {
	d := cdr.NewDecoder(order, body)
	hdr, err := giop.DecodeRequestHeaderV(d, minor)
	if err != nil {
		// Unparseable request: poison the stream, give up.
		return fmt.Errorf("orb: bad request header: %w", err)
	}
	in := &Incoming{
		Header:   hdr,
		Order:    order,
		Body:     body[d.Pos():],
		BodyBase: d.Pos(),
		Endpoint: sc.endpoint,
		conn:     sc,
	}
	h, ok := sc.srv.handler(hdr.ObjectKey)
	if !ok {
		telemetry.Default.Counter("pardis_server_no_object_total", "key", hdr.ObjectKey).Inc()
		_ = in.ReplySystemException("OBJECT_NOT_EXIST",
			fmt.Sprintf("no object with key %q", hdr.ObjectKey))
		return nil
	}
	// Admission is gated on the drain flag under the server mutex, so
	// Shutdown's reqWG.Wait cannot race a late Add: once draining is
	// observed set, no new handler starts; requests arriving during
	// the drain are bounced with TRANSIENT, which the client retry
	// layer converts into failover.
	sc.srv.mu.Lock()
	if sc.srv.draining {
		sc.srv.mu.Unlock()
		telemetry.Default.Counter("pardis_server_transient_rejections_total").Inc()
		_ = in.ReplySystemException("TRANSIENT", "server draining")
		return nil
	}
	sc.srv.reqWG.Add(1)
	sc.srv.mu.Unlock()
	// The propagated deadline is a relative budget (microseconds left
	// when the client wrote the request), immune to clock skew: it is
	// rebased onto this host's clock on arrival and becomes the
	// handler context's deadline, so servants and anything they invoke
	// downstream inherit the caller's remaining patience.
	var ctx context.Context
	var cancel context.CancelFunc
	if hdr.DeadlineMicros > 0 {
		in.Expiry = time.Now().Add(time.Duration(hdr.DeadlineMicros) * time.Microsecond)
		ctx, cancel = context.WithDeadline(context.Background(), in.Expiry)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	// A trace identity on the wire continues the caller's trace: the
	// handler span (and anything the handler invokes through a client
	// with this ctx) attaches under the client's attempt span.
	if hdr.Trace.Valid() {
		ctx = telemetry.ContextWithTrace(ctx, hdr.Trace)
	}
	var span *telemetry.Span
	if telemetry.TraceActive(ctx) {
		ctx, span = telemetry.StartSpan(ctx, "server:"+hdr.Operation,
			telemetry.Attr{Key: "key", Value: hdr.ObjectKey},
			telemetry.Attr{Key: "endpoint", Value: sc.endpoint})
	}
	in.Ctx = ctx
	if hdr.ResponseExpected {
		sc.mu.Lock()
		if sc.dead {
			sc.mu.Unlock()
			cancel()
			span.End()
			sc.srv.reqWG.Done()
			return nil
		}
		sc.inflight[hdr.RequestID] = cancel
		sc.mu.Unlock()
	}
	km := sc.srv.keyMetricsFor(hdr.ObjectKey)
	serverInflight.Inc()
	start := time.Now()
	go func() {
		// Dispatch accounting for the flight recorder: how long the
		// request sat in the admission gate, how much deadline budget
		// was left when the handler finally started, and why it was
		// shed (when it was). Written in the goroutine body, read only
		// by its own deferred record below.
		var queueWait, dispatchRem time.Duration
		var failure string
		defer func() {
			if hdr.ResponseExpected {
				sc.mu.Lock()
				delete(sc.inflight, hdr.RequestID)
				sc.mu.Unlock()
			}
			cancel()
			if p := recover(); p != nil {
				// A panicking servant becomes a system exception,
				// not a dead server.
				telemetry.Default.Counter("pardis_server_panics_total", "key", hdr.ObjectKey).Inc()
				span.Annotate("panic", fmt.Sprint(p))
				if telemetry.LogEnabled(slog.LevelError) {
					telemetry.Logger().Error("servant panic",
						"key", hdr.ObjectKey, "op", hdr.Operation, "panic", fmt.Sprint(p))
				}
				_ = in.ReplySystemException("UNKNOWN", fmt.Sprintf("servant panic: %v", p))
				failure = fmt.Sprintf("servant panic: %v", p)
			}
			span.End()
			serverInflight.Dec()
			km.requests.Inc()
			dur := time.Since(start)
			var tid uint64
			if span != nil {
				tid = span.TraceID
			}
			km.latency.ObserveDurationExemplar(dur, tid)
			telemetry.DefaultFlight.Record(telemetry.FlightRecord{
				Side: "server", Op: hdr.Operation, Key: hdr.ObjectKey,
				Endpoint: sc.endpoint, Start: start, Duration: dur,
				Error: failure, TraceID: tid,
				QueueWait: queueWait, DeadlineRemaining: dispatchRem,
			})
			sc.srv.reqWG.Done()
		}()
		// Shed work whose budget is already gone before dispatching the
		// handler: the caller has stopped waiting, so the TIMEOUT reply
		// only tells its ORB to stop too.
		if !in.Expiry.IsZero() && !time.Now().Before(in.Expiry) {
			shedExpired.Inc()
			failure = "deadline expired before dispatch"
			_ = in.ReplySystemException("TIMEOUT", "request deadline expired before dispatch")
			return
		}
		if sc.srv.adm != nil {
			admitStart := time.Now()
			release, ok := sc.srv.admit(in)
			queueWait = time.Since(admitStart)
			if !ok {
				failure = "shed by admission control"
				return
			}
			defer release()
		}
		if !in.Expiry.IsZero() {
			dispatchRem = time.Until(in.Expiry)
		}
		h(in)
	}()
	return nil
}

func (sc *serverConn) handleLocate(order cdr.ByteOrder, body []byte) error {
	d := cdr.NewDecoder(order, body)
	lh, err := giop.DecodeLocateRequestHeader(d)
	if err != nil {
		return fmt.Errorf("orb: bad locate header: %w", err)
	}
	status := giop.LocateUnknown
	if _, ok := sc.srv.handler(lh.ObjectKey); ok {
		status = giop.LocateHere
	}
	e := giop.AcquireEncoder(sc.srv.order)
	(&giop.LocateReplyHeader{RequestID: lh.RequestID, Status: status}).Encode(e.Encoder)
	err = sc.write(giop.MsgLocateReply, e.Bytes())
	e.Release()
	return err
}
