package orb

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/telemetry"
	"pardis/internal/transport"
)

// Client is the invocation side of the ORB. It stripes each endpoint
// across a small pool of cached connections (grown on demand up to the
// configured width), multiplexes concurrent requests over each, and
// routes inbound block transfers (out-arguments of multi-port
// invocations) to the engines expecting them. A Client is safe for
// concurrent use.
//
// Invocations are fault-tolerant to the extent the configured
// RetryPolicy allows: failures inside the safe-to-retry window are
// re-issued with exponential backoff, rotating across the endpoints
// offered to InvokeRef, steered by a per-endpoint circuit breaker.
type Client struct {
	reg   *transport.Registry
	order cdr.ByteOrder

	retry       RetryPolicy
	deadline    time.Duration // default per-invoke deadline (0 = none)
	health      *healthTable
	stripeWidth int                       // max connections per endpoint
	stripeCap   func(endpoint string) int // dynamic ceiling (nil/<=0 = stripeWidth)

	mu      sync.Mutex
	stripes map[string]*stripe
	closed  bool

	invPrefix  uint64
	invCounter atomic.Uint64
	blocks     *blockRouter

	// Interned-instrument caches: the telemetry registry's lookup
	// builds a label key per call, which is too hot for the invoke
	// path, so instruments are resolved once per op / endpoint.
	opMetrics sync.Map // operation → *clientOpMetrics
	epHists   sync.Map // endpoint → *telemetry.Histogram (attempt latency)
}

// clientOpMetrics holds the per-operation instruments the invoke path
// touches on every call.
type clientOpMetrics struct {
	invokes   *telemetry.Counter
	errors    *telemetry.Counter
	deadlines *telemetry.Counter
	retries   *telemetry.Counter
	latency   *telemetry.Histogram
}

func (c *Client) opMetricsFor(op string) *clientOpMetrics {
	if m, ok := c.opMetrics.Load(op); ok {
		return m.(*clientOpMetrics)
	}
	m := &clientOpMetrics{
		invokes:   telemetry.Default.Counter("pardis_client_invokes_total", "op", op),
		errors:    telemetry.Default.Counter("pardis_client_invoke_errors_total", "op", op),
		deadlines: telemetry.Default.Counter("pardis_client_deadline_misses_total", "op", op),
		retries:   telemetry.Default.Counter("pardis_client_retries_total", "op", op),
		latency:   telemetry.Default.Histogram("pardis_client_invoke_seconds", "op", op),
	}
	actual, _ := c.opMetrics.LoadOrStore(op, m)
	return actual.(*clientOpMetrics)
}

func (c *Client) attemptHist(ep string) *telemetry.Histogram {
	if h, ok := c.epHists.Load(ep); ok {
		return h.(*telemetry.Histogram)
	}
	h := telemetry.Default.Histogram("pardis_client_attempt_seconds", "endpoint", ep)
	actual, _ := c.epHists.LoadOrStore(ep, h)
	return actual.(*telemetry.Histogram)
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithByteOrder sets the byte order the client marshals in. The default
// is the host's (cdr.NativeOrder): CDR is receiver-makes-right, so the
// sender writes its own order, flags it, and bulk data moves by writev
// and memcpy. Nothing but tests and benchmarks sets this — it is their
// pin for playing a foreign-order peer.
func WithByteOrder(o cdr.ByteOrder) ClientOption {
	return func(c *Client) { c.order = o }
}

// WithRetryPolicy enables transparent retry of invocations that
// failed inside the safe-to-retry window.
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p }
}

// WithDefaultDeadline applies a deadline to every invocation whose
// context does not already carry one, so a hung or partitioned server
// cannot block Invoke forever.
func WithDefaultDeadline(d time.Duration) ClientOption {
	return func(c *Client) { c.deadline = d }
}

// WithBreaker tunes the endpoint circuit breaker: an endpoint is
// marked down after threshold consecutive transport failures and
// skipped by failover for cooldown, after which a single half-open
// probe decides whether it is back.
func WithBreaker(threshold int, cooldown time.Duration) ClientOption {
	return func(c *Client) { c.health = newHealthTable(threshold, cooldown) }
}

// DefaultStripeWidth is the per-endpoint connection-pool width used
// when WithStripes is not given: enough parallelism to stop concurrent
// invokes serializing on one write lock and read loop, without
// flooding servers with sockets.
func DefaultStripeWidth() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// WithStripes sets how many connections the client may open per
// endpoint. Connections are added lazily: a serial caller stays on
// one, and a new stripe connection is dialed only when every existing
// one is busy. Values below 1 are clamped to 1 (the pre-striping
// single-connection behavior). No binary or config field reaches this
// option: like WithByteOrder it is the orb tests' and benchmarks' pin
// for a fixed width; everything else runs at DefaultStripeWidth, plus
// WithStripeCap growth under auto-tune.
func WithStripes(n int) ClientOption {
	return func(c *Client) {
		if n < 1 {
			n = 1
		}
		c.stripeWidth = n
	}
}

// WithStripeCap installs a dynamic per-endpoint stripe ceiling: before
// each growth decision, conn consults cap(endpoint) and may open
// connections past the static width up to that value (a return <= 0
// means "no opinion" and the static width applies). Growth stays lazy —
// a new connection is still dialed only when every existing one is
// busy — so a larger cap costs nothing on an idle path. The self-tuning
// transport uses this to let its stripe recommendation take effect
// without rebuilding clients.
func WithStripeCap(capFn func(endpoint string) int) ClientOption {
	return func(c *Client) { c.stripeCap = capFn }
}

// NewClient creates a client using the given transport registry (nil
// means transport.Default).
func NewClient(reg *transport.Registry, opts ...ClientOption) *Client {
	if reg == nil {
		reg = transport.Default
	}
	c := &Client{
		reg:         reg,
		order:       cdr.NativeOrder,
		health:      newHealthTable(0, 0),
		stripeWidth: DefaultStripeWidth(),
		stripes:     make(map[string]*stripe),
		blocks:      newBlockRouter(),
	}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		// 24 random bits at positions 32-55: invocation ids stay
		// within giop.MaxBlockInvocationID so block sink keys
		// (inv<<8|arg) never truncate the prefix.
		c.invPrefix = binary.BigEndian.Uint64(seed[:]) & 0x00FFFFFF_00000000
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Order returns the byte order the client marshals in.
func (c *Client) Order() cdr.ByteOrder { return c.order }

// EndpointUp reports whether the client's health table currently
// believes endpoint is reachable (its circuit breaker is not open).
// Unknown endpoints are presumed up.
func (c *Client) EndpointUp(endpoint string) bool { return c.health.up(endpoint) }

// Health returns a snapshot of the per-endpoint circuit-breaker
// states, keyed by endpoint.
func (c *Client) Health() map[string]EndpointState { return c.health.snapshot() }

// NewInvocationID allocates an invocation id unique across this
// client process (random 24-bit prefix + 32-bit counter, always
// within giop.MaxBlockInvocationID).
func (c *Client) NewInvocationID() uint64 {
	return c.invPrefix | (c.invCounter.Add(1) & 0xFFFFFFFF)
}

// ExpectBlocksFunc registers a callback sink for block transfers
// addressed to this client under the given invocation id: blocks for
// inv are handed to fn directly on the delivering connection's read
// goroutine. fn may run concurrently (one call per delivering
// connection) and must not block; returning an error tears down that
// connection. The returned cancel must be called when the transfer
// completes.
func (c *Client) ExpectBlocksFunc(inv uint64, fn func(Block) error) (func(), error) {
	return c.blocks.registerFunc(inv, fn)
}

// BlockStats reports the client block router's sink/pending counts.
func (c *Client) BlockStats() BlockRouterStats { return c.blocks.stats() }

// stripe is one endpoint's small pool of connections. Concurrent
// invocations spread across its members by outstanding-request depth,
// so they stop contending on a single write lock and read loop.
type stripe struct {
	endpoint string
	conns    []*clientConn
	gauge    *telemetry.Gauge // pardis_client_stripe_conns{endpoint}
}

// freeSlot returns the smallest stripe index not held by a live
// connection, so the per-stripe depth gauges stay bounded by the
// stripe width however often connections churn.
func (st *stripe) freeSlot() int {
	for s := 0; ; s++ {
		used := false
		for _, cc := range st.conns {
			if cc.slot == s {
				used = true
				break
			}
		}
		if !used {
			return s
		}
	}
}

// conn returns a connection for endpoint from its stripe: the
// least-loaded live one, or — when every live connection is busy and
// the stripe has room — a freshly dialed one. Dial failures for the
// first connection are tagged ErrUnreachable (the request never left
// the process, so the retry layer may re-issue it freely); a failed
// growth dial falls back to the busiest-but-alive pick instead of
// failing the request.
func (c *Client) conn(endpoint string) (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	st := c.stripes[endpoint]
	if st == nil {
		st = &stripe{
			endpoint: endpoint,
			gauge:    telemetry.Default.Gauge("pardis_client_stripe_conns", "endpoint", endpoint),
		}
		c.stripes[endpoint] = st
	}
	var best *clientConn
	var bestDepth int64
	for _, cc := range st.conns {
		// Load = pending request/replies plus one-way sends in flight,
		// so pure block/put streams spread and grow stripes too.
		if d := cc.depth.Value() + cc.sending.Load(); best == nil || d < bestDepth {
			best, bestDepth = cc, d
		}
	}
	width := c.stripeWidth
	if c.stripeCap != nil {
		if w := c.stripeCap(endpoint); w > width {
			width = w
		}
	}
	if best != nil && (bestDepth == 0 || len(st.conns) >= width) {
		return best, nil
	}
	raw, err := c.reg.Dial(endpoint)
	if err != nil {
		if best != nil {
			return best, nil
		}
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, endpoint, err)
	}
	slot := st.freeSlot()
	cc := &clientConn{
		owner:    c,
		endpoint: endpoint,
		slot:     slot,
		raw:      raw,
		pending:  make(map[uint32]chan reply),
		depth: telemetry.Default.Gauge("pardis_client_stripe_depth",
			"endpoint", endpoint, "stripe", strconv.Itoa(slot)),
	}
	st.conns = append(st.conns, cc)
	st.gauge.Set(int64(len(st.conns)))
	go cc.readLoop()
	return cc, nil
}

// dropConn removes a dead connection from its stripe.
func (c *Client) dropConn(cc *clientConn) {
	c.mu.Lock()
	if st := c.stripes[cc.endpoint]; st != nil {
		for i, other := range st.conns {
			if other == cc {
				st.conns = append(st.conns[:i], st.conns[i+1:]...)
				break
			}
		}
		st.gauge.Set(int64(len(st.conns)))
		if len(st.conns) == 0 {
			delete(c.stripes, cc.endpoint)
		}
	}
	c.mu.Unlock()
}

// maxForwards bounds LOCATION_FORWARD chains.
const maxForwards = 4

// Invoke sends a request to endpoint and, unless the header marks it
// oneway, waits for the matching reply. The client assigns
// hdr.RequestID. body is the CDR-marshaled in-arguments, encoded in
// c.Order() starting at the offset right after the request header.
// Cancellation via ctx sends a CancelRequest and abandons the wait.
//
// Failures inside the safe-to-retry window are retried per the
// client's RetryPolicy, and the client's default deadline applies
// when ctx carries none.
//
// LOCATION_FORWARD replies are followed transparently (up to
// maxForwards hops, with cycle detection): the reply body carries a
// stringified IOR and the request is re-issued at the forwarded
// endpoints — the CORBA mechanism that lets objects migrate without
// breaking clients.
func (c *Client) Invoke(ctx context.Context, endpoint string, hdr giop.RequestHeader, body func(*cdr.Encoder)) (giop.ReplyHeader, cdr.ByteOrder, []byte, error) {
	return c.invokeEndpoints(ctx, []string{endpoint}, hdr, body, 0)
}

// InvokeRef invokes across all of a reference's failover endpoints:
// the attempt rotates to the next replica when one fails inside the
// safe-to-retry window, skipping endpoints whose circuit breaker is
// open. For SPMD references only the communicator endpoint is used.
func (c *Client) InvokeRef(ctx context.Context, ref *ior.Ref, hdr giop.RequestHeader, body func(*cdr.Encoder)) (giop.ReplyHeader, cdr.ByteOrder, []byte, error) {
	return c.invokeEndpoints(ctx, ref.FailoverEndpoints(), hdr, body, 0)
}

// invStats accumulates one logical invocation's attempt path — how
// many attempts ran, how often it hopped replicas, which endpoint
// answered (or failed last), and the sampled trace it rode — for the
// flight recorder and the latency exemplar.
type invStats struct {
	attempts  int
	failovers int
	endpoint  string
	traceID   uint64
}

// invokeEndpoints applies the default deadline, records the
// invocation's outcome and end-to-end latency (with a trace exemplar
// when sampled), offers the invocation to the flight recorder, and
// delegates to the forward-following engine. reresolves counts the
// InvokeNamed re-resolution rounds that preceded this call (0 for
// direct invokes).
func (c *Client) invokeEndpoints(ctx context.Context, endpoints []string, hdr giop.RequestHeader, body func(*cdr.Encoder), reresolves int) (giop.ReplyHeader, cdr.ByteOrder, []byte, error) {
	if len(endpoints) == 0 {
		return giop.ReplyHeader{}, 0, nil, fmt.Errorf("%w: no endpoints", ErrUnreachable)
	}
	if c.deadline > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.deadline)
			defer cancel()
		}
	}
	var deadlineRem time.Duration
	if dl, ok := ctx.Deadline(); ok {
		deadlineRem = time.Until(dl)
	}
	m := c.opMetricsFor(hdr.Operation)
	st := &invStats{}
	start := time.Now()
	rh, order, raw, err := c.invokeForward(ctx, endpoints, hdr, body, st)
	dur := time.Since(start)
	m.invokes.Inc()
	m.latency.ObserveDurationExemplar(dur, st.traceID)
	errStr := ""
	if err != nil {
		errStr = err.Error()
		m.errors.Inc()
		if errors.Is(err, ErrDeadlineExpired) ||
			(errors.Is(err, ErrCanceled) && errors.Is(ctx.Err(), context.DeadlineExceeded)) {
			m.deadlines.Inc()
		}
		if telemetry.LogEnabled(slog.LevelWarn) {
			telemetry.Logger().Warn("invoke failed", "op", hdr.Operation, "key", hdr.ObjectKey, "err", err)
		}
	}
	retries := st.attempts - 1
	if retries < 0 {
		retries = 0
	}
	telemetry.DefaultFlight.Record(telemetry.FlightRecord{
		Side: "client", Op: hdr.Operation, Key: hdr.ObjectKey,
		Endpoint: st.endpoint, Start: start, Duration: dur,
		Error: errStr, TraceID: st.traceID,
		Attempts: st.attempts, Retries: retries, Failovers: st.failovers,
		ReResolves: reresolves, DeadlineRemaining: deadlineRem,
	})
	return rh, order, raw, err
}

// invokeForward follows location forwards (bounded, cycle-checked),
// delegating each hop to the retry/failover engine.
func (c *Client) invokeForward(ctx context.Context, endpoints []string, hdr giop.RequestHeader, body func(*cdr.Encoder), st *invStats) (giop.ReplyHeader, cdr.ByteOrder, []byte, error) {
	seen := map[string]bool{endpoints[0]: true}
	for hop := 0; ; hop++ {
		rh, order, raw, err := c.invokeRetry(ctx, endpoints, hdr, body, st)
		if err != nil || rh.Status != giop.ReplyLocationForward {
			return rh, order, raw, err
		}
		if hop >= maxForwards {
			return rh, order, raw, fmt.Errorf("orb: too many location forwards (%d)", hop+1)
		}
		fwd, err := decodeForward(order, raw)
		if err != nil {
			return rh, order, raw, err
		}
		if seen[fwd[0]] {
			return rh, order, raw, fmt.Errorf("%w: %s seen twice after %d forwards",
				ErrForwardCycle, fwd[0], hop+1)
		}
		seen[fwd[0]] = true
		endpoints = fwd
	}
}

// invokeRetry runs the retry/backoff/failover loop for one logical
// request at one location (forward hops restart it).
func (c *Client) invokeRetry(ctx context.Context, endpoints []string, hdr giop.RequestHeader, body func(*cdr.Encoder), st *invStats) (giop.ReplyHeader, cdr.ByteOrder, []byte, error) {
	pol := c.retry
	attempts := pol.attempts()
	rotor := 0
	var lastErr error
	prevEp := ""
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if !pol.Budget.spend() {
				return giop.ReplyHeader{}, 0, nil,
					fmt.Errorf("orb: retry budget exhausted after %d attempts: %w", attempt-1, lastErr)
			}
			if err := sleepCtx(ctx, pol.backoff(attempt-1)); err != nil {
				return giop.ReplyHeader{}, 0, nil, fmt.Errorf("%w: %v (last error: %v)", ErrCanceled, err, lastErr)
			}
			c.opMetricsFor(hdr.Operation).retries.Inc()
		}
		ep := c.pickEndpoint(endpoints, rotor)
		if prevEp != "" && ep != prevEp {
			st.failovers++
			telemetry.Default.Counter("pardis_client_failovers_total").Inc()
			if telemetry.LogEnabled(slog.LevelInfo) {
				telemetry.Logger().Info("failing over",
					"op", hdr.Operation, "from", prevEp, "to", ep, "attempt", attempt)
			}
		}
		prevEp = ep
		st.attempts, st.endpoint = attempt, ep
		// Each attempt is its own span: the span's identity rides the
		// request header onto the wire, so the server's handler span
		// attaches under this exact attempt (not a sibling retry).
		attemptCtx := ctx
		var span *telemetry.Span
		if telemetry.TraceActive(ctx) {
			attemptCtx, span = telemetry.StartSpan(ctx, "client:"+hdr.Operation,
				telemetry.Attr{Key: "endpoint", Value: ep},
				telemetry.Attr{Key: "attempt", Value: strconv.Itoa(attempt)})
			if span != nil {
				st.traceID = span.TraceID
			}
		}
		attemptStart := time.Now()
		rh, order, raw, err := c.invokeOnce(attemptCtx, ep, hdr, body)
		c.attemptHist(ep).ObserveDuration(time.Since(attemptStart))
		if err == nil && rh.Status == giop.ReplySystemException {
			if ex, derr := giop.DecodeSystemException(cdr.NewDecoder(order, raw)); derr == nil {
				switch ex.Code {
				case "TRANSIENT":
					// A draining or overloaded server answers TRANSIENT:
					// treat it like a transport failure and move to
					// another replica.
					err = fmt.Errorf("%w: %s: %s", ErrTransient, ep, ex.Detail)
				case "TIMEOUT":
					// The server shed the request because the propagated
					// deadline expired. ErrDeadlineExpired is not
					// retryable — the budget is gone everywhere, not just
					// at that replica — so the loop returns it below.
					err = fmt.Errorf("%w: %s: %s", ErrDeadlineExpired, ep, ex.Detail)
				}
			}
		}
		if err != nil {
			span.Annotate("error", err.Error())
		}
		span.End()
		if err == nil {
			c.health.onSuccess(ep)
			pol.Budget.onSuccess()
			return rh, order, raw, nil
		}
		if retryable(err) {
			c.health.onFailure(ep, err)
		}
		if !retryable(err) || ctx.Err() != nil {
			return giop.ReplyHeader{}, 0, nil, err
		}
		lastErr = err
		rotor++ // prefer a different replica on the next attempt
	}
	if attempts > 1 {
		return giop.ReplyHeader{}, 0, nil,
			fmt.Errorf("orb: %d attempts across %d endpoints failed: %w", attempts, len(endpoints), lastErr)
	}
	return giop.ReplyHeader{}, 0, nil, lastErr
}

// pickEndpoint chooses the attempt's endpoint: the first one from
// position start (wrapping) whose breaker admits traffic, or — when
// every breaker is open — the nominal choice anyway, as a forced
// probe beats certain failure.
func (c *Client) pickEndpoint(endpoints []string, start int) string {
	n := len(endpoints)
	for i := 0; i < n; i++ {
		ep := endpoints[(start+i)%n]
		if c.health.allow(ep) {
			return ep
		}
	}
	return endpoints[start%n]
}

// decodeForward extracts the forwarded failover endpoints from a
// LOCATION_FORWARD reply body (a stringified IOR).
func decodeForward(order cdr.ByteOrder, body []byte) ([]string, error) {
	d := cdr.NewDecoderAt(order, body, 8)
	s, err := d.String()
	if err != nil {
		return nil, fmt.Errorf("orb: undecodable forward body: %w", err)
	}
	ref, err := ior.Parse(s)
	if err != nil {
		return nil, fmt.Errorf("orb: forward carries bad IOR: %w", err)
	}
	return ref.FailoverEndpoints(), nil
}

func (c *Client) invokeOnce(ctx context.Context, endpoint string, hdr giop.RequestHeader, body func(*cdr.Encoder)) (giop.ReplyHeader, cdr.ByteOrder, []byte, error) {
	cc, err := c.conn(endpoint)
	if err != nil {
		return giop.ReplyHeader{}, 0, nil, err
	}
	hdr.RequestID = cc.nextID.Add(1)
	// The attempt's trace identity (if any) rides the request header,
	// so the server continues this trace rather than rooting its own.
	hdr.Trace = telemetry.TraceFromContext(ctx)
	// So does the remaining deadline budget, as a relative duration
	// (immune to clock skew): the server rebases it on arrival, runs
	// the handler under it, and sheds the request outright when the
	// budget is already gone. An exhausted budget is stamped as one
	// microsecond rather than zero — zero means "no deadline".
	if dl, has := ctx.Deadline(); has {
		if rem := time.Until(dl); rem > 0 {
			hdr.DeadlineMicros = uint64(rem / time.Microsecond)
		}
		if hdr.DeadlineMicros == 0 {
			hdr.DeadlineMicros = 1
		}
	}

	// The request is marshaled into a pooled encoder, released as soon
	// as the frame write has consumed the bytes.
	e := giop.AcquireEncoder(c.order)
	hdr.Encode(e.Encoder)
	if body != nil {
		body(e.Encoder)
	}

	if !hdr.ResponseExpected {
		err := cc.write(giop.MsgRequest, e.Bytes())
		e.Release()
		if err != nil {
			return giop.ReplyHeader{}, 0, nil, err
		}
		return giop.ReplyHeader{RequestID: hdr.RequestID, Status: giop.ReplyOK}, c.order, nil, nil
	}

	ch := make(chan reply, 1)
	cc.addPending(hdr.RequestID, ch)
	defer cc.removePending(hdr.RequestID)

	werr := cc.write(giop.MsgRequest, e.Bytes())
	e.Release()
	if werr != nil {
		return giop.ReplyHeader{}, 0, nil, werr
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return giop.ReplyHeader{}, 0, nil, r.err
		}
		return r.hdr, r.order, r.body, nil
	case <-ctx.Done():
		// Best-effort cancel through the connection's preallocated
		// cancel frame; the reply, if it still comes, is discarded by
		// removePending.
		_ = cc.sendCancel(hdr.RequestID)
		// A deadline expiring with nothing framed back is a strike
		// against the connection — connDeadlineStrikes of them in a row
		// and it is evicted so the next attempt redials instead of
		// reusing a flow a one-way partition may have silently killed.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) &&
			cc.strikes.Add(1) >= connDeadlineStrikes {
			connEvictions.Inc()
			cc.shutdown(fmt.Errorf("%w: evicted after %d consecutive deadline misses",
				ErrConnectionLost, connDeadlineStrikes))
		}
		return giop.ReplyHeader{}, 0, nil, fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
	}
}

// SendBlock ships one block-transfer message to endpoint. payload is
// encoded by the callback at the correct stream offset. It returns the
// number of encoded payload bytes (the body minus the transfer
// header), so callers can account actual wire traffic for any element
// type.
func (c *Client) SendBlock(endpoint string, hdr giop.BlockTransferHeader, payload func(*cdr.Encoder)) (int, error) {
	cc, err := c.conn(endpoint)
	if err != nil {
		return 0, err
	}
	cc.sending.Add(1)
	defer cc.sending.Add(-1)
	e := giop.AcquireEncoder(c.order)
	hdr.Encode(e.Encoder)
	hdrLen := e.Len()
	if payload != nil {
		payload(e.Encoder)
	}
	n := e.Len() - hdrLen
	err = cc.write(giop.MsgBlockTransfer, e.Bytes())
	e.Release()
	return n, err
}

// PutWindow ships one one-sided window put to endpoint. The header
// comes from a pooled encoder; on the native-byte-order path the
// element payload gather-writes straight from blk (one writev, zero
// copies into frame buffers), so blk must stay unmodified until
// PutWindow returns. Count is taken from len(blk), keeping header and
// payload consistent by construction. Returns the payload byte count.
func (c *Client) PutWindow(endpoint string, hdr giop.WindowPutHeader, blk []float64) (int, error) {
	cc, err := c.conn(endpoint)
	if err != nil {
		return 0, err
	}
	cc.sending.Add(1)
	defer cc.sending.Add(-1)
	hdr.Count = uint32(len(blk))
	e := giop.AcquireEncoder(c.order)
	hdr.Encode(e.Encoder)
	n := len(blk) * 8
	if c.order == cdr.NativeOrder {
		err = cc.writeTail(giop.MsgWindowPut, e.Bytes(), cdr.Float64Bytes(blk))
	} else {
		e.PutDoubles(blk)
		err = cc.write(giop.MsgWindowPut, e.Bytes())
	}
	e.Release()
	return n, err
}

// Locate asks whether endpoint serves the object key, returning the
// locate status and, for LocateForward, the stringified IOR to retry.
func (c *Client) Locate(ctx context.Context, endpoint, key string) (giop.LocateStatus, string, error) {
	cc, err := c.conn(endpoint)
	if err != nil {
		return 0, "", err
	}
	id := cc.nextID.Add(1)
	e := giop.AcquireEncoder(c.order)
	(&giop.LocateRequestHeader{RequestID: id, ObjectKey: key}).Encode(e.Encoder)

	ch := make(chan reply, 1)
	cc.addPending(id, ch)
	defer cc.removePending(id)
	werr := cc.write(giop.MsgLocateRequest, e.Bytes())
	e.Release()
	if werr != nil {
		return 0, "", werr
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return 0, "", r.err
		}
		d := cdr.NewDecoder(r.order, r.body)
		lh, err := giop.DecodeLocateReplyHeader(d)
		if err != nil {
			return 0, "", err
		}
		fwd := ""
		if lh.Status == giop.LocateForward {
			if fwd, err = d.String(); err != nil {
				return 0, "", err
			}
		}
		return lh.Status, fwd, nil
	case <-ctx.Done():
		return 0, "", fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
	}
}

// Close shuts down every cached connection. In-flight invocations
// fail with ErrConnectionLost.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := make([]*clientConn, 0, len(c.stripes))
	for _, st := range c.stripes {
		conns = append(conns, st.conns...)
	}
	c.stripes = make(map[string]*stripe)
	c.mu.Unlock()
	for _, cc := range conns {
		cc.shutdown(ErrClosed)
	}
	return nil
}

// reply is what the read loop hands back to a waiting invoker.
type reply struct {
	hdr   giop.ReplyHeader
	order cdr.ByteOrder
	body  []byte
	err   error
}

// clientConn is one stripe member: a cached connection with a reader
// goroutine and an outstanding-request depth gauge the stripe's
// least-loaded pick reads.
// connDeadlineStrikes is how many consecutive deadline-expired waits
// (with no reply delivered in between) a pooled connection survives
// before it is evicted as suspect. A one-way partition — writes
// swallowed, nothing framed back, the socket itself never erroring —
// would otherwise wedge the pool: every later invoke reuses the dead
// connection and pays a full timeout, forever. Three strikes tolerate
// a genuinely slow server (any reply resets the count) while bounding
// how long a blackholed flow can haunt an endpoint.
const connDeadlineStrikes = 3

var connEvictions = telemetry.Default.Counter("pardis_client_conn_evictions_total")

type clientConn struct {
	owner    *Client
	endpoint string
	slot     int // stripe index, stable for this connection's lifetime
	raw      transport.Conn
	nextID   atomic.Uint32
	depth    *telemetry.Gauge // pardis_client_stripe_depth{endpoint,stripe}
	sending  atomic.Int64     // one-way writes (block/put) in flight
	strikes  atomic.Int32     // consecutive deadline misses, reset by any reply

	writeMu   sync.Mutex
	cancelBuf [4]byte // preallocated CancelRequest body, guarded by writeMu

	mu      sync.Mutex
	pending map[uint32]chan reply
	dead    bool
}

func (cc *clientConn) write(t giop.MsgType, body []byte) error {
	cc.writeMu.Lock()
	defer cc.writeMu.Unlock()
	if err := giop.WriteMessage(cc.raw, cc.owner.order, t, body); err != nil {
		cc.shutdown(fmt.Errorf("%w: %v", ErrConnectionLost, err))
		return fmt.Errorf("%w: %v", ErrConnectionLost, err)
	}
	return nil
}

// writeTail frames head+tail as one message under the write lock; see
// giop.WriteMessageTail.
func (cc *clientConn) writeTail(t giop.MsgType, head, tail []byte) error {
	cc.writeMu.Lock()
	defer cc.writeMu.Unlock()
	if err := giop.WriteMessageTail(cc.raw, cc.owner.order, t, head, tail); err != nil {
		cc.shutdown(fmt.Errorf("%w: %v", ErrConnectionLost, err))
		return fmt.Errorf("%w: %v", ErrConnectionLost, err)
	}
	return nil
}

// sendCancel writes a CancelRequest for id through the connection's
// preallocated single-ULong body (wire-identical to encoding a
// CancelRequestHeader), so the cancel path — usually taken under
// deadline pressure — allocates nothing.
func (cc *clientConn) sendCancel(id uint32) error {
	cc.writeMu.Lock()
	defer cc.writeMu.Unlock()
	if cc.owner.order == cdr.BigEndian {
		binary.BigEndian.PutUint32(cc.cancelBuf[:], id)
	} else {
		binary.LittleEndian.PutUint32(cc.cancelBuf[:], id)
	}
	if err := giop.WriteMessage(cc.raw, cc.owner.order, giop.MsgCancelRequest, cc.cancelBuf[:]); err != nil {
		cc.shutdown(fmt.Errorf("%w: %v", ErrConnectionLost, err))
		return fmt.Errorf("%w: %v", ErrConnectionLost, err)
	}
	return nil
}

func (cc *clientConn) addPending(id uint32, ch chan reply) {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		ch <- reply{err: ErrConnectionLost}
		return
	}
	cc.pending[id] = ch
	cc.depth.Inc()
	cc.mu.Unlock()
}

// takePending removes and returns the waiter for id. The depth gauge
// is decremented only when an entry was actually removed, so the read
// loop and the invoker's deferred removePending cannot double-count.
func (cc *clientConn) takePending(id uint32) (chan reply, bool) {
	cc.mu.Lock()
	ch, ok := cc.pending[id]
	if ok {
		delete(cc.pending, id)
		cc.depth.Dec()
	}
	cc.mu.Unlock()
	return ch, ok
}

func (cc *clientConn) removePending(id uint32) {
	cc.takePending(id)
}

// shutdown closes the socket and fails all waiters exactly once.
func (cc *clientConn) shutdown(cause error) {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return
	}
	cc.dead = true
	waiters := cc.pending
	cc.pending = make(map[uint32]chan reply)
	if n := len(waiters); n > 0 {
		cc.depth.Add(-int64(n))
	}
	cc.mu.Unlock()
	cc.raw.Close()
	cc.owner.dropConn(cc)
	for _, ch := range waiters {
		select {
		case ch <- reply{err: cause}:
		default:
		}
	}
}

func (cc *clientConn) readLoop() {
	// A FrameReader buffers the socket so a header+body pair costs one
	// raw Read in the common case. Reply/LocateReply/BlockTransfer
	// bodies transfer ownership out of the loop (never pooled), so
	// slicing them into reply/Block values is safe; control-frame
	// bodies are released back to the frame pool here.
	fr := giop.NewFrameReader(cc.raw)
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			cc.shutdown(fmt.Errorf("%w: %v", ErrConnectionLost, err))
			return
		}
		switch f.Type {
		case giop.MsgReply:
			d := cdr.NewDecoder(f.Order, f.Body)
			rh, err := giop.DecodeReplyHeader(d)
			if err != nil {
				cc.shutdown(fmt.Errorf("%w: bad reply header: %v", ErrConnectionLost, err))
				return
			}
			cc.strikes.Store(0) // the flow demonstrably delivers replies
			if ch, ok := cc.takePending(rh.RequestID); ok {
				ch <- reply{hdr: rh, order: f.Order, body: f.Body[d.Pos():]}
			}
		case giop.MsgLocateReply:
			// LocateReply shares the pending table; the request id
			// is the header's first field in both layouts.
			d := cdr.NewDecoder(f.Order, f.Body)
			id, err := d.ULong()
			if err != nil {
				cc.shutdown(fmt.Errorf("%w: bad locate reply: %v", ErrConnectionLost, err))
				return
			}
			if ch, ok := cc.takePending(id); ok {
				ch <- reply{order: f.Order, body: f.Body}
			}
		case giop.MsgBlockTransfer:
			d := cdr.NewDecoder(f.Order, f.Body)
			bh, err := giop.DecodeBlockTransferHeader(d)
			if err != nil {
				cc.shutdown(fmt.Errorf("%w: bad block header: %v", ErrConnectionLost, err))
				return
			}
			blk := Block{Header: bh, Order: f.Order, Payload: f.Body[d.Pos():]}
			if err := cc.owner.blocks.deliver(blk); err != nil {
				cc.shutdown(err)
				return
			}
		case giop.MsgCloseConnection:
			// Orderly shutdown: the server promises it processed
			// nothing further, so waiters may re-issue elsewhere.
			f.Release()
			cc.shutdown(ErrServerClosed)
			return
		case giop.MsgError:
			f.Release()
			cc.shutdown(ErrConnectionLost)
			return
		default:
			// Requests arriving at a client connection are a
			// protocol violation.
			f.Release()
			cc.shutdown(fmt.Errorf("%w: unexpected %v on client connection", ErrConnectionLost, f.Type))
			return
		}
	}
}
