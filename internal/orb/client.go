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
// ships one-sided window puts, the multi-port data plane (out-arguments
// come back the same way, as puts to the binding's receive Server), on a
// second stripe of its own: no connection carries both a Request and a
// put, because a put that beats its window's registration stalls its
// connection until the window registers, and a Request queued behind it
// may be what the registration waits for. A Client is safe for
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
	stripeWidth int // max connections per endpoint

	mu      sync.Mutex
	stripes map[stripeKey]*stripe
	closed  bool

	invPrefix  uint64
	invCounter atomic.Uint64

	// Interned-instrument cache: the telemetry registry's lookup
	// builds a label key per call, which is too hot for the invoke
	// path, so instruments are resolved once per op.
	opMetrics sync.Map // operation → *clientOpMetrics
}

// clientOpMetrics holds the per-operation instruments the invoke path
// touches on every call.
type clientOpMetrics struct {
	deadlines *telemetry.Counter
	retries   *telemetry.Counter
	latency   *telemetry.Histogram
}

func (c *Client) opMetricsFor(op string) *clientOpMetrics {
	if m, ok := c.opMetrics.Load(op); ok {
		return m.(*clientOpMetrics)
	}
	m := &clientOpMetrics{
		deadlines: telemetry.Default.Counter("pardis_client_deadline_misses_total", "op", op),
		retries:   telemetry.Default.Counter("pardis_client_retries_total", "op", op),
		latency:   telemetry.Default.Histogram("pardis_client_invoke_seconds", "op", op),
	}
	actual, _ := c.opMetrics.LoadOrStore(op, m)
	return actual.(*clientOpMetrics)
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
// for a fixed width; everything else runs at DefaultStripeWidth.
func WithStripes(n int) ClientOption {
	return func(c *Client) {
		if n < 1 {
			n = 1
		}
		c.stripeWidth = n
	}
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
		stripes:     make(map[stripeKey]*stripe),
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

// BlockStats reports the client's sink/pending counts. A client
// receives no block transfers or window puts, so they are always zero.
func (c *Client) BlockStats() BlockRouterStats { return BlockRouterStats{} }

// stripe is one endpoint's small pool of connections. Concurrent
// invocations spread across its members by outstanding-request depth,
// so they stop contending on a single write lock and read loop.
type stripe struct {
	conns []*clientConn
}

// stripeKey names a stripe: an endpoint has one for requests (and
// routed blocks) and one for window puts alone.
type stripeKey struct {
	endpoint string
	puts     bool
}

// conn returns a connection to endpoint from its request stripe, or its
// put stripe when puts is set: the least-loaded live one, or — when
// every live connection is busy and the stripe has room — a freshly
// dialed one. Dial failures for the
// first connection are tagged ErrUnreachable (the request never left
// the process, so the retry layer may re-issue it freely); a failed
// growth dial falls back to the busiest-but-alive pick instead of
// failing the request.
func (c *Client) conn(endpoint string, puts bool) (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	key := stripeKey{endpoint, puts}
	st := c.stripes[key]
	if st == nil {
		st = &stripe{}
		c.stripes[key] = st
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
	if best != nil && (bestDepth == 0 || len(st.conns) >= c.stripeWidth) {
		return best, nil
	}
	raw, err := c.reg.Dial(endpoint)
	if err != nil {
		if best != nil {
			return best, nil
		}
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, endpoint, err)
	}
	cc := &clientConn{
		owner:   c,
		key:     key,
		slot:    len(st.conns),
		raw:     raw,
		freed:   make(chan struct{}, 1),
		pending: make(map[uint32]waiter),
		closed:  make(chan struct{}),
	}
	st.conns = append(st.conns, cc)
	go cc.readLoop()
	return cc, nil
}

// dropConn removes a dead connection from its stripe.
func (c *Client) dropConn(cc *clientConn) {
	c.mu.Lock()
	if st := c.stripes[cc.key]; st != nil {
		for i, other := range st.conns {
			if other == cc {
				st.conns = append(st.conns[:i], st.conns[i+1:]...)
				break
			}
		}
		if len(st.conns) == 0 {
			delete(c.stripes, cc.key)
		}
	}
	c.mu.Unlock()
}

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
// The returned body is the caller's to keep.
func (c *Client) Invoke(ctx context.Context, endpoint string, hdr giop.RequestHeader, body func(*cdr.Encoder)) (giop.ReplyHeader, cdr.ByteOrder, []byte, error) {
	r, err := c.invokeEndpoints(ctx, []string{endpoint}, hdr, body, nil, 0)
	return r.Header, r.Order, r.Body, err
}

// InvokeRef invokes across all of a reference's failover endpoints:
// the attempt rotates to the next replica when one fails inside the
// safe-to-retry window, skipping endpoints whose circuit breaker is
// open. For SPMD references only the communicator endpoint is used.
//
// The body callback runs once per attempt into a pooled encoder whose
// PutDoublesRef splices element blocks instead of copying them, so
// every block it references must stay unmodified until InvokeRef
// returns. The returned Reply's Body is the caller's to keep.
func (c *Client) InvokeRef(ctx context.Context, ref *ior.Ref, hdr giop.RequestHeader, body func(*cdr.Encoder)) (Reply, error) {
	return c.invokeEndpoints(ctx, ref.FailoverEndpoints(), hdr, body, nil, 0)
}

// InvokeRefLanding is InvokeRef with a destination for the reply: on
// every attempt land is registered with the pending request before the
// request is written, and an OK reply is handed to it straight off the
// connection instead of being read into a body. The Reply returned for
// it is marked Landed and its Body is what land returned. Replies of
// any other status arrive as InvokeRef returns them.
//
// Whatever land writes belongs to the caller again once this returns:
// a caller that gives up while its reply is landing tears the
// connection down, since nothing else stops a landing, and waits until
// the landing has stopped.
func (c *Client) InvokeRefLanding(ctx context.Context, ref *ior.Ref, hdr giop.RequestHeader, body func(*cdr.Encoder), land ReplyLander) (Reply, error) {
	return c.invokeEndpoints(ctx, ref.FailoverEndpoints(), hdr, body, land, 0)
}

// A ReplyLander consumes an OK reply's body off the connection, for
// InvokeRefLanding. LandReply runs on the connection's read goroutine
// with the frame header h just read and the body, ReplyHeader first,
// unread on fr. It returns the Reply's Body, or an error for the
// waiter:
//
//   - nil or any other error: the lander consumed exactly h.BodyLen
//     bytes, so the connection carries on; an error means it rejected
//     the reply, and the invocation fails with it, not retried.
//   - an error wrapping ErrConnectionLost: reading the body failed
//     before the lander wrote anything of its destination. The
//     connection is torn down and the invocation may be retried.
//   - an error wrapping ErrLandingTorn: reading the body failed after
//     the lander began writing its destination. The connection is torn
//     down and the invocation fails, not retried.
type ReplyLander interface {
	LandReply(fr *giop.FrameReader, h giop.FrameHeader) ([]byte, error)
}

// Reply is one received reply: its header, the body's byte order, and
// the body after the 8-octet ReplyHeader (decode it at stream offset
// 8). The body is a plain allocation, the caller's to keep.
type Reply struct {
	Header giop.ReplyHeader
	Order  cdr.ByteOrder
	// Landed marks a reply its ReplyLander consumed; Body is then what
	// the lander returned.
	Landed bool
	Body   []byte
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
// delegates to the retry/failover engine. reresolves counts the
// InvokeNamed re-resolution rounds that preceded this call (0 for
// direct invokes).
func (c *Client) invokeEndpoints(ctx context.Context, endpoints []string, hdr giop.RequestHeader, body func(*cdr.Encoder), land ReplyLander, reresolves int) (Reply, error) {
	if len(endpoints) == 0 {
		return Reply{}, fmt.Errorf("%w: no endpoints", ErrUnreachable)
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
	r, err := c.invokeRetry(ctx, endpoints, hdr, body, land, st)
	dur := time.Since(start)
	m.latency.ObserveDurationExemplar(dur, st.traceID)
	errStr := ""
	if err != nil {
		errStr = err.Error()
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
	return r, err
}

// invokeRetry runs the retry/backoff/failover loop for one logical
// request.
func (c *Client) invokeRetry(ctx context.Context, endpoints []string, hdr giop.RequestHeader, body func(*cdr.Encoder), land ReplyLander, st *invStats) (Reply, error) {
	pol := c.retry
	attempts := pol.attempts()
	rotor := 0
	var lastErr error
	prevEp := ""
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if err := sleepCtx(ctx, pol.backoff(attempt-1)); err != nil {
				return Reply{}, fmt.Errorf("%w: %v (last error: %v)", ErrCanceled, err, lastErr)
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
		r, err := c.invokeOnce(attemptCtx, ep, hdr, body, land)
		if err == nil && r.Header.Status == giop.ReplySystemException {
			if ex, derr := giop.DecodeSystemException(cdr.NewDecoder(r.Order, r.Body)); derr == nil {
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
			return r, nil
		}
		if retryable(err) {
			c.health.onFailure(ep, err)
		}
		if !retryable(err) || ctx.Err() != nil {
			return Reply{}, err
		}
		lastErr = err
		rotor++ // prefer a different replica on the next attempt
	}
	if attempts > 1 {
		return Reply{}, fmt.Errorf("orb: %d attempts across %d endpoints failed: %w", attempts, len(endpoints), lastErr)
	}
	return Reply{}, lastErr
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

func (c *Client) invokeOnce(ctx context.Context, endpoint string, hdr giop.RequestHeader, body func(*cdr.Encoder), land ReplyLander) (Reply, error) {
	cc, err := c.conn(endpoint, false)
	if err != nil {
		return Reply{}, err
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

	// The request is marshaled into a pooled encoder — element blocks
	// the body splices go out from the caller's storage in the same
	// writev — released as soon as the frame write has returned.
	e := giop.AcquireEncoder(c.order)
	hdr.Encode(e.Encoder)
	if body != nil {
		body(e.Encoder)
	}

	if !hdr.ResponseExpected {
		err := cc.writeRequest(ctx, e)
		e.Release()
		if err != nil {
			return Reply{}, err
		}
		return Reply{Header: giop.ReplyHeader{RequestID: hdr.RequestID, Status: giop.ReplyOK}, Order: c.order}, nil
	}

	ch := make(chan reply, 1)
	cc.addPending(hdr.RequestID, waiter{ch: ch, land: land})
	defer cc.removePending(hdr.RequestID)

	werr := cc.writeRequest(ctx, e)
	e.Release()
	if werr != nil {
		return Reply{}, werr
	}
	select {
	case r := <-ch:
		return r.Reply, r.err
	case <-ctx.Done():
		// Best-effort cancel through the connection's preallocated
		// cancel frame. Once the waiter is gone the read loop drops a
		// late reply; one it delivered in the meantime sits in ch for
		// the garbage collector.
		if cc.abandon(hdr.RequestID, ch) {
			// The read loop is landing the reply into the caller's
			// destination. Only the end of the connection stops a
			// landing, and the destination is the caller's again once
			// this returns, so tear the connection down and wait for the
			// landing to deliver its failure.
			cc.shutdown(fmt.Errorf("%w: reply abandoned while landing", ErrConnectionLost))
			<-ch
		}
		// The cancel is written from its own goroutine: a server read
		// loop waiting on a parked request reads nothing, and over an
		// unbuffered connection the write then lasts until the request
		// leaves the connection or the connection ends.
		go cc.sendCancel(hdr.RequestID)
		// A deadline expiring with nothing framed back is a strike
		// against the connection — connDeadlineStrikes of them in a row
		// and it is evicted so the next attempt redials instead of
		// reusing a flow a one-way partition may have silently killed.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) &&
			cc.strikes.Add(1) >= connDeadlineStrikes {
			cc.shutdown(fmt.Errorf("%w: evicted after %d consecutive deadline misses",
				ErrConnectionLost, connDeadlineStrikes))
		}
		return Reply{}, fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
	}
}

// SendBlock ships one block-transfer message to endpoint. payload is
// encoded by the callback at the correct stream offset. It returns the
// number of encoded payload bytes (the body minus the transfer
// header), so callers can account actual wire traffic for any element
// type.
func (c *Client) SendBlock(endpoint string, hdr giop.BlockTransferHeader, payload func(*cdr.Encoder)) (int, error) {
	cc, err := c.conn(endpoint, false)
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
	err = cc.write(giop.MsgBlockTransfer, e)
	e.Release()
	return n, err
}

// PutWindow ships one one-sided window put to endpoint, on the
// endpoint's put stripe, which carries no requests. The header
// comes from a pooled encoder; on the native-byte-order path the
// element payload is spliced, gather-writing straight from blk (one
// writev, zero copies into frame buffers), so blk must stay unmodified
// until PutWindow returns. Count is taken from len(blk), keeping header
// and payload consistent by construction. Returns the payload byte
// count.
func (c *Client) PutWindow(endpoint string, hdr giop.WindowPutHeader, blk []float64) (int, error) {
	cc, err := c.conn(endpoint, true)
	if err != nil {
		return 0, err
	}
	cc.sending.Add(1)
	defer cc.sending.Add(-1)
	hdr.Count = uint32(len(blk))
	e := giop.AcquireEncoder(c.order)
	hdr.Encode(e.Encoder)
	e.PutDoublesRef(blk)
	err = cc.write(giop.MsgWindowPut, e)
	e.Release()
	return len(blk) * 8, err
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
	c.stripes = make(map[stripeKey]*stripe)
	c.mu.Unlock()
	for _, cc := range conns {
		cc.shutdown(ErrClosed)
	}
	return nil
}

// reply is what the read loop hands back to a waiting invoker.
type reply struct {
	Reply
	err error
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

type clientConn struct {
	owner   *Client
	key     stripeKey // the stripe it belongs to
	slot    int       // stripe index when dialed
	raw     transport.Conn
	nextID  atomic.Uint32
	depth   telemetry.Gauge // outstanding requests (unregistered)
	sending atomic.Int64    // one-way writes (block/put) in flight
	strikes atomic.Int32    // consecutive deadline misses, reset by any reply

	writeMu   sync.Mutex
	cancelBuf [4]byte // preallocated CancelRequest body, guarded by writeMu
	// freed holds a token left by an unlock of writeMu, which wakes a
	// request waiting for the lock bounded by its context (lockWrite).
	freed chan struct{}
	// slow, made stopped by the first request write with a context that
	// can end (writeRequest), runs watchWrite once such a write has lasted
	// slowWrite; watch (one slot) hands it the write's Done channel, and
	// wrote tells it the write is over.
	slow  *time.Timer
	watch chan (<-chan struct{})
	wrote chan struct{}

	mu      sync.Mutex
	pending map[uint32]waiter
	dead    bool
	closed  chan struct{} // closed once the connection is dead

	// landing is the reply channel of the waiter whose reply the read
	// loop is landing, nil when none: set as the read loop takes the
	// entry and cleared once the lander has returned, so a waiter that
	// gives up knows whether a landing may still write its destination
	// (abandon).
	landing chan reply
}

// waiter is one pending request's reply channel and, for
// InvokeRefLanding, the destination its OK reply lands in.
type waiter struct {
	ch   chan reply
	land ReplyLander
}

// write frames the message e encoded, spliced element blocks
// included, as one gather write under the write lock; see
// giop.WriteEncoded.
func (cc *clientConn) write(t giop.MsgType, e *giop.PooledEncoder) error {
	cc.writeMu.Lock()
	defer cc.unlockWrite()
	if err := giop.WriteEncoded(cc.raw, t, e.Encoder); err != nil {
		cc.shutdown(fmt.Errorf("%w: %v", ErrConnectionLost, err))
		return fmt.Errorf("%w: %v", ErrConnectionLost, err)
	}
	return nil
}

// unlockWrite frees the write lock and leaves a token in freed, unless
// one is there already.
func (cc *clientConn) unlockWrite() {
	cc.writeMu.Unlock()
	select {
	case cc.freed <- struct{}{}:
	default:
	}
}

// lockWrite takes the write lock for a request whose context ends when
// done closes, giving up then or when the connection dies. Every unlock
// after a failed try leaves a token, so a waiter misses none; a stale
// token costs it one more try.
func (cc *clientConn) lockWrite(ctx context.Context, done <-chan struct{}) error {
	for !cc.writeMu.TryLock() {
		select {
		case <-cc.freed:
		case <-done:
			return fmt.Errorf("%w: %v waiting to write", ErrCanceled, ctx.Err())
		case <-cc.closed:
			return fmt.Errorf("%w: connection closed", ErrConnectionLost)
		}
	}
	return nil
}

// writeRequest writes a Request frame like write, bounded by ctx. Any
// request may be parked by the server — left on the connection until
// its object lands it (Server.HandleLanding), possibly behind a queue of
// other requests — and the server's read loop reads nothing more on the
// connection meanwhile. A write the connection cannot buffer (over an
// unbuffered one such as inproc, any write) then lasts until the parked
// request leaves, and so does the wait for the write lock behind such a
// write. A request whose ctx has ended, or ends while it waits for the
// lock, is not written; one whose ctx ends mid-write fails with
// ErrCanceled, no sooner than slowWrite into the write, and takes the
// connection down with it, the frame being torn.
func (cc *clientConn) writeRequest(ctx context.Context, e *giop.PooledEncoder) error {
	done := ctx.Done()
	if done == nil {
		return cc.write(giop.MsgRequest, e)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	if err := cc.lockWrite(ctx, done); err != nil {
		return err
	}
	defer cc.unlockWrite()
	if cc.slow == nil {
		cc.watch, cc.wrote = make(chan (<-chan struct{}), 1), make(chan struct{})
		cc.slow = time.AfterFunc(time.Hour, cc.watchWrite)
		cc.slow.Stop()
	}
	cc.watch <- done
	cc.slow.Reset(slowWrite)
	err := giop.WriteEncoded(cc.raw, giop.MsgRequest, e.Encoder)
	if cc.slow.Stop() {
		<-cc.watch // the write was quick, and nothing watched it
	} else {
		cc.wrote <- struct{}{}
		// The watcher is done with this write: undo a deadline it may
		// have set just as the write completed.
		_ = cc.raw.SetWriteDeadline(time.Time{})
	}
	if err != nil {
		cc.shutdown(fmt.Errorf("%w: %v", ErrConnectionLost, err))
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("%w: %v mid-write", ErrCanceled, cerr)
		}
		return fmt.Errorf("%w: %v", ErrConnectionLost, err)
	}
	return nil
}

// slowWrite is how long a request write runs unwatched: one that is
// still blocked then is failed as soon as its context ends.
const slowWrite = 10 * time.Millisecond

// watchWrite watches the request write that has lasted slowWrite, on
// the goroutine of the connection's timer: it fails the write, through a
// write deadline in the past, if its context ends before the writer
// reports the write over on wrote. A quick write costs a timer reset and
// stop and wakes no goroutine. Unlike a context.AfterFunc per write,
// which allocates its own context (and, on the fresh cancelable context
// of an SPMD invocation, the parent's child map) on every request, it
// allocates nothing per write.
func (cc *clientConn) watchWrite() {
	done := <-cc.watch
	select {
	case <-done:
		_ = cc.raw.SetWriteDeadline(time.Unix(1, 0))
		<-cc.wrote
	case <-cc.wrote:
	}
}

// sendCancel writes a CancelRequest for id through the connection's
// preallocated single-ULong body (wire-identical to encoding a
// CancelRequestHeader), so the cancel path — usually taken under
// deadline pressure — allocates no frame. It is best effort: while
// another writer holds the connection — perhaps a request the server's
// read loop does not read, waiting on a parked one (writeRequest) — no
// cancel is sent; the server sheds expired work anyway.
func (cc *clientConn) sendCancel(id uint32) error {
	if !cc.writeMu.TryLock() {
		return nil
	}
	defer cc.unlockWrite()
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

func (cc *clientConn) addPending(id uint32, w waiter) {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		w.ch <- reply{err: ErrConnectionLost}
		return
	}
	cc.pending[id] = w
	cc.depth.Inc()
	cc.mu.Unlock()
}

// takePending removes and returns the waiter for id. The depth gauge
// is decremented only when an entry was actually removed, so the read
// loop and the invoker's deferred removePending cannot double-count.
// With replyOK set and a ReplyLander registered, it reports
// landing and records the waiter as landing until landed is called.
func (cc *clientConn) takePending(id uint32, replyOK bool) (w waiter, found, landing bool) {
	cc.mu.Lock()
	w, found = cc.pending[id]
	if found {
		delete(cc.pending, id)
		cc.depth.Dec()
		if landing = replyOK && w.land != nil; landing {
			cc.landing = w.ch
		}
	}
	cc.mu.Unlock()
	return w, found, landing
}

// landed marks the end of the landing takePending recorded.
func (cc *clientConn) landed() {
	cc.mu.Lock()
	cc.landing = nil
	cc.mu.Unlock()
}

// abandon removes the entry of a waiter that gave up. It reports
// whether the read loop has taken the entry to land its reply and the
// lander has not yet returned.
func (cc *clientConn) abandon(id uint32, ch chan reply) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if _, found := cc.pending[id]; found {
		delete(cc.pending, id)
		cc.depth.Dec()
		return false
	}
	return cc.landing == ch
}

func (cc *clientConn) removePending(id uint32) {
	cc.takePending(id, false)
}

// shutdown closes the socket and fails all waiters exactly once.
func (cc *clientConn) shutdown(cause error) {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return
	}
	cc.dead = true
	close(cc.closed)
	waiters := cc.pending
	cc.pending = make(map[uint32]waiter)
	if n := len(waiters); n > 0 {
		cc.depth.Add(-int64(n))
	}
	cc.mu.Unlock()
	cc.raw.Close()
	cc.owner.dropConn(cc)
	for _, w := range waiters {
		select {
		case w.ch <- reply{err: cause}:
		default:
		}
	}
}

func (cc *clientConn) readLoop() {
	// A FrameReader buffers the socket so a header+body pair costs one
	// raw Read in the common case. An OK reply with a ReplyLander waiting
	// for it never becomes a body: the lander reads it off the buffer
	// (readReply). Every other body is a plain allocation that leaves the
	// loop with the reply sliced from it, so it is never handed back.
	fr := giop.NewFrameReader(cc.raw)
	for {
		h, err := fr.ReadFrameHeader()
		if err != nil {
			cc.shutdown(fmt.Errorf("%w: %v", ErrConnectionLost, err))
			return
		}
		if h.Type == giop.MsgReply {
			if err := cc.readReply(fr, h); err != nil {
				cc.shutdown(err)
				return
			}
			continue
		}
		f, err := fr.ReadFrameBody(h)
		if err != nil {
			cc.shutdown(fmt.Errorf("%w: %v", ErrConnectionLost, err))
			return
		}
		switch f.Type {
		case giop.MsgCloseConnection:
			// Orderly shutdown: the server promises it processed
			// nothing further, so waiters may re-issue elsewhere.
			cc.shutdown(ErrServerClosed)
			return
		case giop.MsgError:
			cc.shutdown(ErrConnectionLost)
			return
		default:
			// Requests and block transfers arriving at a client
			// connection are a protocol violation.
			cc.shutdown(fmt.Errorf("%w: unexpected %v on client connection", ErrConnectionLost, f.Type))
			return
		}
	}
}

// readReply delivers the Reply frame whose header h the read loop just
// read. It peeks the ReplyHeader and takes the waiter: an OK reply
// whose waiter registered a ReplyLander is landed by it, any other is
// read whole and its body handed over with it. An error means the
// connection must go.
func (cc *clientConn) readReply(fr *giop.FrameReader, h giop.FrameHeader) error {
	if h.BodyLen < replyHeaderLen {
		return fmt.Errorf("%w: bad reply header: %d-byte body", ErrConnectionLost, h.BodyLen)
	}
	b, err := fr.Peek(replyHeaderLen)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrConnectionLost, err)
	}
	rh, _ := giop.DecodeReplyHeader(cdr.NewDecoder(h.Order, b)) // eight bytes always decode
	// The flow demonstrably delivers replies.
	cc.strikes.Store(0)
	w, found, landing := cc.takePending(rh.RequestID, rh.Status == giop.ReplyOK)
	if landing {
		body, err := w.land.LandReply(fr, h)
		cc.landed()
		w.ch <- reply{Reply: Reply{Header: rh, Order: h.Order, Landed: err == nil, Body: body}, err: err}
		if errors.Is(err, ErrConnectionLost) || errors.Is(err, ErrLandingTorn) {
			return fmt.Errorf("%w: reply landing failed: %v", ErrConnectionLost, err)
		}
		return nil
	}
	f, err := fr.ReadFrameBody(h)
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrConnectionLost, err)
		if found {
			w.ch <- reply{err: err}
		}
		return err
	}
	if found {
		w.ch <- reply{Reply: Reply{Header: rh, Order: f.Order, Body: f.Body[replyHeaderLen:]}}
	}
	return nil
}

// replyHeaderLen is the encoded size of a giop.ReplyHeader: two ULongs
// at the start of the body, so never padded.
const replyHeaderLen = 8
