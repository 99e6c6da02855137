package spmd

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/orb"
	"pardis/internal/rts"
	"pardis/internal/telemetry"
	"pardis/internal/transport"
)

// Call is what a servant's operation handler receives on each
// computing thread of the SPMD object: the decoded scalar arguments
// and this thread's local blocks of every distributed argument.
type Call struct {
	// Op is the operation name.
	Op string
	// Thread is the computing thread's RTS handle (usable for
	// application-internal collectives during the call).
	Thread rts.Thread
	// Scalars decodes the non-distributed in-arguments; the same
	// values are delivered to every thread, as §2.1 promises.
	Scalars *cdr.Decoder
	// Args holds the distributed arguments. In and InOut arguments
	// arrive filled, their local block exactly Layout().Count(rank)
	// elements long; Out arguments arrive zeroed at the length the
	// client declared. The servant mutates InOut/Out contents in
	// place. The local blocks belong to the object, which hands the
	// same storage to later invocations: they are valid until the
	// handler returns, and a handler that wants the data afterwards
	// copies it.
	Args []*dseq.Doubles

	reply *cdr.Encoder
}

// Reply returns the encoder for scalar results. Every thread may
// write to it, but only the communicator thread's bytes travel; all
// threads must therefore write identical values (the same contract as
// scalar in-arguments).
func (c *Call) Reply() *cdr.Encoder { return c.reply }

// Handler implements one operation of an SPMD object. It is invoked
// collectively: once per computing thread per request. An error from
// any thread aborts the request with a system exception.
type Handler func(call *Call) error

// ObjectConfig configures one computing thread's share of an exported
// SPMD object. All threads must pass identical Key, TypeID, Ops
// (modulo Handler closures) and MultiPort settings.
type ObjectConfig struct {
	// Thread is this computing thread's RTS handle.
	Thread rts.Thread
	// Registry supplies transports (nil means transport.Default).
	Registry *transport.Registry
	// ListenEndpoint is the endpoint template each thread listens on
	// ("inproc:*", "tcp:127.0.0.1:0", ...).
	ListenEndpoint string
	// Key is the object key; TypeID its repository id.
	Key    string
	TypeID string
	// MultiPort opens one port per computing thread and advertises
	// all of them in the object reference; otherwise only the
	// communicator listens and only centralized transfer is usable.
	MultiPort bool
	// Ops maps operation names to their distributed-argument
	// declarations and handlers.
	Ops map[string]*Op
	// LeaseTTL is how long a client's server-side lease survives
	// without traffic before its rank-side state (registered windows,
	// in-dispatch waits) is reclaimed. A value <= 0 means
	// DefaultLeaseTTL.
	LeaseTTL time.Duration
}

// Op couples an operation's signature with its implementation.
type Op struct {
	Spec    OpSpec
	Handler Handler
}

// Object is one computing thread's handle on an exported SPMD object.
// Construction is collective; afterwards every thread must run Serve.
type Object struct {
	cfg    ObjectConfig
	th     rts.Thread
	rank   int
	size   int
	srv    *orb.Server // this thread's port (communicator always has one)
	out    *orb.Client // for sending out-blocks back to clients
	ref    *ior.Ref
	queue  chan request // communicator only
	closed chan struct{}
	leases *leaseTable

	served atomic.Uint64
	failed atomic.Uint64

	// argBlocks[i] is the storage behind this rank's local block of
	// distributed argument i, kept from one dispatch to the next (see
	// argBlock). Touched only by the rank's serve loop.
	argBlocks [][]float64

	// readWhole counts the requests the communicator read whole at pop
	// rather than landing them.
	readWhole atomic.Uint64
	// landing is the communicator's lander for the request it is
	// dispatching, and scalars its copy of a landing request's scalar
	// encapsulation, both reused by every dispatch.
	landing requestLanding
	scalars []byte
}

// request is one queued invocation, its body still parked on its
// connection. mp marks one that travels multi-port, and gaveUp one of
// those whose caller gave up before the communicator took it: the
// communicator refuses it.
type request struct {
	in         *orb.Incoming
	mp, gaveUp bool
}

// multiPort reports whether the parked request in travels MultiPort: the
// method octet leads its invocation wire, so it reads even when the rest
// does not decode.
func multiPort(in *orb.Incoming) bool {
	p := in.Prefix()
	return len(p) > 0 && p[0] == byte(MultiPort)
}

// shedExpiredSPMD counts queued invocations whose propagated deadline
// had already passed when the communicator popped them: they are
// answered with TIMEOUT without engaging the collective. Interned once
// at package load.
var shedExpiredSPMD = telemetry.Default.Counter("pardis_spmd_shed_total", "reason", "expired")

// ObjectStats is a snapshot of a thread's request counters.
type ObjectStats struct {
	// Served counts requests this thread participated in
	// (collective dispatches, including failed ones).
	Served uint64
	// Failed counts dispatches that ended in an error.
	Failed uint64
}

// Stats returns this thread's counters.
func (o *Object) Stats() ObjectStats {
	return ObjectStats{Served: o.served.Load(), Failed: o.failed.Load()}
}

// BlockStats reports this thread's block-router state (registered
// windows and puts waiting for theirs). After the serve loops exit it
// must be empty — a nonzero window count is a leak.
func (o *Object) BlockStats() orb.BlockRouterStats {
	if o.srv == nil {
		return orb.BlockRouterStats{}
	}
	return o.srv.BlockStats()
}

// tagRefExchange keeps SPMD-engine RTS messages clear of application
// tags used inside servant handlers.
const tagRefExchange = 1 << 20

// Export creates the thread's share of an SPMD object: it opens this
// thread's port (communicator always; other threads only under
// MultiPort), exchanges endpoints, and assembles the object
// reference. It must be called collectively.
func Export(cfg ObjectConfig) (*Object, error) {
	if cfg.Thread == nil {
		return nil, fmt.Errorf("%w: nil RTS thread", ErrBadCall)
	}
	if cfg.Key == "" {
		return nil, fmt.Errorf("%w: empty object key", ErrBadCall)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = transport.Default
	}
	th := cfg.Thread
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	o := &Object{
		cfg:    cfg,
		th:     th,
		rank:   th.Rank(),
		size:   th.Size(),
		closed: make(chan struct{}),
		leases: newLeaseTable(ttl),
	}

	needPort := o.rank == 0 || cfg.MultiPort
	var myEndpoint string
	var listenErr error
	if needPort {
		o.srv = orb.NewServer(reg)
		ep, err := o.srv.Listen(cfg.ListenEndpoint)
		if err != nil {
			listenErr = err
		} else {
			myEndpoint = ep
		}
	}
	o.out = orb.NewClient(reg)

	// Collective verdict on the listen phase: if any thread failed to
	// open its port, every thread learns which one and returns a
	// partial-failure error, instead of the communicator deadlocking
	// in the endpoint exchange waiting for a port that will never
	// exist. The verdict carries each thread's digest of what describe
	// answers (operations, their arguments' modes and distributions,
	// MultiPort): a worker that lacked an operation the communicator
	// broadcast would leave the others waiting in the dispatch's
	// collectives, so threads that disagree fail here, every one of them.
	digests, err := setupVerdict(th, listenErr, "open its port", o.describe().digest())
	if err == nil {
		for r, d := range digests {
			if d != digests[0] {
				err = fmt.Errorf("%w: thread %d exported a different interface than thread 0",
					ErrInconsistent, r)
				break
			}
		}
	}
	if err != nil {
		if o.srv != nil {
			o.srv.Close()
		}
		o.out.Close()
		return nil, err
	}

	// Endpoint exchange: every thread reports to the communicator,
	// which assembles and validates the reference, then broadcasts
	// the stringified form. The broadcast is tagged (1 + IOR on
	// success, 0 + error text on failure) so a communicator-side
	// failure reaches the peers as a named error instead of leaving
	// them deadlocked in the collective.
	if o.rank == 0 {
		endpoints := make([]string, o.size)
		endpoints[0] = myEndpoint
		var refErr error
		if cfg.MultiPort {
			for i := 1; i < o.size; i++ {
				b, err := th.RecvBytes(i, tagRefExchange)
				if err != nil {
					refErr = err
					break
				}
				endpoints[i] = string(b)
			}
		} else {
			endpoints = endpoints[:1]
		}
		if refErr == nil {
			o.ref = &ior.Ref{
				TypeID:    cfg.TypeID,
				Key:       cfg.Key,
				Threads:   o.size,
				Endpoints: endpoints,
			}
			refErr = o.ref.Validate()
		}
		var payload []byte
		if refErr != nil {
			payload = append([]byte{0}, refErr.Error()...)
		} else {
			payload = append([]byte{1}, o.ref.Stringify()...)
		}
		if _, err := th.Bcast(0, payload); err != nil {
			return nil, err
		}
		if refErr != nil {
			o.srv.Close()
			o.out.Close()
			return nil, refErr
		}
	} else {
		if cfg.MultiPort {
			if err := th.SendBytes(0, tagRefExchange, []byte(myEndpoint)); err != nil {
				return nil, err
			}
		}
		payload, err := th.Bcast(0, nil)
		if err != nil {
			return nil, err
		}
		if len(payload) == 0 || payload[0] == 0 {
			if o.srv != nil {
				o.srv.Close()
			}
			o.out.Close()
			msg := "unknown error"
			if len(payload) > 1 {
				msg = string(payload[1:])
			}
			return nil, fmt.Errorf("%w: thread 0 failed to assemble the object reference: %s",
				ErrPartialFailure, msg)
		}
		if o.ref, err = ior.Parse(string(payload[1:])); err != nil {
			return nil, err
		}
	}

	// The communicator accepts requests and queues them for the
	// collective serve loop; non-communicator ports only receive
	// window puts (handled inside the ORB), but they still
	// answer describe for robustness.
	if o.rank == 0 {
		o.queue = make(chan request, 64)
		o.srv.HandleLanding(cfg.Key, func(in *orb.Incoming) {
			// Any request is proof of client life: renew its lease
			// before anything else, so a queued invocation cannot lose
			// its own lease while waiting for the collective.
			o.leases.acquire(leaseClient(in.Header.InvocationID))
			if in.Header.Operation == DescribeOperation {
				o.replyDescribe(in)
				in.Release()
				return
			}
			o.admit(in)
		})
	} else if o.srv != nil {
		o.srv.Handle(cfg.Key, func(in *orb.Incoming) {
			o.leases.acquire(leaseClient(in.Header.InvocationID))
			if in.Header.Operation == DescribeOperation {
				o.replyDescribe(in)
				return
			}
			_ = in.ReplySystemException("BAD_OPERATION",
				"requests must target the communicator port")
		})
	}
	go o.leaseSweepLoop()
	return o, nil
}

// admit queues a request for the communicator, which owns it from then
// on. The request stays parked — its connection reads nothing more — until
// the communicator pops it and lands it or reads it whole
// (communicatorServeOne), so a connection has at most one request in
// admission or in the queue, and the queue holds each connection's
// requests in the order they arrived.
func (o *Object) admit(in *orb.Incoming) {
	req := request{in: in, mp: multiPort(in)}
	// A request whose caller gives up before the communicator takes it
	// is dropped, unless it travels multi-port: its client's puts wait on
	// every rank for its windows, and only the communicator reaches every
	// rank to retire them (refused), so it is queued all the same.
	giveUp := in.Ctx.Done()
	for {
		if giveUp != nil && in.Ctx.Err() != nil { // the caller gave up
			if !req.mp {
				in.Release()
				return
			}
			req.gaveUp, giveUp = true, nil
		}
		select {
		case o.queue <- req: // the communicator owns it now
			return
		case <-o.closed:
			_ = in.ReplySystemException("OBJ_ADAPTER", "object closed")
			in.Release()
			return
		case <-giveUp:
		}
	}
}

// requestLanding is the communicator's orb.RequestLander for a
// centralized request: it fills the threads' lent blocks with the
// request's inline elements, off the connection (LandRequest) or out of
// the body read whole (decode), walking both the same way.
type requestLanding struct {
	w *invocationWire
	// blocks[i] is argument i's lent blocks; nil for an argument that
	// takes no elements, whose inline ones, if any, are skipped.
	blocks [][][]float64
}

// LandRequest reads the elements block by block with
// ReadWindowPayload — the native order straight in, a foreign one
// through the swap scratch — skimming what lies between and after them.
// The communicator has checked, before it engaged the collective, that
// the elements fit the body and that each argument's blocks hold exactly
// its elements. A read failure wraps orb.ErrConnectionLost.
func (l *requestLanding) LandRequest(fr *giop.FrameReader, h giop.FrameHeader) error {
	at := 0 // body bytes consumed
	_, err := l.w.walk(l.blocks, func(off int, blk []float64) error {
		if err := fr.DiscardPayload(off - at); err != nil {
			return err
		}
		at = off + 8*len(blk)
		return fr.ReadWindowPayload(h.Order, blk)
	})
	if err == nil {
		err = fr.DiscardPayload(int(h.BodyLen) - at)
	}
	if err != nil {
		return fmt.Errorf("%w: request landing: %v", orb.ErrConnectionLost, err)
	}
	return nil
}

// decode is LandRequest for a request read whole.
func (l *requestLanding) decode(in *orb.Incoming) {
	_, _ = l.w.walk(l.blocks, func(off int, blk []float64) error {
		cdr.DecodeDoubles(blk, in.Body[off-in.BodyBase:], in.Order)
		return nil
	})
}

// leaseSweepLoop expires client leases that stopped renewing; it runs
// on every rank (each rank tracks the clients it has heard from) and
// exits on Close, dropping whatever leases remain.
func (o *Object) leaseSweepLoop() {
	t := time.NewTicker(leaseSweepInterval(o.leases.ttl))
	defer t.Stop()
	for {
		select {
		case <-t.C:
			o.leases.sweep(time.Now())
		case <-o.closed:
			o.leases.drop()
			return
		}
	}
}

// Leases reports the number of live client leases on this rank.
func (o *Object) Leases() int { return o.leases.size() }

// Ref returns the object reference to register with the naming
// service. Valid on every thread.
func (o *Object) Ref() *ior.Ref { return o.ref }

func (o *Object) replyDescribe(in *orb.Incoming) {
	_ = in.Reply(giop.ReplyOK, o.describe().encode)
}

// describe returns what the object answers describe with.
func (o *Object) describe() *describeWire {
	w := &describeWire{Threads: o.size, MultiPort: o.cfg.MultiPort,
		Ops: make(map[string]*OpSpec, len(o.cfg.Ops))}
	for name, op := range o.cfg.Ops {
		spec := op.Spec
		w.Ops[name] = &spec
	}
	return w
}

// Close shuts the object down. Serve loops return ErrClosed on all
// threads once in-flight requests complete. Collective. Every rank
// closes its own closed channel so worker threads blocked on a window
// (a sender died mid-transfer) unwind instead of waiting for puts that
// will never arrive.
func (o *Object) Close() {
	select {
	case <-o.closed:
	default:
		close(o.closed)
	}
	if o.srv != nil {
		o.srv.Close()
	}
	o.out.Close()
}

// control is the per-invocation metadata the communicator broadcasts
// to the other computing threads before the collective dispatch.
type control struct {
	OK bool // false: serve loop should exit
	// Refused means the communicator answered invocation Inv before the
	// collective: no rank dispatches it, and every rank retires its
	// windows, so the puts its client shipped are skimmed, not waited on.
	Refused bool
	Op      string
	Inv     uint64
	Method  TransferMethod
	// DeadlineMicros is the client deadline budget still remaining when
	// the communicator broadcast the control record (0 = none). Every
	// rank rebases it onto its own clock and bounds its dispatch — in
	// particular the window waits — by it.
	DeadlineMicros uint64
	Scalars        []byte
	Args           []controlArg
}

type controlArg struct {
	Mode            ArgMode
	Length          int
	ClientCounts    []int
	ClientEndpoints []string
}

func (c *control) encode(e *cdr.Encoder) {
	e.PutBoolean(c.OK)
	e.PutBoolean(c.Refused)
	e.PutString(c.Op)
	e.PutULongLong(c.Inv)
	e.PutOctet(byte(c.Method))
	e.PutULongLong(c.DeadlineMicros)
	e.PutOctetSeq(c.Scalars)
	e.PutULong(uint32(len(c.Args)))
	for _, a := range c.Args {
		e.PutOctet(byte(a.Mode))
		e.PutULong(uint32(a.Length))
		putCounts(e, a.ClientCounts)
		e.PutStringSeq(a.ClientEndpoints)
	}
}

func decodeControl(d *cdr.Decoder) (*control, error) {
	var c control
	var err error
	if c.OK, err = d.Boolean(); err != nil {
		return nil, err
	}
	if c.Refused, err = d.Boolean(); err != nil {
		return nil, err
	}
	if c.Op, err = d.String(); err != nil {
		return nil, err
	}
	if c.Inv, err = d.ULongLong(); err != nil {
		return nil, err
	}
	m, err := d.Octet()
	if err != nil {
		return nil, err
	}
	c.Method = TransferMethod(m)
	if c.DeadlineMicros, err = d.ULongLong(); err != nil {
		return nil, err
	}
	if c.Scalars, err = d.OctetSeq(); err != nil {
		return nil, err
	}
	n, err := d.ULong()
	if err != nil {
		return nil, err
	}
	c.Args = make([]controlArg, n)
	for i := range c.Args {
		mo, err := d.Octet()
		if err != nil {
			return nil, err
		}
		c.Args[i].Mode = ArgMode(mo)
		l, err := d.ULong()
		if err != nil {
			return nil, err
		}
		c.Args[i].Length = int(l)
		u, err := d.ULongSeq()
		if err != nil {
			return nil, err
		}
		c.Args[i].ClientCounts = make([]int, len(u))
		for j, x := range u {
			c.Args[i].ClientCounts[j] = int(x)
		}
		if c.Args[i].ClientEndpoints, err = d.StringSeq(); err != nil {
			return nil, err
		}
	}
	return &c, nil
}

// Serve processes requests until Close; it must run on every
// computing thread of the object concurrently. It returns ErrClosed
// after a clean shutdown.
func (o *Object) Serve(ctx context.Context) error {
	serveOne := o.workerServeOne
	if o.rank == 0 {
		serveOne = o.communicatorServeOne
	}
	for {
		if err := serveOne(ctx); err != nil {
			return err
		}
	}
}

// communicatorServeOne pops one queued request, drives the collective
// dispatch, and replies.
func (o *Object) communicatorServeOne(ctx context.Context) error {
	var req request
	select {
	case req = <-o.queue:
	case <-o.closed:
		o.bcastControl(&control{OK: false})
		return ErrClosed
	case <-ctx.Done():
		o.bcastControl(&control{OK: false})
		return ctx.Err()
	}
	in := req.in
	// The request is this function's alone: the invocation wire's
	// scalars alias its body, and rank 0 decodes from it through phase 2
	// of the dispatch. A body still parked on the way out, after an early
	// reply or a failed phase 1, is skimmed.
	defer in.Release()

	// A queued invocation whose propagated deadline already passed is
	// shed here, before the collective is engaged: the client has given
	// up, so burning every rank on its dispatch would only add load.
	if !in.Expiry.IsZero() && !time.Now().Before(in.Expiry) {
		o.refused(req)
		shedExpiredSPMD.Inc()
		_ = in.ReplySystemException("TIMEOUT",
			"request deadline expired before collective dispatch")
		return nil
	}
	if req.gaveUp { // its caller is gone: nothing to answer
		o.refused(req)
		return nil
	}

	// Decode the invocation metadata. A centralized request whose prefix
	// holds it, and that carries elements, lands in phase 1 of its
	// dispatch: its scalars, which alias the connection's read buffer
	// until the landing, are copied out for phase 2. Any other is read
	// whole now; one with nothing to land would otherwise hold its
	// connection through its own handler, and a cancel behind it would go
	// unread.
	var w *invocationWire
	if p := in.Prefix(); len(p) > 0 && p[0] == byte(Centralized) {
		w, _ = decodeInvocation(in.Order, p, in.BodyBase)
	}
	if w != nil && w.hasInline() {
		o.scalars = append(o.scalars[:0], w.Scalars...)
		w.Scalars = o.scalars
	} else {
		o.readWhole.Add(1)
		err := in.ReadBody()
		if err == nil {
			w, err = decodeInvocation(in.Order, in.Body, in.BodyBase)
		}
		if err != nil {
			// A body that does not decode is MARSHAL; one that cannot be
			// read, its connection gone while it was queued, is answered
			// by no reply. The collective is not engaged; keep serving.
			o.refused(req)
			_ = in.ReplySystemException("MARSHAL", err.Error())
			return nil
		}
	}
	op, ok := o.cfg.Ops[in.Header.Operation]
	if !ok {
		o.refused(req)
		_ = in.ReplySystemException("BAD_OPERATION", in.Header.Operation)
		return nil
	}
	if code, detail := o.refuse(w, in.Header.Operation, op.Spec, in.BodyLen()); code != "" {
		o.refused(req)
		_ = in.ReplySystemException(code, detail)
		return nil
	}

	ctrl := &control{
		OK:     true,
		Op:     in.Header.Operation,
		Inv:    in.Header.InvocationID,
		Method: w.Method,
		// The scalar encapsulation reaches every thread byte-equal:
		// "the invocation mechanism provided by PARDIS will ensure
		// that the same value of non-distributed argument will be
		// delivered to all computing threads of the server" (§2.1).
		Scalars: w.Scalars,
		Args:    make([]controlArg, len(w.Args)),
	}
	for i, a := range w.Args {
		ctrl.Args[i] = controlArg{
			Mode:            a.Mode,
			Length:          a.Length,
			ClientCounts:    a.ClientCounts,
			ClientEndpoints: a.ClientEndpoints,
		}
	}
	if !in.Expiry.IsZero() {
		// Re-encode the remaining budget relatively, the same scheme the
		// PIOP header uses: workers rebase onto their own clocks, so rank
		// clock skew never shifts the deadline. Exhausted-but-present
		// clamps to 1µs (0 means "none").
		if rem := time.Until(in.Expiry); rem > 0 {
			ctrl.DeadlineMicros = uint64(rem / time.Microsecond)
		}
		if ctrl.DeadlineMicros == 0 {
			ctrl.DeadlineMicros = 1
		}
	}
	o.bcastControl(ctrl)

	reply, derr := o.dispatch(ctx, ctrl, w, in)
	if derr != nil {
		// Deadline and lease failures are timeout-class: the client
		// stopped waiting (or stopped existing), so the verdict must not
		// look retryable-in-place or like a servant bug.
		if errors.Is(derr, context.DeadlineExceeded) || errors.Is(derr, ErrLeaseExpired) {
			_ = in.ReplySystemException("TIMEOUT", derr.Error())
			return nil
		}
		_ = in.ReplySystemException("UNKNOWN", derr.Error())
		return nil
	}
	// The reply is written straight from the threads' argument blocks;
	// Reply returns only once the write has, before the next control
	// broadcast lets any thread touch its blocks again.
	return in.Reply(giop.ReplyOK, reply.encode)
}

// refused ends the communicator's part in request req, which it answers
// before the collective. A multi-port invocation's client has shipped
// puts that sit on the ranks' read loops, waiting for windows that will
// not register: every rank, the others through the control broadcast,
// retires the invocation, so they are skimmed. A centralized one ships
// none, and costs no broadcast.
func (o *Object) refused(req request) {
	if req.mp {
		inv := req.in.Header.InvocationID
		o.retire(inv)
		o.bcastControl(&control{OK: true, Refused: true, Inv: inv})
	}
}

// retire declares that none of invocation inv's windows registers on
// this rank any more (orb.Server.RetireWindows).
func (o *Object) retire(inv uint64) {
	if o.srv != nil {
		o.srv.RetireWindows(inv)
	}
}

// refuse returns the system exception — code and detail — with which
// the communicator answers the invocation w of operation op, declared
// spec, in a body of bodyLen bytes, before it engages the collective;
// an empty code when the invocation may go ahead. Only the communicator
// sees the inline data, so only it can find it malformed: it must, here.
func (o *Object) refuse(w *invocationWire, op string, spec OpSpec, bodyLen int) (code, detail string) {
	if len(w.Args) != len(spec.Args) {
		return "BAD_PARAM", fmt.Sprintf("operation %s takes %d distributed args, got %d",
			op, len(spec.Args), len(w.Args))
	}
	for i, a := range w.Args {
		if a.Mode != spec.Args[i].Mode {
			return "BAD_PARAM", fmt.Sprintf("arg %d mode %v, declared %v", i, a.Mode, spec.Args[i].Mode)
		}
		if w.Method == Centralized && a.Mode != Out && a.Inline != a.Length {
			return "BAD_PARAM", fmt.Sprintf("arg %d: inline data %d of %d elements", i, a.Inline, a.Length)
		}
	}
	if end, _ := w.walk(nil, nil); end > bodyLen {
		return "MARSHAL", fmt.Sprintf("%v: inline elements end at byte %d of %d", cdr.ErrTooLarge, end, bodyLen)
	}
	if w.Method == MultiPort && !o.cfg.MultiPort {
		return "BAD_PARAM", "object does not export multi-port endpoints"
	}
	return "", ""
}

// workerServeOne participates in one collective dispatch.
func (o *Object) workerServeOne(ctx context.Context) error {
	raw, err := o.th.Bcast(0, nil)
	if err != nil {
		return err
	}
	ctrl, err := decodeControl(cdr.NewDecoder(cdr.BigEndian, raw))
	if err != nil {
		return err
	}
	if !ctrl.OK {
		return ErrClosed
	}
	if ctrl.Refused {
		o.retire(ctrl.Inv)
		return nil
	}
	_, derr := o.dispatch(ctx, ctrl, nil, nil)
	// Worker-side dispatch errors were already folded into the
	// collective agreement; the communicator reported them.
	_ = derr
	return nil
}

func (o *Object) bcastControl(c *control) {
	e := cdr.NewEncoder(cdr.BigEndian)
	c.encode(e)
	_, _ = o.th.Bcast(0, e.Bytes())
}

// dispatch is the collective body run by every thread: materialize
// local argument blocks, invoke the handler, return out-data. Only
// the communicator (which passes the request and its wire w) returns
// the reply body; it
// references the centralized out-arguments in the threads' own blocks,
// which stay lent to it until the reply is written. ctx is the Serve
// context: it (or Close) unblocks threads waiting on block transfers
// whose sender died. (The per-request Incoming.Ctx is useless here —
// it is cancelled as soon as the request is queued.)
func (o *Object) dispatch(ctx context.Context, ctrl *control, w *invocationWire, in *orb.Incoming) (_ *replyWire, err error) {
	o.served.Add(1)
	defer func() {
		if err != nil {
			o.failed.Add(1)
			// A failed dispatch may leave a put mid-landing or a lent
			// block mid-read; the next one starts on fresh storage.
			o.argBlocks = nil
		}
	}()
	// The communicator only broadcasts an operation it knows, and Export
	// checked that every rank knows the same ones.
	op := o.cfg.Ops[ctrl.Op]

	// Bound the dispatch by the propagated deadline, rebased onto this
	// rank's clock: a client that stopped waiting must not strand the
	// collective in a window wait past the budget it asked for.
	if ctrl.DeadlineMicros > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx,
			time.Duration(ctrl.DeadlineMicros)*time.Microsecond)
		defer cancel()
	}

	// Phase 1: materialize argument sequences.
	if o.rank == 0 {
		o.landing = requestLanding{w: w, blocks: append(o.landing.blocks[:0], make([][][]float64, len(ctrl.Args))...)}
	}
	args := make([]*dseq.Doubles, len(ctrl.Args))
	clientLayouts := make([]dist.Layout, len(ctrl.Args))
	var firstErr error
	for i, ca := range ctrl.Args {
		serverLayout, err := op.Spec.Args[i].Dist.Apply(ca.Length, o.size)
		if err != nil {
			firstErr = err
			break
		}
		clientLayout, err := dist.FromCounts(ca.ClientCounts)
		if err != nil {
			firstErr = err
			break
		}
		if clientLayout.Len() != ca.Length {
			firstErr = fmt.Errorf("%w: client layout sums to %d, length %d",
				ErrBadCall, clientLayout.Len(), ca.Length)
			break
		}
		clientLayouts[i] = clientLayout
		seq, err := dseq.DoublesFromLocal(serverLayout, o.rank,
			o.argBlock(i, serverLayout.Count(o.rank), ca.Mode))
		if err != nil {
			firstErr = err
			break
		}
		args[i] = seq

		if ca.Mode == In || ca.Mode == InOut {
			switch ctrl.Method {
			case Centralized:
				// Every thread lends the communicator its block, which it
				// does not touch again until the agreement below; the
				// communicator fills them all after the loop.
				blocks, err := o.th.LendDoubles(0, seq.LocalData(), serverLayout.Counts())
				if err != nil {
					firstErr = err
				} else if o.rank == 0 {
					o.landing.blocks[i] = blocks
				}
			case MultiPort:
				plan, err := dist.Plan(clientLayout, seq.Layout())
				if err != nil {
					firstErr = err
					break
				}
				if err := o.receiveBlocks(ctx, ctrl.Inv, uint32(i), plan, seq); err != nil {
					firstErr = err
				}
			}
		}
		if firstErr != nil {
			break
		}
	}
	if o.rank == 0 {
		// Scatter as part of unmarshaling (§3.2): the communicator lands
		// the request's elements off the connection, or decodes the
		// request read whole, straight into every thread's lent block.
		if firstErr == nil && ctrl.Method == Centralized {
			if in.Parked() {
				firstErr = in.Land(&o.landing)
			} else {
				o.landing.decode(in)
			}
		}
		clear(o.landing.blocks)
		o.landing.w = nil
	}
	// A rank that failed phase 1 registers none of the invocation's
	// windows from here on: the puts still due to it are skimmed, before
	// the agreement below can wait on a client whose puts queue behind
	// them.
	if firstErr != nil {
		o.retire(ctrl.Inv)
	}

	// Collective agreement on phase-1 status.
	if err := o.agree(firstErr); err != nil {
		return nil, err
	}

	// Phase 2: invoke the handler on every thread.
	call := &Call{
		Op:      ctrl.Op,
		Thread:  o.th,
		Scalars: cdr.NewDecoderAt(cdr.BigEndian, nil, 0),
		Args:    args,
		// Reply bytes are embedded in an encapsulation whose payload
		// starts at stream offset 1 (after the byte-order flag).
		reply: cdr.NewEncoderAt(cdr.BigEndian, 1),
	}
	// The scalar encapsulation carries its own byte-order flag.
	if len(ctrl.Scalars) > 0 {
		flag := ctrl.Scalars[0]
		call.Scalars = cdr.NewDecoderAt(cdr.ByteOrder(flag&1), ctrl.Scalars[1:], 1)
	}
	herr := op.Handler(call)
	if err := o.agree(herr); err != nil {
		return nil, err
	}

	// Phase 3: return out/inout data.
	var replyArgs [][][]float64
	for i, ca := range ctrl.Args {
		if ca.Mode != Out && ca.Mode != InOut {
			continue
		}
		switch ctrl.Method {
		case Centralized:
			// Gather as part of marshaling: the threads lend their blocks
			// and the communicator encodes the reply from them.
			blocks, err := o.th.LendDoubles(0, args[i].LocalData(), args[i].Layout().Counts())
			if err != nil {
				firstErr = err
			} else if o.rank == 0 {
				replyArgs = append(replyArgs, blocks)
			}
		case MultiPort:
			plan, err := dist.Plan(args[i].Layout(), clientLayouts[i])
			if err != nil {
				firstErr = err
				break
			}
			if err := o.sendBlocks(ctrl.Inv, uint32(i), plan, args[i], ca.ClientEndpoints); err != nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			break
		}
	}
	// Each centralized out-lend has answered every rank with one verdict
	// already; the multi-port puts' outcome is agreed on here. The
	// dispatch's last agreement is §3.2's "after the invocation the
	// server's computing threads synchronize": every rank has entered it,
	// so no barrier follows.
	if ctrl.Method == MultiPort {
		firstErr = o.agree(firstErr)
	}
	if firstErr != nil {
		return nil, firstErr
	}

	if o.rank != 0 {
		return nil, nil
	}
	return &replyWire{Scalars: call.reply.Bytes(), Args: replyArgs}, nil
}

// argBlock returns this rank's n-element local block of distributed
// argument i, reusing the storage of earlier dispatches and growing it
// when a longer sequence arrives. Dispatches on one object are strictly
// serial, and the last reader of a block — the out-transfer's writes,
// or the communicator marshaling the reply from the lent blocks — is
// done before the next control broadcast, so nothing of the previous
// invocation still looks at it. In and InOut blocks are overwritten in
// full by the in-transfer; Out blocks are cleared here. The capacity is
// clipped so a handler cannot reslice into a longer predecessor's tail.
func (o *Object) argBlock(i, n int, mode ArgMode) []float64 {
	for len(o.argBlocks) <= i {
		o.argBlocks = append(o.argBlocks, nil)
	}
	if cap(o.argBlocks[i]) < n {
		o.argBlocks[i] = make([]float64, n)
	} else if mode == Out {
		clear(o.argBlocks[i][:n])
	}
	return o.argBlocks[i][:n:n]
}

// receiveBlocks collects this thread's share of a multi-port in
// transfer into seq's local block: the block is registered as a
// one-sided window and the senders' puts land in it straight off their
// delivering connections' read buffers (concurrently and out of order),
// while this thread waits for the element count to reach the plan's
// total. ctx (or object close) bounds the wait so a dead sender cannot
// strand the dispatch.
func (o *Object) receiveBlocks(ctx context.Context, inv uint64, argIdx uint32, plan []dist.Transfer, seq *dseq.Doubles) error {
	expect := planElemsTo(plan, o.rank)
	if expect == 0 {
		return nil
	}
	if o.srv == nil {
		return fmt.Errorf("%w: thread %d has no port for multi-port transfer", ErrBadCall, o.rank)
	}
	key, err := giop.BlockSinkKey(inv, argIdx)
	if err != nil {
		return err
	}
	// The wait rides the invoking client's lease: every put it lands
	// renews the lease, and if the client dies mid-transfer the lease
	// expiry unwinds the wait (teardown via the deferred cancel) instead
	// of stranding the collective until the Serve context ends.
	l := o.leases.acquire(leaseClient(inv))
	win, cancel, err := o.srv.RegisterWindow(key, seq.LocalData(), int64(expect),
		func() { l.last.Store(time.Now().UnixNano()) })
	if err != nil {
		return err
	}
	defer cancel()
	return waitWindow(ctx, win, o.closed, l.expired)
}

// sendBlocks ships this thread's share of a multi-port out transfer
// directly to the client threads' endpoints, chunked and windowed, as
// puts into the windows the client registered (see sendPlanPuts).
func (o *Object) sendBlocks(inv uint64, argIdx uint32, plan []dist.Transfer, seq *dseq.Doubles, endpoints []string) error {
	if len(dist.PlanFor(plan, o.rank)) == 0 {
		return nil
	}
	if len(endpoints) == 0 {
		return fmt.Errorf("%w: client sent no endpoints for multi-port out transfer", ErrBadCall)
	}
	endpointFor := func(to int) string {
		if to < len(endpoints) {
			return endpoints[to]
		}
		return endpoints[0]
	}
	_, err := sendPlanPuts(o.out, inv, argIdx, o.rank, plan, seq.LocalData(),
		endpointFor, ResolvedXferWindow(), xferChunkElems)
	return err
}

// agree reaches a collective verdict on a dispatch phase: if any
// thread reports an error, every thread returns one.
func (o *Object) agree(local error) error {
	return collectiveVerdict(o.th, local, func(r int) error {
		return fmt.Errorf("%w: thread %d failed", ErrRemote, r)
	})
}
