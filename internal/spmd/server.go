package spmd

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
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
	// copies it. So are the Call itself, its Scalars decoder and its
	// Reply encoder, which the object reuses for the next invocation.
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

	// The object's argument blocks, root's alone (DESIGN.md §10, "Argument
	// blocks belong to the object"): argBlocks[r][i] is the storage behind
	// rank r's local block of distributed argument i, kept from one
	// dispatch to the next (argBlock). For the invocation being
	// dispatched, table[r] lists rank r's blocks as the control broadcast
	// hands them to it, and byArg[i] argument i's blocks in rank order, as
	// the request lands in them and the reply is written from them. server
	// and client are the invocation's layouts, as root checked them at pop
	// and each worker recomputes them from the control record.
	argBlocks      [][][]float64
	table          [][][]float64
	byArg          [][][]float64
	server, client []dist.Layout

	// readWhole counts the requests the communicator read whole at pop
	// rather than landing them.
	readWhole atomic.Uint64
	// wire is the request the communicator is dispatching, decoded into
	// the same storage by every request; landing is its lander, and
	// scalars its copy of a landing request's scalar encapsulation, all
	// reused by every dispatch.
	wire    invocationWire
	landing requestLanding
	scalars []byte

	// What one dispatch leaves for the next of the same shape (DESIGN.md
	// §10, "Plan memos"). server and client above stay while the
	// operation, layoutOp, and every argument's length and client counts
	// repeat; plans[i] is argument i's plan memo in each direction.
	layoutOp *Op
	plans    []argPlans
	// ctrl is the invocation's control record: root assembles it, a
	// worker decodes the broadcast into it, each time in the same
	// storage.
	ctrl control
	// ctrlEnc is root's two control-record buffers, used by alternate
	// broadcasts: the broadcast lends a record to the workers until they
	// enter their next collective, so record k+2 overwrites record k only
	// once root has returned from broadcasting record k+1.
	ctrlEnc [2]*cdr.Encoder
	ctrlSeq int
	// call, scalarDec, replyEnc and args are the handler's Call, its
	// scalar decoder and reply encoder, and its argument list; reply is
	// root's reply body. Every dispatch reuses them.
	call      Call
	scalarDec cdr.Decoder
	replyEnc  *cdr.Encoder
	args      []*dseq.Doubles
	reply     replyWire
	// sendEndpoint maps a client thread to its endpoint among sendEPs,
	// the client endpoints of the out-transfer being sent: one closure
	// made at Export, so a send allocates none.
	sendEndpoint func(int) string
	sendEPs      []string
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

// Export creates the thread's share of an SPMD object: it opens this
// thread's port (communicator always; other threads only under
// MultiPort), and the communicator assembles the object reference from
// every thread's endpoint. It must be called collectively.
func Export(cfg ObjectConfig) (_ *Object, err error) {
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
		cfg:      cfg,
		th:       th,
		rank:     th.Rank(),
		size:     th.Size(),
		closed:   make(chan struct{}),
		leases:   newLeaseTable(ttl),
		out:      orb.NewClient(reg),
		ctrlEnc:  [2]*cdr.Encoder{cdr.NewEncoder(cdr.BigEndian), cdr.NewEncoder(cdr.BigEndian)},
		replyEnc: cdr.NewEncoderAt(cdr.BigEndian, 1),
	}
	defer func() {
		if err != nil {
			if o.srv != nil {
				o.srv.Close()
			}
			o.out.Close()
		}
	}()
	// A client's windows on this rank go with its lease.
	o.leases.onExpire = func(client uint64) {
		if o.srv != nil {
			o.srv.DropWindows(client)
		}
	}
	o.sendEndpoint = func(to int) string {
		if to < len(o.sendEPs) {
			return o.sendEPs[to]
		}
		return o.sendEPs[0]
	}

	var endpoint string
	var listenErr error
	if o.rank == 0 || cfg.MultiPort {
		o.srv = orb.NewServer(reg)
		endpoint, listenErr = o.srv.Listen(cfg.ListenEndpoint)
	}

	// One set-up step (setUp): a thread whose port failed to open fails
	// Export on every thread, naming its rank, instead of leaving the
	// communicator waiting for a port that will never exist. Every part
	// carries its thread's digest of what describe answers (operations,
	// their arguments' modes and distributions, MultiPort): a worker that
	// lacked an operation the communicator broadcast would leave the
	// others waiting in the dispatch's collectives, so threads that
	// disagree fail here, every one of them. The communicator assembles
	// and validates the reference and broadcasts its stringified form.
	ref, err := setUp(th, true, "open its port", listenErr, o.describe().digest(), endpoint,
		func(endpoints []string) ([]byte, error) {
			if !cfg.MultiPort {
				endpoints = endpoints[:1]
			}
			o.ref = &ior.Ref{TypeID: cfg.TypeID, Key: cfg.Key, Threads: o.size, Endpoints: endpoints}
			if err := o.ref.Validate(); err != nil {
				return nil, err
			}
			return []byte(o.ref.Stringify()), nil
		})
	if err != nil {
		return nil, err
	}
	if o.rank != 0 {
		if o.ref, err = ior.Parse(string(ref)); err != nil {
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
	// every rank for its epoch, and only the communicator reaches every
	// rank to end it (refused), so it is queued all the same.
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
// centralized request: it fills every rank's argument blocks with the
// request's inline elements, off the connection (LandRequest) or out of
// the body read whole (decode), walking both the same way.
type requestLanding struct {
	w *invocationWire
	// blocks[i] is argument i's blocks in rank order; nil for an
	// argument that takes no elements, whose inline ones, if any, are
	// skipped.
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
	// collective: no rank dispatches it, and every rank ends its epoch,
	// so the puts its client shipped are skimmed, not waited on.
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

// decodeControl decodes a control record into c, reusing its storage:
// the argument slice, each argument's counts and endpoint list, and the
// scalars' buffer. A string the record repeats allocates nothing: the
// operation name when it is c's or, with ops, one of ops' names, and an
// endpoint equal to the one c held at its position. Everything c held
// before is overwritten.
func decodeControl(d *cdr.Decoder, c *control, ops map[string]*Op) error {
	var err error
	if c.OK, err = d.Boolean(); err != nil {
		return err
	}
	if c.Refused, err = d.Boolean(); err != nil {
		return err
	}
	name, err := d.StringBytes()
	if err != nil {
		return err
	}
	if string(name) != c.Op {
		c.Op = internOp(name, ops)
	}
	if c.Inv, err = d.ULongLong(); err != nil {
		return err
	}
	m, err := d.Octet()
	if err != nil {
		return err
	}
	c.Method = TransferMethod(m)
	if c.DeadlineMicros, err = d.ULongLong(); err != nil {
		return err
	}
	scalars, err := d.OctetSeq()
	if err != nil {
		return err
	}
	c.Scalars = append(c.Scalars[:0], scalars...)
	n, err := d.ULong()
	if err != nil {
		return err
	}
	// Mode, length and two sequence counts: refuse a count the rest of
	// the record cannot hold before allocating anything for it.
	if uint64(n)*(1+4+4+4) > uint64(d.Remaining()) {
		return fmt.Errorf("%w: %d arguments", ErrBadCall, n)
	}
	c.Args = resized(c.Args, int(n))
	for i := range c.Args {
		if err := decodeControlArg(d, &c.Args[i]); err != nil {
			return err
		}
	}
	return nil
}

// decodeControlArg decodes one argument of a control record into a,
// reusing its storage as decodeControl does.
func decodeControlArg(d *cdr.Decoder, a *controlArg) error {
	mo, err := d.Octet()
	if err != nil {
		return err
	}
	a.Mode = ArgMode(mo)
	l, err := d.ULong()
	if err != nil {
		return err
	}
	a.Length = int(l)
	if a.ClientCounts, err = decodeCounts(d, a.ClientCounts); err != nil {
		return err
	}
	a.ClientEndpoints, err = decodeEndpoints(d, a.ClientEndpoints)
	return err
}

// internOp returns name as a string: ops' own key when ops holds it, so
// that it allocates nothing, or else a new string.
func internOp(name []byte, ops map[string]*Op) string {
	for k := range ops {
		if k == string(name) {
			return k
		}
	}
	return string(name)
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

// communicatorServeOne pops one queued request, stages it in the blocks
// root keeps for every rank, drives the collective dispatch, and
// replies.
func (o *Object) communicatorServeOne(ctx context.Context) error {
	var req request
	select {
	case req = <-o.queue:
	case <-o.closed:
		_ = o.bcastControl(&control{OK: false}, nil) // failing, it has no worker left to tell
		return ErrClosed
	case <-ctx.Done():
		_ = o.bcastControl(&control{OK: false}, nil)
		return ctx.Err()
	}
	in := req.in
	// The request is this function's alone: the invocation wire's
	// scalars alias its body, and rank 0 decodes from it through phase 2
	// of the dispatch. A body still parked on the way out, after an early
	// reply, is skimmed.
	defer in.Release()

	// A multi-port invocation popped after a later one of its binding was
	// dispatched or refused — overlapping InvokeAsync calls whose requests
	// crossed — finds its puts skimmed on every rank, which has armed or
	// ended the later epoch: it is refused at once (below), not left to
	// wait out its client's lease.
	inOrder := !req.mp || o.leases.acquire(leaseClient(in.Header.InvocationID)).pass(uint32(in.Header.InvocationID))

	// A queued invocation whose propagated deadline already passed is
	// shed here, before the collective is engaged: the client has given
	// up, so burning every rank on its dispatch would only add load.
	if !in.Expiry.IsZero() && !time.Now().Before(in.Expiry) {
		err := o.refused(req)
		shedExpiredSPMD.Inc()
		_ = in.ReplySystemException("TIMEOUT",
			"request deadline expired before collective dispatch")
		return err
	}
	if req.gaveUp { // its caller is gone: nothing to answer
		return o.refused(req)
	}
	if !inOrder {
		err := o.refused(req)
		_ = in.ReplySystemException("BAD_INV_ORDER",
			"a later invocation of the binding was dispatched first")
		return err
	}

	// Decode the invocation metadata. A centralized request whose prefix
	// holds it, and that carries elements, lands when it is staged: its
	// scalars, which alias the connection's read buffer until the landing,
	// are copied out for phase 2. Any other is read whole now; one with
	// nothing to land would otherwise hold its connection through its own
	// handler, and a cancel behind it would go unread. Every request
	// decodes into the same wire (o.wire).
	w := &o.wire
	landing := false
	if p := in.Prefix(); len(p) > 0 && p[0] == byte(Centralized) {
		landing = w.decode(in.Order, p, in.BodyBase) == nil && w.hasInline()
	}
	if landing {
		o.scalars = append(o.scalars[:0], w.Scalars...)
		w.Scalars = o.scalars
	} else {
		o.readWhole.Add(1)
		err := in.ReadBody()
		if err == nil {
			err = w.decode(in.Order, in.Body, in.BodyBase)
		}
		if err != nil {
			// A body that does not decode is MARSHAL; one that cannot be
			// read, its connection gone while it was queued, is answered
			// by no reply. The collective is not engaged; keep serving.
			rerr := o.refused(req)
			_ = in.ReplySystemException("MARSHAL", err.Error())
			return rerr
		}
	}
	op, ok := o.cfg.Ops[in.Header.Operation]
	if !ok {
		err := o.refused(req)
		_ = in.ReplySystemException("BAD_OPERATION", in.Header.Operation)
		return err
	}
	if code, detail := o.refuse(w, in.Header.Operation, op.Spec, in.BodyLen()); code != "" {
		err := o.refused(req)
		_ = in.ReplySystemException(code, detail)
		return err
	}

	// The record aliases the invocation wire, which lives as long as the
	// request.
	ctrl := &o.ctrl
	*ctrl = control{
		OK:     true,
		Op:     in.Header.Operation,
		Inv:    in.Header.InvocationID,
		Method: w.Method,
		// The scalar encapsulation reaches every thread byte-equal:
		// "the invocation mechanism provided by PARDIS will ensure
		// that the same value of non-distributed argument will be
		// delivered to all computing threads of the server" (§2.1).
		Scalars: w.Scalars,
		Args:    resized(ctrl.Args, len(w.Args)),
	}
	for i, a := range w.Args {
		ctrl.Args[i] = controlArg{
			Mode:            a.Mode,
			Length:          a.Length,
			ClientCounts:    a.ClientCounts,
			ClientEndpoints: a.ClientEndpoints,
		}
	}
	if err := o.layoutsFor(op, ctrl.Args); err != nil {
		rerr := o.refused(req)
		_ = in.ReplySystemException("BAD_PARAM", err.Error())
		return rerr
	}
	if err := o.stage(ctrl, w, in); err != nil {
		// Only root took part: the dispatch failed before it was shared.
		o.served.Add(1)
		o.failed.Add(1)
		_ = in.ReplySystemException("UNKNOWN", err.Error())
		return nil
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
	// The broadcast hands every rank its blocks: from here until the
	// handler agreement they are the ranks'. A broadcast that fails — the
	// object's world has closed — reached no worker: root answers the
	// request alone, forgets the blocks it handed out, and stops serving,
	// as on Close.
	if err := o.bcastControl(ctrl, o.table); err != nil {
		o.forgetBlocks()
		if req.mp {
			o.endEpoch(ctrl.Inv)
		}
		_ = in.ReplySystemException("OBJ_ADAPTER", "object's runtime closed: "+err.Error())
		return err
	}

	reply, derr := o.dispatch(ctx, ctrl, o.table[0])
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
	// The reply is written straight from the blocks root owns; Reply
	// returns only once the write has, before the next request is staged
	// in them. A write that fails — the client has gone — ends only this
	// invocation.
	_ = in.Reply(giop.ReplyOK, reply.encode)
	return nil
}

// stage readies, on root, invocation ctrl's argument blocks on every
// rank before the control broadcast hands them over: it sizes each
// rank's block of each argument from the layouts root checked, and lands
// a centralized request's elements in them off the connection, or
// decodes the request read whole into them — "scatter as part of
// unmarshaling" (§3.2). A landing that fails, its connection gone
// mid-body, is root's alone to answer; the blocks it tore are forgotten.
func (o *Object) stage(ctrl *control, w *invocationWire, in *orb.Incoming) error {
	o.table = resized(o.table, o.size)
	o.byArg = resized(o.byArg, len(ctrl.Args))
	for len(o.argBlocks) < o.size {
		o.argBlocks = append(o.argBlocks, nil)
	}
	for r := range o.table {
		o.table[r] = resized(o.table[r], len(ctrl.Args))
	}
	for i, ca := range ctrl.Args {
		o.byArg[i] = resized(o.byArg[i], o.size)
		for r := range o.table {
			blk := o.argBlock(r, i, o.server[i].Count(r), ca.Mode)
			o.table[r][i], o.byArg[i][r] = blk, blk
		}
	}
	if ctrl.Method != Centralized {
		return nil
	}
	// Argument i's elements land in byArg[i]; one that takes none has
	// its inline elements, if any, skipped.
	o.landing = requestLanding{w: w, blocks: resized(o.landing.blocks, len(ctrl.Args))}
	for i, ca := range ctrl.Args {
		o.landing.blocks[i] = nil
		if ca.Mode != Out {
			o.landing.blocks[i] = o.byArg[i]
		}
	}
	var err error
	if in.Parked() {
		err = in.Land(&o.landing)
	} else {
		o.landing.decode(in)
	}
	clear(o.landing.blocks)
	o.landing.w = nil
	if err != nil {
		o.forgetBlocks()
	}
	return err
}

// forgetBlocks drops, on root, every rank's argument blocks and the
// tables that list them, after a failed dispatch or landing: the next
// dispatch starts on fresh storage. A failed dispatch may leave a put
// mid-landing in a rank's block, and when the runtime itself failed —
// its world closed — the agreement that ends the ranks' span did not
// happen, so a worker may still be reading its row of the table.
func (o *Object) forgetBlocks() {
	o.argBlocks, o.table, o.byArg = nil, nil, nil
}

// resized returns s with length n, reusing its storage when it holds n.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// layoutsFor makes o.server and o.client the layouts of op's arguments
// args (argLayouts), keeping the previous dispatch's while the
// operation, every argument's length and its client counts repeat.
func (o *Object) layoutsFor(op *Op, args []controlArg) error {
	if o.layoutOp == op && sameShape(o.server, o.client, args) {
		return nil
	}
	o.layoutOp = nil
	var err error
	if o.server, o.client, err = argLayouts(op.Spec, args, o.size, o.server, o.client); err != nil {
		return err
	}
	o.layoutOp = op
	return nil
}

// sameShape reports whether server and client are the layouts of args
// for the operation they were computed for: one pair per argument, the
// server layout as long as the argument, the client layout of its
// counts.
func sameShape(server, client []dist.Layout, args []controlArg) bool {
	if len(server) != len(args) {
		return false
	}
	for i, a := range args {
		if server[i].Len() != a.Length || client[i].P() != len(a.ClientCounts) {
			return false
		}
		for r, n := range a.ClientCounts {
			if client[i].Count(r) != n {
				return false
			}
		}
	}
	return true
}

// argLayouts returns the server and client layouts of args, appended to
// server[:0] and client[:0]: the server's as op declares them over size
// threads, the client's from the counts it sent, which must sum to the
// argument's length.
func argLayouts(spec OpSpec, args []controlArg, size int, server, client []dist.Layout) ([]dist.Layout, []dist.Layout, error) {
	server, client = server[:0], client[:0]
	for i, ca := range args {
		sl, err := spec.Args[i].Dist.Apply(ca.Length, size)
		if err != nil {
			return nil, nil, err
		}
		cl, err := dist.FromCounts(ca.ClientCounts)
		if err != nil {
			return nil, nil, err
		}
		if cl.Len() != ca.Length {
			return nil, nil, fmt.Errorf("%w: client layout sums to %d, length %d",
				ErrBadCall, cl.Len(), ca.Length)
		}
		server, client = append(server, sl), append(client, cl)
	}
	return server, client, nil
}

// refused ends the communicator's part in request req, which it answers
// before the collective. A multi-port invocation's client has shipped
// puts that sit on the ranks' read loops, waiting for an epoch that
// will not be armed: every rank, the others through the control
// broadcast, ends the epoch, so they are skimmed. A centralized one
// ships none, and costs no broadcast. It returns the broadcast's error:
// the object's world has closed, and root stops serving.
func (o *Object) refused(req request) error {
	if !req.mp {
		return nil
	}
	inv := req.in.Header.InvocationID
	o.endEpoch(inv)
	return o.bcastControl(&control{OK: true, Refused: true, Inv: inv}, nil)
}

// endEpoch declares that none of invocation inv's windows is armed on
// this rank any more (orb.Server.EndEpoch). The binding's floor it
// raises is held under its client's lease, renewed here, and goes with
// it.
func (o *Object) endEpoch(inv uint64) {
	if o.srv != nil {
		o.leases.acquire(leaseClient(inv))
		o.srv.EndEpoch(inv)
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

// workerServeOne participates in one collective dispatch, on the blocks
// the control broadcast hands this rank.
func (o *Object) workerServeOne(ctx context.Context) error {
	raw, blocks, err := o.th.BcastDoubles(0, nil, nil)
	if err != nil {
		return err
	}
	ctrl := &o.ctrl
	if err := decodeControl(cdr.NewDecoder(cdr.BigEndian, raw), ctrl, o.cfg.Ops); err != nil {
		return err
	}
	if !ctrl.OK {
		return ErrClosed
	}
	if ctrl.Refused {
		o.endEpoch(ctrl.Inv)
		return nil
	}
	_, derr := o.dispatch(ctx, ctrl, blocks)
	// Worker-side dispatch errors were already folded into the
	// collective agreement; the communicator reported them.
	_ = derr
	return nil
}

// bcastControl broadcasts c from root, handing rank r table[r], and
// returns the broadcast's error. The record goes out by reference, in
// the buffer of the record before last (ctrlEnc).
func (o *Object) bcastControl(c *control, table [][][]float64) error {
	e := o.ctrlEnc[o.ctrlSeq&1]
	o.ctrlSeq++
	e.Reset()
	c.encode(e)
	_, _, err := o.th.BcastDoubles(0, e.Bytes(), table)
	return err
}

// dispatch is the collective body run by every thread: take up the
// argument blocks, invoke the handler, return out-data. blocks are this
// rank's, as root sized them and the control broadcast handed them over;
// a centralized invocation's in-data has landed in them already. A rank
// touches them only until the handler agreement, after which they are
// root's again. Only the communicator returns the reply body; it
// references the centralized out-arguments in every rank's block. ctx
// is the Serve context: it (or Close) unblocks threads waiting on block
// transfers whose sender died. (The per-request Incoming.Ctx is useless
// here — it is cancelled as soon as the request is queued.)
func (o *Object) dispatch(ctx context.Context, ctrl *control, blocks [][]float64) (_ *replyWire, err error) {
	o.served.Add(1)
	defer func() {
		if err != nil {
			o.failed.Add(1)
			o.forgetBlocks()
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

	// Phase 1: materialize argument sequences on the blocks; a multi-port
	// one's in-data lands in them here. Root checked the layouts at pop.
	var firstErr error
	if o.rank != 0 {
		firstErr = o.layoutsFor(op, ctrl.Args)
	}
	server, client := o.server, o.client
	o.plans = resized(o.plans, len(ctrl.Args))
	o.args = resized(o.args, len(ctrl.Args))
	clear(o.args)
	args := o.args
	for i, ca := range ctrl.Args {
		if firstErr != nil {
			break
		}
		if args[i], firstErr = dseq.DoublesFromLocal(server[i], o.rank, blocks[i]); firstErr != nil {
			break
		}
		if ctrl.Method == MultiPort && ca.Mode != Out {
			m := &o.plans[i].in
			err := m.update(client[i], server[i], o.rank, false)
			if err == nil {
				err = o.receiveBlocks(ctx, ctrl.Inv, uint32(i), m.recv, args[i])
			}
			firstErr = err
		}
	}
	if ctrl.Method == MultiPort {
		// A rank that failed phase 1 arms none of the invocation's
		// windows from here on: its epoch ends, so the puts still due to
		// it are skimmed, before the agreement below can wait on a client
		// whose puts queue behind them.
		if firstErr != nil {
			o.endEpoch(ctrl.Inv)
		}
		// Collective agreement on phase-1 status. A centralized invocation
		// has none: its in-data landed on root before the broadcast, and a
		// rank that failed phase 1 regardless enters the handler agreement
		// with its error instead of running the handler.
		if err := o.agree(firstErr); err != nil {
			return nil, err
		}
	}

	// Phase 2: invoke the handler on every thread. Reply bytes are
	// embedded in an encapsulation whose payload starts at stream offset
	// 1 (after the byte-order flag); the scalar encapsulation carries its
	// own byte-order flag.
	o.replyEnc.ResetTo(cdr.BigEndian, 1)
	o.scalarDec = *cdr.NewDecoderAt(cdr.BigEndian, nil, 0)
	if len(ctrl.Scalars) > 0 {
		flag := ctrl.Scalars[0]
		o.scalarDec = *cdr.NewDecoderAt(cdr.ByteOrder(flag&1), ctrl.Scalars[1:], 1)
	}
	call := &o.call
	*call = Call{Op: ctrl.Op, Thread: o.th, Scalars: &o.scalarDec, Args: args, reply: o.replyEnc}
	herr := firstErr
	if herr == nil {
		herr = o.runHandler(op, call)
	}
	if err := o.agree(herr); err != nil {
		return nil, err
	}

	// Phase 3: return out/inout data. A centralized invocation's leaves
	// with the reply, which root writes from every rank's block: the
	// handler agreement ended the ranks' use of them. It is §3.2's "after
	// the invocation the server's computing threads synchronize", so no
	// barrier follows.
	if ctrl.Method == Centralized {
		if o.rank != 0 {
			return nil, nil
		}
		o.reply = replyWire{Scalars: call.reply.Bytes(), Args: o.reply.Args[:0]}
		for i, ca := range ctrl.Args {
			if ca.Mode != In {
				o.reply.Args = append(o.reply.Args, o.byArg[i])
			}
		}
		return &o.reply, nil
	}
	for i, ca := range ctrl.Args {
		if ca.Mode == In {
			continue
		}
		m := &o.plans[i].out
		err := m.update(server[i], client[i], o.rank, true)
		if err == nil {
			err = o.sendBlocks(ctrl.Inv, uint32(i), m, args[i], ca.ClientEndpoints)
		}
		if firstErr = err; err != nil {
			break
		}
	}
	// The multi-port puts' outcome is agreed on here, the dispatch's last
	// agreement: every rank has entered it.
	if err := o.agree(firstErr); err != nil {
		return nil, err
	}
	if o.rank != 0 {
		return nil, nil
	}
	o.reply = replyWire{Scalars: call.reply.Bytes(), Args: o.reply.Args[:0]}
	return &o.reply, nil
}

// runHandler runs op's handler on this rank. A panic becomes the rank's
// error for the handler agreement, as a returned error would: the
// invocation fails on every rank and at the caller, and the object
// serves on. It counts in pardis_server_panics_total under the
// object's key. A panic inside a collective that the handler itself
// entered leaves its peers in that collective; recovering here does
// not free them.
func (o *Object) runHandler(op *Op, call *Call) (err error) {
	defer func() {
		if p := recover(); p != nil {
			telemetry.Default.Counter("pardis_server_panics_total", "key", o.cfg.Key).Inc()
			if telemetry.LogEnabled(slog.LevelError) {
				telemetry.Logger().Error("spmd handler panic",
					"key", o.cfg.Key, "op", call.Op, "thread", o.rank, "panic", fmt.Sprint(p))
			}
			err = fmt.Errorf("spmd: handler panic on thread %d: %v", o.rank, p)
		}
	}()
	return op.Handler(call)
}

// argBlock returns, on root, rank r's n-element local block of
// distributed argument i, reusing the storage of earlier dispatches and
// growing it when a longer sequence arrives. Dispatches on one object
// are strictly serial, and the last reader of a block — the rank's
// out-transfer writes before the last agreement, or root writing the
// reply — is done before root stages the next request, so nothing of
// the previous invocation still looks at it. In and InOut blocks are
// overwritten in full by the in-transfer; Out blocks are cleared here.
// The capacity is clipped so a handler cannot reslice into a longer
// predecessor's tail.
func (o *Object) argBlock(r, i, n int, mode ArgMode) []float64 {
	blks := o.argBlocks[r]
	for len(blks) <= i {
		blks = append(blks, nil)
	}
	if cap(blks[i]) < n {
		blks[i] = make([]float64, n)
	} else if mode == Out {
		clear(blks[i][:n])
	}
	o.argBlocks[r] = blks
	return blks[i][:n:n]
}

// receiveBlocks collects this thread's share of a multi-port in
// transfer, expect elements, into seq's local block, the block root
// handed over: the client binding's window for the argument is armed on
// it for invocation inv, and the senders' puts land in it straight off
// their delivering connections' read buffers (concurrently and out of
// order), while this thread waits for the element count to reach
// expect. ctx (or object close) bounds the wait so a dead sender cannot
// strand the dispatch.
func (o *Object) receiveBlocks(ctx context.Context, inv uint64, argIdx uint32, expect int, seq *dseq.Doubles) error {
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
	// expiry unwinds the wait (and drops the client's windows) instead
	// of stranding the collective until the Serve context ends.
	l := o.leases.acquire(leaseClient(inv))
	win, _, err := o.srv.RegisterWindow(key, seq.LocalData(), int64(expect), l.renew)
	if err != nil {
		return err
	}
	defer win.Cancel()
	return waitWindow(ctx, win, o.closed, l.expired)
}

// sendBlocks ships this thread's share of a multi-port out transfer,
// m's puts, directly to the client threads' endpoints as puts into the
// windows the client armed (see putRun.send).
func (o *Object) sendBlocks(inv uint64, argIdx uint32, m *planMemo, seq *dseq.Doubles, endpoints []string) error {
	if len(m.puts) == 0 {
		return nil
	}
	if len(endpoints) == 0 {
		return fmt.Errorf("%w: client sent no endpoints for multi-port out transfer", ErrBadCall)
	}
	o.sendEPs = endpoints
	_, err := m.send(o.out, inv, argIdx, o.rank, seq.LocalData(), o.sendEndpoint, ResolvedXferWindow())
	return err
}

// agree reaches a collective verdict on a dispatch phase: if any
// thread reports an error, every thread returns one.
func (o *Object) agree(local error) error {
	return collectiveVerdict(o.th, local, func(r int) error {
		return fmt.Errorf("%w: thread %d failed", ErrRemote, r)
	})
}
