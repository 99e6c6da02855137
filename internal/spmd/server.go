package spmd

import (
	"context"
	"errors"
	"fmt"
	"strconv"
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
	// XferWindow bounds how many out-block sends this thread keeps in
	// flight per transfer (0 = spmd.DefaultXferWindow, negative =
	// serial).
	XferWindow int
	// XferChunkBytes is the payload size above which an out-block is
	// split into pipelined chunks (0 = spmd.DefaultXferChunkBytes,
	// negative = chunking disabled).
	XferChunkBytes int
	// AutoTune enables the self-tuning transport for out-argument
	// transfers (0 = spmd.DefaultAutoTune, negative = off): each rank
	// feeds its out-transfer bytes/seconds into the process-wide tuner
	// (spmd.AutoTuner) and re-resolves its chunk, window, and stripe
	// knobs per transfer. The path is keyed by the invoking client's
	// first receive endpoint (its threads are assumed co-located).
	// All threads must pass the same value.
	AutoTune int
	// LeaseTTL is how long a client's server-side lease survives
	// without traffic before its rank-side state (registered windows,
	// in-dispatch waits) is reclaimed. 0 = DefaultLeaseTTL, negative =
	// leases disabled (the pre-lease behavior: waits are bounded only
	// by the Serve context and Close).
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
	queue  chan *orb.Incoming // communicator only
	closed chan struct{}
	leases *leaseTable // nil = leases disabled

	served atomic.Uint64
	failed atomic.Uint64

	// window/chunkElems are the resolved data-plane knobs (see
	// ObjectConfig.XferWindow / XferChunkBytes); with autoTune on,
	// sendBlocks re-resolves them from the shared tuner per transfer.
	window     int
	chunkElems int
	autoTune   bool

	// rankLag is this rank's interned post-invocation barrier
	// histogram (rank is fixed for the object's lifetime).
	rankLag *telemetry.Histogram
	// xferIn/xferOut time this rank's transfer phases (in-argument
	// landing / out-argument fan-out).
	xferIn, xferOut *telemetry.Histogram

	// argBlocks[i] is the storage behind this rank's local block of
	// distributed argument i, kept from one dispatch to the next (see
	// argBlock). Touched only by the rank's serve loop.
	argBlocks [][]float64
}

// Interned once at package load — the per-dispatch phase histograms
// have fixed labels, so the registry lookup is hoisted out of the
// dispatch path.
var (
	phaseServerArgs    = telemetry.Default.Histogram("pardis_spmd_phase_seconds", "phase", "server_args")
	phaseServerHandler = telemetry.Default.Histogram("pardis_spmd_phase_seconds", "phase", "server_handler")
	phaseServerOut     = telemetry.Default.Histogram("pardis_spmd_phase_seconds", "phase", "server_out")
	// shedExpiredSPMD counts queued invocations whose propagated
	// deadline had already passed when the communicator popped them:
	// they are answered with TIMEOUT without engaging the collective.
	shedExpiredSPMD = telemetry.Default.Counter("pardis_spmd_shed_total", "reason", "expired")
)

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
// windows and buffered early puts). After the serve loops exit it
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
	o := &Object{
		cfg:    cfg,
		th:     th,
		rank:   th.Rank(),
		size:   th.Size(),
		closed: make(chan struct{}),
	}
	o.window = resolveWindow(cfg.XferWindow)
	o.chunkElems = resolveChunkElems(cfg.XferChunkBytes)
	o.autoTune = resolveAutoTune(cfg.AutoTune)
	if cfg.LeaseTTL >= 0 {
		ttl := cfg.LeaseTTL
		if ttl == 0 {
			ttl = DefaultLeaseTTL
		}
		o.leases = newLeaseTable(ttl)
	}
	o.rankLag = telemetry.Default.Histogram("pardis_spmd_rank_lag_seconds",
		"side", "server", "rank", strconv.Itoa(o.rank))
	o.xferIn = telemetry.Default.Histogram("pardis_spmd_transfer_seconds",
		"side", "server", "dir", "in", "rank", strconv.Itoa(o.rank))
	o.xferOut = telemetry.Default.Histogram("pardis_spmd_transfer_seconds",
		"side", "server", "dir", "out", "rank", strconv.Itoa(o.rank))

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
	var outOpts []orb.ClientOption
	if o.autoTune {
		// Tuner-capped lazy stripe growth toward each client endpoint:
		// the out-client may open connections past the static width, up
		// to the tuner's recommendation for that destination, still only
		// under observed queueing.
		outOpts = append(outOpts, orb.WithStripeCap(func(ep string) int {
			if rec, ok := AutoTuner.Recommend(ep); ok {
				return rec.Stripes
			}
			return 0
		}))
	}
	o.out = orb.NewClient(reg, outOpts...)

	// Collective verdict on the listen phase: if any thread failed to
	// open its port, every thread learns which one and returns a
	// partial-failure error, instead of the communicator deadlocking
	// in the endpoint exchange waiting for a port that will never
	// exist.
	if err := collectiveVerdict(th, listenErr, "open its port"); err != nil {
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
	// answer describe/locate for robustness.
	if o.rank == 0 {
		o.queue = make(chan *orb.Incoming, 64)
		o.srv.Handle(cfg.Key, func(in *orb.Incoming) {
			// Any request is proof of client life: renew its lease
			// before anything else, so a queued invocation cannot lose
			// its own lease while waiting for the collective.
			if o.leases != nil {
				o.leases.acquire(leaseClient(in.Header.InvocationID))
			}
			switch in.Header.Operation {
			case DescribeOperation:
				o.replyDescribe(in)
				return
			case RenewOperation:
				// The explicit cheap renew for idle bindings: answered
				// inline on the communicator port, never engaging the
				// collective.
				_ = in.Reply(giop.ReplyOK, nil)
				return
			}
			select {
			case o.queue <- in:
			case <-o.closed:
				_ = in.ReplySystemException("OBJ_ADAPTER", "object closed")
			case <-in.Ctx.Done():
			}
		})
	} else if o.srv != nil {
		o.srv.Handle(cfg.Key, func(in *orb.Incoming) {
			if o.leases != nil {
				o.leases.acquire(leaseClient(in.Header.InvocationID))
			}
			switch in.Header.Operation {
			case DescribeOperation:
				o.replyDescribe(in)
				return
			case RenewOperation:
				_ = in.Reply(giop.ReplyOK, nil)
				return
			}
			_ = in.ReplySystemException("BAD_OPERATION",
				"requests must target the communicator port")
		})
	}
	if o.leases != nil {
		go o.leaseSweepLoop()
	}
	return o, nil
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

// Leases reports the number of live client leases on this rank (0
// when leases are disabled).
func (o *Object) Leases() int {
	if o.leases == nil {
		return 0
	}
	return o.leases.size()
}

// Ref returns the object reference to register with the naming
// service. Valid on every thread.
func (o *Object) Ref() *ior.Ref { return o.ref }

func (o *Object) replyDescribe(in *orb.Incoming) {
	w := describeWire{Threads: o.size, MultiPort: o.cfg.MultiPort,
		Ops: make(map[string]*OpSpec, len(o.cfg.Ops))}
	for name, op := range o.cfg.Ops {
		spec := op.Spec
		w.Ops[name] = &spec
	}
	_ = in.Reply(giop.ReplyOK, w.encode)
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
	OK     bool // false: serve loop should exit
	Op     string
	Inv    uint64
	Method TransferMethod
	// DeadlineMicros is the client deadline budget still remaining when
	// the communicator broadcast the control record (0 = none). Every
	// rank rebases it onto its own clock and bounds its dispatch — in
	// particular the window waits — by it.
	DeadlineMicros uint64
	Scalars        []byte
	Args           []controlArg
	ErrMsg         string
}

type controlArg struct {
	Mode            ArgMode
	Length          int
	ClientCounts    []int
	ClientEndpoints []string
}

func (c *control) encode(e *cdr.Encoder) {
	e.PutBoolean(c.OK)
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
	e.PutString(c.ErrMsg)
}

func decodeControl(d *cdr.Decoder) (*control, error) {
	var c control
	var err error
	if c.OK, err = d.Boolean(); err != nil {
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
	if c.ErrMsg, err = d.String(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Serve processes requests until Close; it must run on every
// computing thread of the object concurrently. It returns ErrClosed
// after a clean shutdown.
func (o *Object) Serve(ctx context.Context) error {
	for {
		err := o.serveOne(ctx)
		if err != nil {
			return err
		}
	}
}

// ServeOne processes exactly one request collectively (useful for
// tests and lock-step servers); Serve is the loop over it.
func (o *Object) ServeOne(ctx context.Context) error { return o.serveOne(ctx) }

func (o *Object) serveOne(ctx context.Context) error {
	if o.rank == 0 {
		return o.communicatorServeOne(ctx)
	}
	return o.workerServeOne(ctx)
}

// communicatorServeOne pops one queued request, drives the collective
// dispatch, and replies.
func (o *Object) communicatorServeOne(ctx context.Context) error {
	var in *orb.Incoming
	select {
	case in = <-o.queue:
	case <-o.closed:
		o.bcastControl(&control{OK: false})
		return ErrClosed
	case <-ctx.Done():
		o.bcastControl(&control{OK: false})
		return ctx.Err()
	}

	// A queued invocation whose propagated deadline already passed is
	// shed here, before the collective is engaged: the client has given
	// up, so burning every rank on its dispatch would only add load.
	if !in.Expiry.IsZero() && !time.Now().Before(in.Expiry) {
		shedExpiredSPMD.Inc()
		_ = in.ReplySystemException("TIMEOUT",
			"request deadline expired before collective dispatch")
		return nil
	}

	// Decode the invocation body.
	w, err := decodeInvocationWire(in.Decoder())
	if err != nil {
		_ = in.ReplySystemException("MARSHAL", err.Error())
		// The collective is not engaged yet; keep serving.
		return nil
	}
	op, ok := o.cfg.Ops[in.Header.Operation]
	if !ok {
		_ = in.ReplySystemException("BAD_OPERATION", in.Header.Operation)
		return nil
	}
	if len(w.Args) != len(op.Spec.Args) {
		_ = in.ReplySystemException("BAD_PARAM",
			fmt.Sprintf("operation %s takes %d distributed args, got %d",
				in.Header.Operation, len(op.Spec.Args), len(w.Args)))
		return nil
	}
	for i, a := range w.Args {
		if a.Mode != op.Spec.Args[i].Mode {
			_ = in.ReplySystemException("BAD_PARAM",
				fmt.Sprintf("arg %d mode %v, declared %v", i, a.Mode, op.Spec.Args[i].Mode))
			return nil
		}
		// Only this thread sees the inline data, so only it can find it
		// malformed: it must, here, before the collective is engaged.
		if w.Method == Centralized && a.Mode != Out && len(a.Raw) != a.Length*8 {
			_ = in.ReplySystemException("BAD_PARAM",
				fmt.Sprintf("arg %d: inline data %d of %d elements", i, len(a.Raw)/8, a.Length))
			return nil
		}
	}
	if w.Method == MultiPort && !o.cfg.MultiPort {
		_ = in.ReplySystemException("BAD_PARAM", "object does not export multi-port endpoints")
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

	marshalReply, derr := o.dispatch(ctx, ctrl, w, in.Header)
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
	return in.Reply(giop.ReplyOK, marshalReply)
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
	_, derr := o.dispatch(ctx, ctrl, nil, giop.RequestHeader{})
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
// the communicator (which passes w != nil) returns the reply body's
// marshaler; it reads the centralized out-arguments from the threads'
// own blocks, which stay lent to it until the reply is written. ctx
// is the Serve context: it (or Close) unblocks threads waiting on
// block transfers whose sender died. (The per-request Incoming.Ctx is
// useless here — it is cancelled as soon as the request is queued.)
func (o *Object) dispatch(ctx context.Context, ctrl *control, w *invocationWire, hdr giop.RequestHeader) (_ func(*cdr.Encoder), err error) {
	o.served.Add(1)
	defer func() {
		if err != nil {
			o.failed.Add(1)
			// A failed dispatch may leave a put mid-landing or a lent
			// block mid-read; the next one starts on fresh storage.
			o.argBlocks = nil
		}
	}()
	op := o.cfg.Ops[ctrl.Op]
	if op == nil {
		// Workers learn about unknown ops only here; communicator
		// filtered already.
		return nil, fmt.Errorf("%w: unknown operation %q", ErrBadCall, ctrl.Op)
	}

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
	phaseT := time.Now()
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
			o.argBlock(i, serverLayout.Count(o.rank), ca.Mode), dseq.Owner)
		if err != nil {
			firstErr = err
			break
		}
		args[i] = seq

		if ca.Mode == In || ca.Mode == InOut {
			switch ctrl.Method {
			case Centralized:
				// Scatter as part of unmarshaling (§3.2): the communicator
				// decodes the request frame straight into every thread's
				// block, lent to it until the agreement below.
				blocks, err := o.th.LendDoubles(0, seq.LocalData(), serverLayout.Counts())
				if err != nil {
					firstErr = err
				} else if o.rank == 0 {
					decodeDoubleBlocks(blocks, w.Args[i].Raw, w.order)
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

	// Collective agreement on phase-1 status.
	if err := o.agree(firstErr); err != nil {
		return nil, err
	}
	phaseServerArgs.ObserveDuration(time.Since(phaseT))

	// Phase 2: invoke the handler on every thread.
	phaseT = time.Now()
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
	phaseServerHandler.ObserveDuration(time.Since(phaseT))

	// Phase 3: return out/inout data.
	phaseT = time.Now()
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
	if err := o.agree(firstErr); err != nil {
		return nil, err
	}
	phaseServerOut.ObserveDuration(time.Since(phaseT))

	// Post-invocation synchronization: "after the invocation the
	// server's computing threads synchronize and the communicator
	// informs the client of the completion status" (§3.2). The time a
	// rank spends here is its lag ahead of the slowest rank.
	phaseT = time.Now()
	if err := o.th.Barrier(); err != nil {
		return nil, err
	}
	o.rankLag.ObserveDuration(time.Since(phaseT))

	if o.rank != 0 {
		return nil, nil
	}
	// Reply body: the scalar results as an encapsulation, then the
	// centralized out-arguments, marshaled in the reply's own encoder.
	return func(e *cdr.Encoder) {
		e.PutEncapsulation(cdr.BigEndian, func(ie *cdr.Encoder) {
			ie.PutOctets(call.reply.Bytes())
		})
		e.PutULong(uint32(len(replyArgs)))
		for _, blocks := range replyArgs {
			putDoubleBlocks(e, blocks)
		}
	}, nil
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
	t := time.Now()
	// The wait rides the invoking client's lease: every put it lands
	// renews the lease, and if the client dies mid-transfer the lease
	// expiry unwinds the wait (teardown via the deferred cancel) instead
	// of stranding the collective until the Serve context ends.
	var expired <-chan struct{}
	var onPut func()
	if o.leases != nil {
		l := o.leases.acquire(leaseClient(inv))
		expired = l.expired
		onPut = func() { l.last.Store(time.Now().UnixNano()) }
	}
	win, cancel, err := o.srv.RegisterWindow(key, seq.LocalData(), int64(expect), onPut)
	if err != nil {
		return err
	}
	defer cancel()
	err = waitWindow(ctx, win, o.closed, expired)
	o.xferIn.ObserveDuration(time.Since(t))
	return err
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
	window, chunkElems := o.window, o.chunkElems
	pathKey := ""
	if o.autoTune {
		// Keyed by the client's first receive endpoint: its threads are
		// assumed co-located, so one path model covers the fan-out.
		pathKey = endpoints[0]
		window, chunkElems = tunedKnobs(pathKey, window, chunkElems)
	}
	t := time.Now()
	n, err := sendPlanPuts(o.out, inv, argIdx, o.rank, plan, seq.LocalData(),
		endpointFor, window, chunkElems)
	elapsed := time.Since(t)
	o.xferOut.ObserveDuration(elapsed)
	if o.autoTune && err == nil {
		AutoTuner.Record(pathKey, n, elapsed)
	}
	return err
}

// agree reaches a collective verdict: if any thread reports an error,
// every thread returns one (the communicator's message wins for
// reporting).
func (o *Object) agree(local error) error {
	flag := uint64(0)
	if local != nil {
		flag = 1
	}
	flags, err := o.th.AllgatherU64(flag)
	if err != nil {
		return err
	}
	for r, f := range flags {
		if f != 0 {
			if local != nil {
				return local
			}
			return fmt.Errorf("%w: thread %d failed", ErrRemote, r)
		}
	}
	return nil
}
