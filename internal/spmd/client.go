package spmd

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/future"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/mp"
	"pardis/internal/orb"
	"pardis/internal/rts"
	"pardis/internal/telemetry"
	"pardis/internal/transport"
)

// BindConfig configures one client computing thread's binding to a
// remote SPMD object. All threads must pass equal Method and
// equivalent endpoints.
type BindConfig struct {
	// Thread is this client thread's RTS handle. For a plain
	// (non-parallel) client, wrap a single-rank world.
	Thread rts.Thread
	// Registry supplies transports (nil means transport.Default).
	Registry *transport.Registry
	// Method selects centralized or multi-port argument transfer. A
	// MultiPort binding still sends a blocking invocation that moves
	// less than the crossover (DESIGN.md §10, "Method by payload size")
	// in each direction as Centralized, where multi-port's fixed
	// per-invocation cost outweighs what it saves; see Binding.Invoke.
	Method TransferMethod
	// ListenEndpoint is the template each client thread listens on
	// for multi-port out-argument blocks ("inproc:*",
	// "tcp:127.0.0.1:0"). Unused under Centralized.
	ListenEndpoint string
}

// Binding is one client thread's stub-side connection to an SPMD
// object — what _spmd_bind returns in the paper's client code. All
// collective methods must be entered by every client thread.
type Binding struct {
	cfg    BindConfig
	th     rts.Thread
	rank   int
	size   int
	ref    *ior.Ref
	desc   *describeWire
	oc     *orb.Client // this thread's outbound connections
	recv   *orb.Server // this thread's port for out-blocks (multi-port)
	recvEP string
	method TransferMethod
	// allEndpoints is the per-thread receive endpoint list, known on
	// the communicator only (it alone builds the argument wire).
	allEndpoints []string

	stats bindingStats
}

// bindingStats accumulates per-thread operational counters.
type bindingStats struct {
	invocations atomic.Uint64
	errors      atomic.Uint64
	bytesOut    atomic.Uint64 // distributed-argument bytes this thread shipped
	bytesIn     atomic.Uint64 // distributed-argument bytes this thread received
}

// Stats is a snapshot of a binding's per-thread counters.
type Stats struct {
	// Invocations counts completed collective invocations entered
	// through this thread's binding handle (successes and failures).
	Invocations uint64
	// Errors counts invocations that returned an error.
	Errors uint64
	// BytesOut / BytesIn count distributed-argument payload bytes
	// this thread shipped to / received from the server (multi-port
	// blocks, or this thread's share of centralized gathers and
	// scatters).
	BytesOut, BytesIn uint64
}

// Stats returns a snapshot of this thread's counters.
func (b *Binding) Stats() Stats {
	return Stats{
		Invocations: b.stats.invocations.Load(),
		Errors:      b.stats.errors.Load(),
		BytesOut:    b.stats.bytesOut.Load(),
		BytesIn:     b.stats.bytesIn.Load(),
	}
}

// BlockStats reports this thread's receive-port block-router state.
// Between invocations it must be empty — a nonzero window count means
// an out-argument window leaked.
func (b *Binding) BlockStats() orb.BlockRouterStats {
	if b.recv == nil {
		return orb.BlockRouterStats{}
	}
	return b.recv.BlockStats()
}

// DistArg pairs a distributed sequence with its parameter mode for
// one invocation.
type DistArg struct {
	Mode ArgMode
	Seq  *dseq.Doubles
}

// CallSpec describes one invocation as generated stubs assemble it.
type CallSpec struct {
	// Operation is the IDL operation name.
	Operation string
	// Scalars marshals the non-distributed in-arguments; every
	// thread must produce identical bytes (§2.1: "It is assumed that
	// all threads will invoke the request with identical values of
	// non-distributed arguments" — PARDIS-Go verifies and errors
	// instead of leaving behavior undefined).
	Scalars func(e *cdr.Encoder)
	// Args lists the distributed arguments in declaration order.
	Args []DistArg
	// DecodeReply consumes the scalar results on every thread.
	DecodeReply func(d *cdr.Decoder) error
	// Oneway suppresses the reply: the invocation returns as soon as
	// the arguments are shipped. Oneway calls cannot have Out/InOut
	// arguments or a DecodeReply.
	Oneway bool
}

// Bind establishes a collective binding from every client computing
// thread to the object named by ref (the stub-level _spmd_bind). It
// fetches the object's interface description so transfer plans can be
// computed client-side.
//
// The collective bind runs under an "spmd:bind" span, so the describe
// invocation the communicator issues appears nested in the trace.
func Bind(ctx context.Context, cfg BindConfig, ref *ior.Ref) (*Binding, error) {
	var span *telemetry.Span
	if telemetry.TraceActive(ctx) {
		key := ""
		if ref != nil {
			key = ref.Key
		}
		ctx, span = telemetry.StartSpan(ctx, "spmd:bind",
			telemetry.Attr{Key: "key", Value: key})
	}
	b, err := bind(ctx, cfg, ref)
	if err != nil {
		span.Annotate("error", err.Error())
	}
	span.End()
	return b, err
}

func bind(ctx context.Context, cfg BindConfig, ref *ior.Ref) (*Binding, error) {
	if cfg.Thread == nil {
		return nil, fmt.Errorf("%w: nil RTS thread", ErrBadCall)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = transport.Default
	}
	// The binding's ORB client uses a failover-grade retry policy:
	// enough attempts to try every replica endpoint of the reference
	// at least once (the "retry the next endpoint when one thread's
	// dial fails" behavior of a fault-tolerant bind).
	pol := orb.DefaultRetryPolicy()
	if n := len(ref.FailoverEndpoints()); n > pol.MaxAttempts {
		pol.MaxAttempts = n
	}
	b := &Binding{
		cfg:    cfg,
		th:     cfg.Thread,
		rank:   cfg.Thread.Rank(),
		size:   cfg.Thread.Size(),
		ref:    ref,
		oc:     orb.NewClient(reg, orb.WithRetryPolicy(pol)),
		method: cfg.Method,
	}
	if cfg.Method == MultiPort && !ref.MultiPort() {
		b.oc.Close()
		return nil, fmt.Errorf("%w: object %s does not export multi-port endpoints",
			ErrBadCall, ref.Key)
	}
	// Per-thread receive port for out-argument blocks, with a
	// collective verdict on the listen phase: a thread whose port
	// failed to open must not leave its peers deadlocked in the
	// endpoint exchange — every thread instead learns which rank
	// failed and returns a partial-failure error naming it.
	if cfg.Method == MultiPort {
		var listenErr error
		if cfg.ListenEndpoint == "" {
			listenErr = fmt.Errorf("%w: multi-port binding needs a ListenEndpoint", ErrBadCall)
		} else {
			b.recv = orb.NewServer(reg)
			ep, err := b.recv.Listen(cfg.ListenEndpoint)
			if err != nil {
				listenErr = err
			} else {
				b.recvEP = ep
			}
		}
		if _, err := setupVerdict(b.th, listenErr, "open its receive port", 0); err != nil {
			b.Close()
			return nil, err
		}
	}

	// Exchange receive endpoints so the communicator can advertise
	// them for out-argument transfers.
	if cfg.Method == MultiPort {
		if b.rank == 0 {
			b.allEndpoints = make([]string, b.size)
			b.allEndpoints[0] = b.recvEP
			for i := 1; i < b.size; i++ {
				raw, err := b.th.RecvBytes(i, tagRefExchange)
				if err != nil {
					b.Close()
					return nil, err
				}
				b.allEndpoints[i] = string(raw)
			}
		} else {
			if err := b.th.SendBytes(0, tagRefExchange, []byte(b.recvEP)); err != nil {
				b.Close()
				return nil, err
			}
		}
	}

	// The communicator fetches the interface description once and
	// broadcasts it (collective part of _spmd_bind). The describe
	// invocation fails over across every replica endpoint of the
	// reference (InvokeRef), so a dead first endpoint does not doom
	// the bind. The broadcast payload is tagged: 1 + the reply's
	// byte-order octet + describe bytes on success, 0 + error text on
	// failure, so the peers report the failed thread and cause instead
	// of a bare "bind failed".
	var raw []byte
	if b.rank == 0 {
		hdr := giop.RequestHeader{
			InvocationID:     b.oc.NewInvocationID(),
			ResponseExpected: true,
			ObjectKey:        ref.Key,
			Operation:        DescribeOperation,
			ThreadRank:       0,
			ThreadCount:      int32(b.size),
		}
		r, err := b.oc.InvokeRef(ctx, ref, hdr, nil)
		if err == nil && r.Header.Status != giop.ReplyOK {
			err = fmt.Errorf("%w: describe returned %v", ErrRemote, r.Header.Status)
		}
		var payload []byte
		if err != nil {
			payload = append([]byte{0}, err.Error()...)
		} else {
			// The reply travels on as the server wrote it, behind its
			// byte-order octet: every thread decodes in that order.
			payload = append([]byte{1, byte(r.Order)}, r.Body...)
		}
		if _, berr := b.th.Bcast(0, payload); berr != nil {
			b.Close()
			return nil, berr
		}
		if err != nil {
			b.Close()
			return nil, err
		}
		raw = payload[1:]
	} else {
		payload, err := b.th.Bcast(0, nil)
		if err != nil {
			b.Close()
			return nil, err
		}
		if len(payload) == 0 {
			b.Close()
			return nil, fmt.Errorf("%w: bind failed on communicator", ErrRemote)
		}
		if payload[0] == 0 {
			b.Close()
			return nil, fmt.Errorf("%w: bind failed on thread 0: %s",
				ErrPartialFailure, payload[1:])
		}
		raw = payload[1:]
	}
	if len(raw) < 2 {
		b.Close()
		return nil, fmt.Errorf("%w: bind failed on communicator", ErrRemote)
	}
	desc, err := decodeDescribeWire(cdr.NewDecoder(cdr.ByteOrder(raw[0]&1), raw[1:]))
	if err != nil {
		b.Close()
		return nil, err
	}
	if desc.Threads != ref.Threads {
		b.Close()
		return nil, fmt.Errorf("%w: reference says %d threads, object says %d",
			ErrRemote, ref.Threads, desc.Threads)
	}
	if cfg.Method == MultiPort && !desc.MultiPort {
		b.Close()
		return nil, fmt.Errorf("%w: object %s was not exported multi-port",
			ErrBadCall, ref.Key)
	}
	b.desc = desc
	return b, nil
}

// Ref returns the bound object's reference.
func (b *Binding) Ref() *ior.Ref { return b.ref }

// Method returns the binding's transfer method, as BindConfig.Method
// chose it: the method of every invocation through InvokeAsync, and of
// every one through Invoke that moves at least the crossover in some
// direction (see Invoke).
func (b *Binding) Method() TransferMethod { return b.method }

// Close releases the binding's connections and receive port.
func (b *Binding) Close() {
	b.oc.Close()
	if b.recv != nil {
		b.recv.Close()
	}
}

// Invoke performs one blocking collective invocation. On a MultiPort
// binding, an invocation whose distributed arguments move fewer than
// 2^19 elements in each direction travels Centralized: every thread
// derives that choice from the same global lengths and modes, which the
// signature agreement has checked, so it costs no message. PARDIS's
// Figure 4: multi-port pays a fixed cost per invocation and wins only
// once the payload amortises it.
func (b *Binding) Invoke(ctx context.Context, spec *CallSpec) error {
	p, err := b.start(ctx, spec, true)
	if err != nil {
		b.stats.invocations.Add(1)
		b.stats.errors.Add(1)
		return err
	}
	return p.Wait(ctx)
}

// InvokeAsync begins a non-blocking invocation: multi-port argument
// transfer happens before it returns, but the reply is awaited by
// Pending.Wait (collective), letting the client overlap remote
// computation with its own — the futures model of the paper's
// diffusion_nb stub. It always uses the binding's Method: on a MultiPort
// binding the in-arguments are the caller's again when it returns,
// whatever their size (Invoke's switch to Centralized by payload size
// does not apply here). Under Centralized the arguments' local blocks
// stay lent to the communicator, which marshals from them, until Wait
// returns: the caller must not touch them in between.
func (b *Binding) InvokeAsync(ctx context.Context, spec *CallSpec) (*Pending, error) {
	return b.start(ctx, spec, false)
}

// crossoverElems is the distributed payload, in elements per direction,
// from which a multi-port invocation travels multi-port: the smallest
// power of two at which multi-port beat centralized transfer in the
// sweep of DESIGN.md §10 ("Method by payload size", EXPERIMENTS.md E19)
// for both 2 → 4 and 4 → 8 threads. A measured constant, not a knob.
const crossoverElems = 1 << 19

// methodFor returns the method an invocation of args travels by: the
// binding's, except that a blocking invocation on a MultiPort binding
// moving fewer than crossoverElems elements both in and out travels
// Centralized.
func (b *Binding) methodFor(args []DistArg, blocking bool) TransferMethod {
	if b.method != MultiPort || !blocking {
		return b.method
	}
	var in, out int
	for _, a := range args {
		if a.Mode != Out {
			in += a.Seq.Len()
		}
		if a.Mode != In {
			out += a.Seq.Len()
		}
	}
	if in < crossoverElems && out < crossoverElems {
		return Centralized
	}
	return MultiPort
}

// Pending is an in-flight invocation. Wait must be called
// collectively by every client thread exactly once.
type Pending struct {
	b        *Binding
	spec     *CallSpec
	outSinks []*outCollector
	span     *telemetry.Span // covers start through Wait; nil unsampled

	// lent is non-nil on every thread exactly when the invocation
	// travels Centralized (Binding.methodFor): it carries the
	// invocation's method, which a field of its own would carry at the
	// cost of the next allocation size class. On the communicator,
	// lent[i] holds every thread's local block of centralized argument
	// i: the invoke goroutine writes the request from them on each
	// attempt (spliced, not copied, in the host's order) and the reply
	// lands in them (LandReply) before the goroutine learns of it, so
	// the goroutine must have exited before Wait's status broadcast
	// hands the blocks back to their threads.
	lent [][][]float64
	// Communicator only. fut resolves when the invoke goroutine exits;
	// stop cancels it.
	fut  *future.Future[orb.Reply]
	stop context.CancelFunc
}

// centralized reports whether the invocation travels Centralized.
func (p *Pending) centralized() bool { return p.lent != nil }

// outCollector is one argument's multi-port out-transfer on this client
// thread: the sequence's local block registered as a one-sided window,
// into which the server threads' puts land straight off their delivering
// connections' read buffers.
type outCollector struct {
	win    *orb.Window
	cancel func()
}

// start validates the call collectively, ships in-arguments, issues
// the request, and returns a Pending for the reply. A per-invocation
// "spmd:<op>" span covers start through Wait, so the communicator's
// wire invocation (and the server's handler span beyond it) nest
// under this collective call.
func (b *Binding) start(ctx context.Context, spec *CallSpec, blocking bool) (*Pending, error) {
	op := ""
	if spec != nil {
		op = spec.Operation
	}
	var span *telemetry.Span
	if telemetry.TraceActive(ctx) {
		ctx, span = telemetry.StartSpan(ctx, "spmd:"+op,
			telemetry.Attr{Key: "rank", Value: strconv.Itoa(b.rank)})
	}
	p, err := b.startPhase(ctx, spec, blocking)
	if err != nil {
		span.Annotate("error", err.Error())
		span.End()
		return nil, err
	}
	p.span = span
	return p, nil
}

// startPhase is the uninstrumented body of start.
func (b *Binding) startPhase(ctx context.Context, spec *CallSpec, blocking bool) (*Pending, error) {
	if spec == nil || spec.Operation == "" {
		return nil, fmt.Errorf("%w: missing operation", ErrBadCall)
	}
	op, ok := b.desc.Ops[spec.Operation]
	if !ok {
		return nil, fmt.Errorf("%w: object has no operation %q", ErrBadCall, spec.Operation)
	}
	if len(spec.Args) != len(op.Args) {
		return nil, fmt.Errorf("%w: operation %s takes %d distributed args, got %d",
			ErrBadCall, spec.Operation, len(op.Args), len(spec.Args))
	}
	if spec.Oneway && spec.DecodeReply != nil {
		return nil, fmt.Errorf("%w: oneway call with DecodeReply", ErrBadCall)
	}
	for i, a := range spec.Args {
		if spec.Oneway && a.Mode != In {
			return nil, fmt.Errorf("%w: oneway call with %v argument", ErrBadCall, a.Mode)
		}
		if a.Mode != op.Args[i].Mode {
			return nil, fmt.Errorf("%w: arg %d is %v, interface declares %v",
				ErrBadCall, i, a.Mode, op.Args[i].Mode)
		}
		if a.Seq == nil {
			return nil, fmt.Errorf("%w: arg %d is nil", ErrBadCall, i)
		}
		if a.Seq.Layout().P() != b.size {
			return nil, fmt.Errorf("%w: arg %d distributed over %d threads, client has %d",
				ErrBadCall, i, a.Seq.Layout().P(), b.size)
		}
	}

	// Marshal scalars into an encapsulation and verify all threads
	// agree on them and on the operation (§2.1's identical-values
	// contract, checked rather than undefined).
	scalarEnc := cdr.NewEncoder(cdr.BigEndian)
	scalarEnc.PutOctet(byte(cdr.BigEndian))
	if spec.Scalars != nil {
		inner := cdr.NewEncoderAt(cdr.BigEndian, 1)
		spec.Scalars(inner)
		scalarEnc.PutOctets(inner.Bytes())
	}
	scalarBytes := scalarEnc.Bytes()
	sigSrc := cdr.NewEncoder(cdr.BigEndian)
	sigSrc.PutString(spec.Operation)
	sigSrc.PutOctetSeq(scalarBytes)
	for _, a := range spec.Args {
		sigSrc.PutOctet(byte(a.Mode))
		sigSrc.PutULong(uint32(a.Seq.Len()))
		for _, c := range a.Seq.Layout().Counts() {
			sigSrc.PutULong(uint32(c))
		}
	}
	sig := mp.HashBytes(sigSrc.Bytes())
	sigs, err := b.th.AllgatherU64(sig)
	if err != nil {
		return nil, err
	}
	for r, s := range sigs {
		if s != sigs[0] {
			return nil, fmt.Errorf("%w: thread %d invoked with different operation or scalars",
				ErrInconsistent, r)
		}
	}

	// The communicator allocates the invocation id. Only its request
	// header reads a centralized one; a multi-port one also keys the
	// windows on every thread, so the threads share it.
	method := b.methodFor(spec.Args, blocking)
	var inv uint64
	if b.rank == 0 {
		inv = b.oc.NewInvocationID()
	}
	if method == MultiPort {
		invs, err := b.th.AllgatherU64(inv)
		if err != nil {
			return nil, err
		}
		inv = invs[0]
	}
	p := &Pending{b: b, spec: spec}

	// Server-side layouts for planning.
	serverLayouts := make([]dist.Layout, len(spec.Args))
	for i := range spec.Args {
		sl, err := op.Args[i].Dist.Apply(spec.Args[i].Seq.Len(), b.desc.Threads)
		if err != nil {
			return nil, err
		}
		serverLayouts[i] = sl
	}

	// Register out-argument windows before anything is sent.
	if method == MultiPort {
		for i, a := range spec.Args {
			if a.Mode != Out && a.Mode != InOut {
				continue
			}
			plan, err := dist.Plan(serverLayouts[i], a.Seq.Layout())
			if err != nil {
				p.cancelSinks()
				return nil, err
			}
			expect := planElemsTo(plan, b.rank)
			if expect == 0 {
				continue
			}
			key, err := giop.BlockSinkKey(inv, uint32(i))
			if err != nil {
				p.cancelSinks()
				return nil, err
			}
			win, cancel, err := b.recv.RegisterWindow(key, a.Seq.LocalData(), int64(expect), nil)
			if err != nil {
				p.cancelSinks()
				return nil, err
			}
			p.outSinks = append(p.outSinks, &outCollector{win: win, cancel: cancel})
		}
	}

	// Centralized — "the distributed arguments are gathered and scattered
	// by the communicators of the client and server as part of the
	// marshaling or unmarshaling process" (§3.2): every thread lends the
	// communicator its local block of each argument, to marshal the
	// request from and unmarshal the reply into. The lend ends at Wait's
	// status broadcast.
	if method == Centralized {
		p.lent = make([][][]float64, len(spec.Args))
		for i, a := range spec.Args {
			blocks, err := b.th.LendDoubles(0, a.Seq.LocalData(), a.Seq.Layout().Counts())
			if err != nil {
				return nil, err
			}
			p.lent[i] = blocks
			if a.Mode != Out {
				b.stats.bytesOut.Add(uint64(a.Seq.LocalLen()) * 8)
			}
		}
	}

	// The communicator issues the request.
	if b.rank == 0 {
		w := &invocationWire{Method: method, Scalars: scalarBytes,
			Args: make([]*argWire, len(spec.Args))}
		for i, a := range spec.Args {
			aw := &argWire{
				Mode:         a.Mode,
				Length:       a.Seq.Len(),
				ClientCounts: a.Seq.Layout().Counts(),
			}
			if method == MultiPort && (a.Mode == Out || a.Mode == InOut) {
				aw.ClientEndpoints = b.allEndpoints
			}
			if method == Centralized && a.Mode != Out {
				aw.Blocks = p.lent[i]
			}
			w.Args[i] = aw
		}
		hdr := giop.RequestHeader{
			InvocationID:     inv,
			ResponseExpected: !spec.Oneway,
			ObjectKey:        b.ref.Key,
			Operation:        spec.Operation,
			ThreadRank:       0,
			ThreadCount:      int32(b.size),
		}
		fut, resolver := future.New[orb.Reply]()
		p.fut = fut
		ictx, stop := context.WithCancel(ctx)
		p.stop = stop
		// A reference invocation rather than a pinned communicator
		// endpoint: for a conventional (Threads==1) object it fails over
		// across every replica endpoint; for an SPMD object the failover
		// set is exactly the communicator port. It runs w.encode once per
		// attempt, which only reads the lent blocks, and writes each
		// attempt's request straight from them; an OK reply lands through
		// p on the connection's read goroutine.
		go func() {
			r, err := b.oc.InvokeRefLanding(ictx, b.ref, hdr, w.encode, p)
			if err != nil {
				resolver.Reject(err)
				return
			}
			switch {
			case r.Landed, spec.Oneway:
				resolver.Resolve(r) // a landed reply's Body is Wait's status envelope
				return
			case r.Header.Status == giop.ReplySystemException:
				if ex, derr := giop.DecodeSystemException(cdr.NewDecoder(r.Order, r.Body)); derr != nil {
					err = fmt.Errorf("%w: undecodable system exception", ErrRemote)
				} else {
					err = fmt.Errorf("%w: %v", ErrRemote, ex)
				}
			default:
				err = fmt.Errorf("%w: reply status %v", ErrRemote, r.Header.Status)
			}
			resolver.Reject(err)
		}()
	}

	// A centralized invocation has no send phase: the communicator's
	// invoke goroutine sends the request, and its failure travels in
	// Wait's status broadcast.
	if method == Centralized {
		return p, nil
	}

	// Multi-port data transfer: every client thread ships its blocks
	// directly to the owning server threads (§3.3).
	var sendErr error
	for i, a := range spec.Args {
		if a.Mode != In && a.Mode != InOut {
			continue
		}
		plan, err := dist.Plan(a.Seq.Layout(), serverLayouts[i])
		if err != nil {
			sendErr = err
			break
		}
		if err := b.sendBlocks(inv, uint32(i), plan, a.Seq); err != nil {
			sendErr = err
			break
		}
	}

	// Collective verdict on the send phase: either every thread
	// proceeds to Wait or none does, so a per-thread transport
	// failure cannot strand the others in a collective.
	if err := collectiveVerdict(b.th, sendErr, func(r int) error {
		return fmt.Errorf("%w: in-transfer failed on thread %d", ErrPartialFailure, r)
	}); err != nil {
		p.abandon()
		return nil, err
	}
	return p, nil
}

// sendBlocks ships this client thread's share of an in transfer,
// chunked and windowed, as one-sided puts into the windows the server's
// ranks registered (see sendPlanPuts).
func (b *Binding) sendBlocks(inv uint64, argIdx uint32, plan []dist.Transfer, seq *dseq.Doubles) error {
	n, err := sendPlanPuts(b.oc, inv, argIdx, b.rank, plan, seq.LocalData(),
		b.ref.ThreadEndpoint, ResolvedXferWindow(), xferChunkElems)
	b.stats.bytesOut.Add(n)
	return err
}

// abandon gives up an invocation whose start phase failed after the
// request was issued: the windows go, and the communicator stops and
// joins the invoke goroutine so nothing reads the lent blocks once
// start has returned.
func (p *Pending) abandon() {
	p.cancelSinks()
	if p.fut != nil {
		p.stop()
		<-p.fut.Done()
	}
}

// awaitReply returns the invoke goroutine's outcome on the
// communicator, and only once that goroutine has exited: when ctx ends
// first the invocation is cancelled and joined (a reply that made it
// regardless is left to the garbage collector). The caller owns a
// returned reply.
func (p *Pending) awaitReply(ctx context.Context) (orb.Reply, error) {
	r, err := p.fut.GetContext(ctx)
	p.stop()
	<-p.fut.Done()
	return r, err
}

// LandReply lands the reply to the invocation on the communicator's
// connection, as the ORB's read loop hands it over (orb.ReplyLander;
// nothing else calls it) — scattering "as part of the unmarshaling
// process" (§3.2) with no copy in between: each centralized
// out-argument's elements are read off the connection straight into
// the threads' lent blocks, once its length has been checked against
// the argument's. The scalar encapsulation lands in the status envelope
// Wait broadcasts, which it returns. A reply it rejects fails the
// invocation with ErrRemote.
func (p *Pending) LandReply(fr *giop.FrameReader, h giop.FrameHeader) ([]byte, error) {
	r := replyReader{fr: fr, order: h.Order, size: int(h.BodyLen)}
	env, err := p.land(&r)
	r.skip(r.size - r.pos) // trailing bytes, or the rest of a rejected reply
	switch {
	case r.err != nil && r.torn:
		return nil, fmt.Errorf("%w: %v", orb.ErrLandingTorn, r.err)
	case r.err != nil:
		return nil, fmt.Errorf("%w: %v", orb.ErrConnectionLost, r.err)
	case err != nil:
		return nil, fmt.Errorf("%w: %v", ErrRemote, err)
	}
	return env, nil
}

// land parses the reply body — ReplyHeader, scalar encapsulation,
// out-argument count, then each centralized out-argument as the one
// sequence<double> its blocks partition, as Object.dispatch wrote them —
// into the status envelope and the lent blocks. It stops at the first
// thing wrong, with an error or r.err set; trailing bytes are left.
func (p *Pending) land(r *replyReader) ([]byte, error) {
	if r.size < 8 {
		return nil, errors.New("reply header truncated")
	}
	r.skip(8) // the ReplyHeader, which the ORB decoded
	n, ok := r.ulong()
	if !ok || int64(n) > int64(r.size-r.pos) {
		return nil, errors.New("reply scalars truncated")
	}
	env := okEnvelope(int(n))
	if !r.read(env[len(env)-int(n):]) {
		return nil, nil
	}
	nOut, ok := r.ulong()
	if !ok {
		return nil, errors.New("reply out-argument count truncated")
	}
	if !p.centralized() {
		return env, nil
	}
	idx := uint32(0)
	for i, a := range p.spec.Args {
		if a.Mode != Out && a.Mode != InOut {
			continue
		}
		if idx >= nOut {
			return nil, fmt.Errorf("reply missing out argument %d", idx)
		}
		n, ok := r.ulong()
		if !ok {
			return nil, fmt.Errorf("reply out argument %d truncated", idx)
		}
		if int(n) != a.Seq.Len() {
			return nil, fmt.Errorf("reply out argument %d has %d of %d elements", idx, n, a.Seq.Len())
		}
		if n > 0 {
			pad := -r.pos & 7
			if int64(pad)+8*int64(n) > int64(r.size-r.pos) {
				return nil, fmt.Errorf("reply out argument %d truncated", idx)
			}
			if !r.skip(pad) {
				return nil, nil
			}
			r.torn = true
			for _, blk := range p.lent[i] {
				if err := r.fr.ReadWindowPayload(r.order, blk); err != nil {
					r.err = err
					return nil, nil
				}
				r.pos += 8 * len(blk)
			}
		}
		idx++
	}
	return env, nil
}

// okEnvelope returns the status envelope of a successful invocation,
// with its last n bytes left for the scalar encapsulation: TRUE, then
// the encapsulation as a big-endian sequence<octet> — the bytes
// PutBoolean(true) and PutOctetSeq write, which Wait decodes.
func okEnvelope(n int) []byte {
	env := make([]byte, 8+n)
	env[0] = 1
	binary.BigEndian.PutUint32(env[4:8], uint32(n))
	return env
}

// replyReader walks a reply body on the connection's read buffer as a
// CDR stream, never past its end: pos is the stream offset (the bytes
// consumed), size the body length. err is the first failure of the
// stream itself, after which nothing more is read; torn is set once
// element data started landing in the lent blocks.
type replyReader struct {
	fr        *giop.FrameReader
	order     cdr.ByteOrder
	pos, size int
	err       error
	torn      bool
}

// ulong reads an aligned ULong. It reports false when the body ends
// first or the stream failed.
func (r *replyReader) ulong() (uint32, bool) {
	pad := -r.pos & 3
	if r.err != nil || r.size-r.pos < pad+4 {
		return 0, false
	}
	b, err := r.fr.Peek(pad + 4)
	if err != nil {
		r.err = err
		return 0, false
	}
	v, _ := cdr.NewDecoder(r.order, b[pad:]).ULong() // four bytes always decode
	return v, r.skip(pad + 4)
}

// read fills b from the body, which must hold len(b) more bytes.
func (r *replyReader) read(b []byte) bool {
	if r.err == nil {
		r.err = r.fr.ReadPayloadBytes(b)
	}
	r.pos += len(b)
	return r.err == nil
}

// skip consumes n body bytes.
func (r *replyReader) skip(n int) bool {
	if r.err == nil {
		r.err = r.fr.DiscardPayload(n)
	}
	r.pos += n
	return r.err == nil
}

func (p *Pending) cancelSinks() {
	for _, c := range p.outSinks {
		if c.cancel != nil {
			c.cancel()
			c.cancel = nil
		}
	}
	p.outSinks = nil
}

// Wait completes the invocation collectively: the communicator
// receives the reply and broadcasts the completion status (§3.2),
// which carries the scalar results. A centralized invocation's
// out-data has landed in the threads' lent blocks before that
// broadcast, which ends the lend: it is the invocation's last
// collective. A multi-port one's threads then collect their out-blocks
// (puts land in the registered windows whether they arrive before or
// after the reply), agree on the collection, and synchronize on the
// exit barrier (§3.3).
//
// Status travels before block collection so that a failed invocation
// cannot strand threads waiting for out-blocks the server never sent.
func (p *Pending) Wait(ctx context.Context) (err error) {
	b := p.b
	defer func() {
		b.stats.invocations.Add(1)
		if err != nil {
			b.stats.errors.Add(1)
			p.span.Annotate("error", err.Error())
		}
		p.span.End()
	}()

	// A oneway invocation has nothing to collect or decode; the
	// threads only resynchronize, once the communicator has seen the
	// request leave (or fail): until then it marshals from lent blocks.
	if p.spec.Oneway {
		if b.rank == 0 {
			_, _ = p.awaitReply(ctx)
		}
		return b.th.Barrier()
	}
	defer p.cancelSinks()

	// The communicator awaits the reply, which has landed: the
	// out-arguments are in the lent blocks and the scalar results in the
	// status envelope. Every thread then learns the outcome (completion
	// status broadcast of §3.2) and the scalar results. Whatever went
	// wrong on the communicator alone travels in the status, so no thread
	// is left behind in a collective.
	var envBytes []byte
	if b.rank == 0 {
		r, err := p.awaitReply(ctx)
		envBytes = r.Body
		if err != nil {
			e := cdr.NewEncoder(cdr.BigEndian)
			e.PutBoolean(false)
			e.PutString(err.Error())
			envBytes = e.Bytes()
		}
		if _, err := b.th.Bcast(0, envBytes); err != nil {
			return err
		}
	} else {
		var err error
		envBytes, err = b.th.Bcast(0, nil)
		if err != nil {
			return err
		}
	}

	d := cdr.NewDecoder(cdr.BigEndian, envBytes)
	okFlag, err := d.Boolean()
	if err != nil {
		return err
	}
	if !okFlag {
		msg, _ := d.String()
		return fmt.Errorf("%w: %s", ErrRemote, msg)
	}
	// The scalar encapsulation carries its own byte-order flag.
	scalarEnc, err := d.Encapsulation()
	if err != nil {
		return err
	}

	if p.centralized() {
		for _, a := range p.spec.Args {
			if a.Mode == Out || a.Mode == InOut {
				b.stats.bytesIn.Add(uint64(a.Seq.LocalLen()) * 8)
			}
		}
		return p.decodeReply(scalarEnc)
	}

	// Collect multi-port out-blocks destined for this thread. The
	// server completed successfully, so every planned block was (or
	// is being) sent; puts landed (and still land) straight in the
	// sequences' local data through the per-argument windows — this
	// loop only awaits completion.
	var localErr error
	for _, col := range p.outSinks {
		if localErr == nil {
			localErr = waitWindow(ctx, col.win, nil, nil)
		}
		b.stats.bytesIn.Add(uint64(col.win.Bytes()))
		col.cancel()
		col.cancel = nil
	}

	// Collective verdict on the collection phase.
	if err := collectiveVerdict(b.th, localErr, func(r int) error {
		return fmt.Errorf("%w: out-transfer failed on thread %d", ErrPartialFailure, r)
	}); err != nil {
		return err
	}
	if err := p.decodeReply(scalarEnc); err != nil {
		return err
	}

	// Exit barrier (§3.3's texit_barrier).
	return b.th.Barrier()
}

// decodeReply delivers the scalar results on this thread.
func (p *Pending) decodeReply(d *cdr.Decoder) error {
	if p.spec.DecodeReply == nil {
		return nil
	}
	return p.spec.DecodeReply(d)
}
