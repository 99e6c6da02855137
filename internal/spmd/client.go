package spmd

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

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
	// Method selects centralized or multi-port argument transfer.
	Method TransferMethod
	// ListenEndpoint is the template each client thread listens on
	// for multi-port out-argument blocks ("inproc:*",
	// "tcp:127.0.0.1:0"). Unused under Centralized.
	ListenEndpoint string
	// Retry is the invocation retry policy for this binding's ORB
	// client. The zero value enables failover-grade defaults: at
	// least one attempt per replica endpoint of the bound reference.
	Retry orb.RetryPolicy
	// Deadline is the default per-invocation deadline applied when a
	// call's context has none (0 = no default deadline).
	Deadline time.Duration
	// XferWindow bounds how many block sends this thread keeps in
	// flight per transfer (0 = spmd.DefaultXferWindow, negative =
	// serial).
	XferWindow int
	// XferChunkBytes is the payload size above which a block is split
	// into pipelined chunks (0 = spmd.DefaultXferChunkBytes, negative
	// = chunking disabled).
	XferChunkBytes int
	// AutoTune enables the self-tuning transport (0 =
	// spmd.DefaultAutoTune, negative = off): the binding probes the
	// path RTT at bind time, feeds every transfer's bytes/seconds into
	// the process-wide tuner (spmd.AutoTuner), and re-resolves its
	// chunk, window, and stripe knobs from the tuner's recommendation
	// before each transfer. Until the path has enough samples — and
	// whenever tuning is off — the statically resolved XferWindow /
	// XferChunkBytes values and the ORB's static stripe width apply
	// unchanged. The path is keyed by the reference's first endpoint:
	// replicas of one object are assumed co-located enough to share a
	// path model.
	AutoTune int
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

	// window/chunkElems are the resolved data-plane knobs (see
	// BindConfig.XferWindow / XferChunkBytes).
	window     int
	chunkElems int
	// autoTune/pathKey: when tuning is on, sendBlocks re-resolves
	// (window, chunkElems) from AutoTuner's recommendation for pathKey
	// before each transfer and records the observed rate after it.
	autoTune bool
	pathKey  string

	// rankLag is this rank's interned exit-barrier histogram (rank is
	// fixed for the binding's lifetime, so resolve the labels once).
	rankLag *telemetry.Histogram
	// xferIn/xferOut time this rank's transfer phases (in-argument
	// fan-out / out-argument collection).
	xferIn, xferOut *telemetry.Histogram
}

// Interned once at package load: the registry's per-call label-key
// building is too hot for the collective invocation path.
var (
	bindSeconds    = telemetry.Default.Histogram("pardis_spmd_bind_seconds")
	bindErrors     = telemetry.Default.Counter("pardis_spmd_bind_errors_total")
	phaseStartHist = telemetry.Default.Histogram("pardis_spmd_phase_seconds", "phase", "start")
	phaseWaitHist  = telemetry.Default.Histogram("pardis_spmd_phase_seconds", "phase", "wait")
)

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
// The collective bind is timed into pardis_spmd_bind_seconds and runs
// under an "spmd:bind" span, so the describe invocation the
// communicator issues appears nested in the trace.
func Bind(ctx context.Context, cfg BindConfig, ref *ior.Ref) (*Binding, error) {
	start := time.Now()
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
	bindSeconds.ObserveDuration(time.Since(start))
	if err != nil {
		bindErrors.Inc()
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
	// The binding's ORB client defaults to a failover-grade retry
	// policy: enough attempts to try every replica endpoint of the
	// reference at least once (the "retry the next endpoint when one
	// thread's dial fails" behavior of a fault-tolerant bind).
	pol := cfg.Retry
	if pol.MaxAttempts == 0 {
		pol = orb.DefaultRetryPolicy()
		if n := len(ref.FailoverEndpoints()); n > pol.MaxAttempts {
			pol.MaxAttempts = n
		}
	}
	clientOpts := []orb.ClientOption{orb.WithRetryPolicy(pol)}
	if cfg.Deadline > 0 {
		clientOpts = append(clientOpts, orb.WithDefaultDeadline(cfg.Deadline))
	}
	autoTune := resolveAutoTune(cfg.AutoTune)
	pathKey := ""
	if autoTune && len(ref.Endpoints) > 0 {
		pathKey = ref.Endpoints[0]
	}
	autoTune = autoTune && pathKey != ""
	if autoTune {
		// Tuner-capped lazy stripe growth: the ORB client may open
		// connections past the static width, up to the tuner's stripe
		// recommendation, still one at a time and only under observed
		// queueing.
		clientOpts = append(clientOpts, orb.WithStripeCap(func(string) int {
			if rec, ok := AutoTuner.Recommend(pathKey); ok {
				return rec.Stripes
			}
			return 0
		}))
	}
	b := &Binding{
		cfg:    cfg,
		th:     cfg.Thread,
		rank:   cfg.Thread.Rank(),
		size:   cfg.Thread.Size(),
		ref:    ref,
		oc:     orb.NewClient(reg, clientOpts...),
		method: cfg.Method,
	}
	b.window = resolveWindow(cfg.XferWindow)
	b.chunkElems = resolveChunkElems(cfg.XferChunkBytes)
	b.autoTune = autoTune
	b.pathKey = pathKey
	b.rankLag = telemetry.Default.Histogram("pardis_spmd_rank_lag_seconds",
		"side", "client", "rank", strconv.Itoa(b.rank))
	b.xferIn = telemetry.Default.Histogram("pardis_spmd_transfer_seconds",
		"side", "client", "dir", "in", "rank", strconv.Itoa(b.rank))
	b.xferOut = telemetry.Default.Histogram("pardis_spmd_transfer_seconds",
		"side", "client", "dir", "out", "rank", strconv.Itoa(b.rank))
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
		if err := collectiveVerdict(b.th, listenErr, "open its receive port"); err != nil {
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
		describeT := time.Now()
		rh, order, body, err := b.oc.InvokeRef(ctx, ref, hdr, nil)
		// The describe round trip doubles as the bind-time RTT probe: it
		// is the cheapest request/reply pair the binding ever issues, and
		// it happens exactly once, before any transfer needs the model.
		if b.autoTune && err == nil {
			AutoTuner.Probe(b.pathKey, time.Since(describeT))
		}
		if err == nil && rh.Status != giop.ReplyOK {
			err = fmt.Errorf("%w: describe returned %v", ErrRemote, rh.Status)
		}
		var payload []byte
		if err != nil {
			payload = append([]byte{0}, err.Error()...)
		} else {
			// The reply travels on as the server wrote it, behind its
			// byte-order octet: every thread decodes in that order.
			payload = append([]byte{1, byte(order)}, body...)
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

// BindPlain establishes a non-collective binding for a conventional
// (single-threaded) client — the stub-level _bind. It is implemented
// as a one-thread SPMD section, which is exactly what the paper's
// semantics reduce to for n = 1.
func BindPlain(ctx context.Context, reg *transport.Registry, method TransferMethod, listenEndpoint string, ref *ior.Ref) (*Binding, *mp.World, error) {
	w := mp.MustWorld(1)
	b, err := Bind(ctx, BindConfig{
		Thread:         rts.NewMessagePassing(w.Rank(0)),
		Registry:       reg,
		Method:         method,
		ListenEndpoint: listenEndpoint,
	}, ref)
	if err != nil {
		w.Close()
		return nil, nil, err
	}
	return b, w, nil
}

// Ref returns the bound object's reference.
func (b *Binding) Ref() *ior.Ref { return b.ref }

// Describe returns the bound object's operation table.
func (b *Binding) Describe() map[string]*OpSpec { return b.desc.Ops }

// Method returns the binding's transfer method.
func (b *Binding) Method() TransferMethod { return b.method }

// Close releases the binding's connections and receive port.
func (b *Binding) Close() {
	b.oc.Close()
	if b.recv != nil {
		b.recv.Close()
	}
}

// Renew pings the object's communicator to keep this binding's
// server-side lease alive while the binding is idle (invocations renew
// it implicitly). Only the communicator thread sends; other threads
// return nil immediately, so Renew need not be collective. Worker-rank
// leases are re-established by the put traffic of the next
// invocation, so the communicator ping is all an idle binding needs.
func (b *Binding) Renew(ctx context.Context) error {
	if b.rank != 0 {
		return nil
	}
	hdr := giop.RequestHeader{
		InvocationID:     b.oc.NewInvocationID(),
		ResponseExpected: true,
		ObjectKey:        b.ref.Key,
		Operation:        RenewOperation,
		ThreadRank:       0,
		ThreadCount:      int32(b.size),
	}
	rh, _, _, err := b.oc.InvokeRef(ctx, b.ref, hdr, nil)
	if err != nil {
		return err
	}
	if rh.Status != giop.ReplyOK {
		return fmt.Errorf("%w: renew returned %v", ErrRemote, rh.Status)
	}
	return nil
}

// Invoke performs one blocking collective invocation.
func (b *Binding) Invoke(ctx context.Context, spec *CallSpec) error {
	p, err := b.start(ctx, spec)
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
// diffusion_nb stub. Under Centralized the arguments' local blocks stay
// lent to the communicator, which marshals from them, until Wait
// returns: the caller must not touch them in between.
func (b *Binding) InvokeAsync(ctx context.Context, spec *CallSpec) (*Pending, error) {
	return b.start(ctx, spec)
}

// Pending is an in-flight invocation. Wait must be called
// collectively by every client thread exactly once.
type Pending struct {
	b        *Binding
	spec     *CallSpec
	inv      uint64
	outSinks []*outCollector
	span     *telemetry.Span // covers start through Wait; nil unsampled

	// Communicator only. fut resolves when the invoke goroutine exits;
	// stop cancels it. lent[i] holds every thread's local block of
	// centralized argument i: the goroutine marshals the request from
	// them on each attempt and Wait unmarshals the reply into them, so
	// the goroutine must have exited before Wait's status broadcast hands
	// the blocks back to their threads.
	fut  *future.Future[replyEnvelope]
	stop context.CancelFunc
	lent [][][]float64
}

type replyEnvelope struct {
	order cdr.ByteOrder
	body  []byte
}

// outCollector is one argument's multi-port out-transfer on this client
// thread: the sequence's local block registered as a one-sided window,
// into which the server threads' puts land straight off their delivering
// connections' read buffers.
type outCollector struct {
	win    *orb.Window
	cancel func()
}

// start validates the call collectively, ships in-arguments, issues
// the request, and returns a Pending for the reply. The start phase
// (validation, argument fan-out, request issue) is timed into
// pardis_spmd_phase_seconds{phase="start"}; a per-invocation
// "spmd:<op>" span covers start through Wait, so the communicator's
// wire invocation (and the server's handler span beyond it) nest
// under this collective call.
func (b *Binding) start(ctx context.Context, spec *CallSpec) (*Pending, error) {
	op := ""
	if spec != nil {
		op = spec.Operation
	}
	phaseStart := time.Now()
	var span *telemetry.Span
	if telemetry.TraceActive(ctx) {
		ctx, span = telemetry.StartSpan(ctx, "spmd:"+op,
			telemetry.Attr{Key: "rank", Value: strconv.Itoa(b.rank)})
	}
	p, err := b.startPhase(ctx, spec)
	phaseStartHist.ObserveDuration(time.Since(phaseStart))
	if err != nil {
		span.Annotate("error", err.Error())
		span.End()
		return nil, err
	}
	p.span = span
	return p, nil
}

// startPhase is the uninstrumented body of start.
func (b *Binding) startPhase(ctx context.Context, spec *CallSpec) (*Pending, error) {
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

	// The communicator allocates the invocation id and shares it.
	var inv uint64
	if b.rank == 0 {
		inv = b.oc.NewInvocationID()
	}
	invs, err := b.th.AllgatherU64(inv)
	if err != nil {
		return nil, err
	}
	inv = invs[0]

	p := &Pending{b: b, spec: spec, inv: inv}

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
	if b.method == MultiPort {
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
	if b.method == Centralized {
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
		w := &invocationWire{Method: b.method, Scalars: scalarBytes,
			Args: make([]*argWire, len(spec.Args))}
		for i, a := range spec.Args {
			aw := &argWire{
				Mode:         a.Mode,
				Length:       a.Seq.Len(),
				ClientCounts: a.Seq.Layout().Counts(),
			}
			if b.method == MultiPort && (a.Mode == Out || a.Mode == InOut) {
				aw.ClientEndpoints = b.allEndpoints
			}
			if b.method == Centralized && a.Mode != Out {
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
		fut, resolver := future.New[replyEnvelope]()
		p.fut = fut
		ictx, stop := context.WithCancel(ctx)
		p.stop = stop
		// InvokeRef rather than a pinned communicator endpoint: for a
		// conventional (Threads==1) object it fails over across every
		// replica endpoint; for an SPMD object the failover set is
		// exactly the communicator port. It runs w.encode once per
		// attempt, which only reads the lent blocks.
		go func() {
			rh, order, body, err := b.oc.InvokeRef(ictx, b.ref, hdr, w.encode)
			if err != nil {
				resolver.Reject(err)
				return
			}
			switch rh.Status {
			case giop.ReplyOK:
				resolver.Resolve(replyEnvelope{order: order, body: body})
			case giop.ReplySystemException:
				ex, derr := giop.DecodeSystemException(cdr.NewDecoder(order, body))
				if derr != nil {
					resolver.Reject(fmt.Errorf("%w: undecodable system exception", ErrRemote))
					return
				}
				resolver.Reject(fmt.Errorf("%w: %v", ErrRemote, ex))
			default:
				resolver.Reject(fmt.Errorf("%w: reply status %v", ErrRemote, rh.Status))
			}
		}()
	}

	// Multi-port data transfer: every client thread ships its blocks
	// directly to the owning server threads (§3.3).
	var sendErr error
	if b.method == MultiPort {
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
	}

	// Collective verdict on the send phase: either every thread
	// proceeds to Wait or none does, so a per-thread transport
	// failure cannot strand the others in a collective.
	flag := uint64(0)
	if sendErr != nil {
		flag = 1
	}
	flags, err := b.th.AllgatherU64(flag)
	if err != nil {
		p.abandon()
		return nil, err
	}
	for r, f := range flags {
		if f != 0 {
			p.abandon()
			if sendErr != nil {
				return nil, sendErr
			}
			return nil, fmt.Errorf("%w: in-transfer failed on thread %d", ErrPartialFailure, r)
		}
	}
	return p, nil
}

// sendBlocks ships this client thread's share of an in transfer,
// chunked and windowed, as one-sided puts into the windows the server's
// ranks registered (see sendPlanPuts).
func (b *Binding) sendBlocks(inv uint64, argIdx uint32, plan []dist.Transfer, seq *dseq.Doubles) error {
	window, chunkElems := b.window, b.chunkElems
	if b.autoTune {
		window, chunkElems = tunedKnobs(b.pathKey, window, chunkElems)
	}
	t := time.Now()
	n, err := sendPlanPuts(b.oc, inv, argIdx, b.rank, plan, seq.LocalData(),
		b.ref.ThreadEndpoint, window, chunkElems)
	elapsed := time.Since(t)
	b.stats.bytesOut.Add(n)
	b.xferIn.ObserveDuration(elapsed)
	if b.autoTune && err == nil {
		AutoTuner.Record(b.pathKey, n, elapsed)
	}
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
// first the invocation is cancelled and joined.
func (p *Pending) awaitReply(ctx context.Context) (replyEnvelope, error) {
	env, err := p.fut.GetContext(ctx)
	p.stop()
	<-p.fut.Done()
	return env, err
}

// unmarshalReply decodes a reply body on the communicator — the scalar
// encapsulation, then the centralized out-arguments, as Object.dispatch
// wrote them right after the 8-octet ReplyHeader — scattering as part
// of unmarshaling: the out-arguments decode straight into the threads'
// lent blocks. It returns the scalar encapsulation for the status
// broadcast.
func (p *Pending) unmarshalReply(env replyEnvelope) ([]byte, error) {
	rd := cdr.NewDecoderAt(env.order, env.body, 8)
	scalars, err := rd.OctetSeq()
	if err != nil {
		return nil, err
	}
	nOut, err := rd.ULong()
	if err != nil {
		return nil, err
	}
	if p.b.method != Centralized {
		return scalars, nil
	}
	idx := uint32(0)
	for i, a := range p.spec.Args {
		if a.Mode != Out && a.Mode != InOut {
			continue
		}
		if idx >= nOut {
			return nil, fmt.Errorf("reply missing out argument %d", idx)
		}
		idx++
		raw, err := rd.DoubleSeqRaw()
		if err != nil {
			return nil, err
		}
		if len(raw) != a.Seq.Len()*8 {
			return nil, fmt.Errorf("reply out argument %d has %d of %d elements",
				idx-1, len(raw)/8, a.Seq.Len())
		}
		decodeDoubleBlocks(p.lent[i], raw, env.order)
	}
	return scalars, nil
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
// receives the reply and broadcasts the completion status (§3.2);
// on success every thread collects its multi-port out-blocks (puts
// land in the registered windows whether they arrive before or after
// the reply), the scalar results and centralized out-data are
// distributed, and the threads synchronize on the exit barrier (§3.3).
//
// Status travels before block collection so that a failed invocation
// cannot strand threads waiting for out-blocks the server never sent.
func (p *Pending) Wait(ctx context.Context) (err error) {
	b := p.b
	waitStart := time.Now()
	defer func() {
		b.stats.invocations.Add(1)
		if err != nil {
			b.stats.errors.Add(1)
			p.span.Annotate("error", err.Error())
		}
		p.span.End()
		phaseWaitHist.ObserveDuration(time.Since(waitStart))
	}()

	// A oneway invocation has nothing to collect or decode; the
	// threads only resynchronize, once the communicator has seen the
	// request leave (or fail): until then it marshals from lent blocks.
	if p.spec.Oneway {
		if b.rank == 0 {
			_, _ = p.awaitReply(ctx)
		}
		return b.exitBarrier()
	}
	defer p.cancelSinks()

	// The communicator awaits the reply and unmarshals it; every thread
	// then learns the outcome (completion status broadcast of §3.2) and
	// the scalar results. Whatever went wrong on the communicator alone
	// travels in the status, so no thread is left behind in a collective.
	var envBytes []byte
	if b.rank == 0 {
		var scalars []byte
		env, err := p.awaitReply(ctx)
		if err == nil {
			scalars, err = p.unmarshalReply(env)
		}
		e := cdr.NewEncoder(cdr.BigEndian)
		e.PutBoolean(err == nil)
		if err != nil {
			e.PutString(err.Error())
		} else {
			e.PutOctetSeq(scalars)
		}
		envBytes = e.Bytes()
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

	// Collect multi-port out-blocks destined for this thread. The
	// server completed successfully, so every planned block was (or
	// is being) sent; puts landed (and still land) straight in the
	// sequences' local data through the per-argument windows — this
	// loop only awaits completion.
	var localErr error
	if len(p.outSinks) > 0 {
		t := time.Now()
		for _, col := range p.outSinks {
			if localErr == nil {
				localErr = waitWindow(ctx, col.win, nil, nil)
			}
			b.stats.bytesIn.Add(uint64(col.win.Bytes()))
			col.cancel()
			col.cancel = nil
		}
		b.xferOut.ObserveDuration(time.Since(t))
	}

	// Collective verdict on the collection phase.
	flag := uint64(0)
	if localErr != nil {
		flag = 1
	}
	flags, aerr := b.th.AllgatherU64(flag)
	if aerr != nil {
		return aerr
	}
	for r, f := range flags {
		if f != 0 {
			if localErr != nil {
				return localErr
			}
			return fmt.Errorf("%w: out-transfer failed on thread %d", ErrPartialFailure, r)
		}
	}

	if b.method == Centralized {
		for _, a := range p.spec.Args {
			if a.Mode == Out || a.Mode == InOut {
				b.stats.bytesIn.Add(uint64(a.Seq.LocalLen()) * 8)
			}
		}
	}

	// Deliver scalar results on every thread.
	if p.spec.DecodeReply != nil {
		if err := p.spec.DecodeReply(scalarEnc); err != nil {
			return err
		}
	}

	// Exit barrier (§3.3's texit_barrier).
	return b.exitBarrier()
}

// exitBarrier runs the collective exit barrier, recording how long
// this rank waited in it. A rank's wait time is its lag ahead of the
// slowest rank: near-zero means this rank was the straggler, a large
// value means it sat idle — the skew operators look at when a
// collective invocation underperforms.
func (b *Binding) exitBarrier() error {
	t := time.Now()
	err := b.th.Barrier()
	b.rankLag.ObserveDuration(time.Since(t))
	return err
}
