// The four workloads and the fixtures that run them. Every workload is
// one process: client and server in-process, connected through the tcp
// transport on 127.0.0.1 (loopback, not a real link). Nothing of the
// system is pinned: orb and spmd run on their zero-value defaults, which
// is what core.Domain gives a user.
package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pardis/internal/agent"
	"pardis/internal/cdr"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/mp"
	"pardis/internal/orb"
	"pardis/internal/rts"
	"pardis/internal/transport"
)

const (
	// clientThreads is the closed loop's width: the independent callers
	// of invoke_named and the computing threads of the SPMD client. It is
	// the host's nproc, so the load generator never oversubscribes it.
	clientThreads = 2
	// serverThreads is the SPMD object's section size.
	serverThreads = 4

	listenEndpoint = "tcp:127.0.0.1:0"
	objectName     = "bench/object"
	objectKey      = "objects/" + objectName
	echoTypeID     = "IDL:pardis/bench/Echo:1.0"
	xferTypeID     = "IDL:pardis/bench/Xfer:1.0"
	echoDoubles    = 32
)

// Span names. spanOp is the per-operation span on the clock of rank 0
// (or of the caller); handler spans join it through the op id.
const (
	spanSetup      = "setup"
	spanJoin       = "core.JoinDomain"
	spanExport     = "core.Export"
	spanRegister   = "agent.register"
	spanResolve    = "core.Resolve"
	spanBind       = "core.SPMDBind"
	spanWarmup     = "warmup"
	spanOp         = "op"
	spanInvokeRank = "Binding.Invoke.rank"
	spanHandler    = "handler.rank"
)

type workload struct {
	name string
	why  string
	// invoke selects the plain-client echo; otherwise the op is an SPMD
	// inout transfer of elems doubles with the given method.
	invoke bool
	elems  int
	method core.TransferMethod
	// refBytes is the bytes each reference connection exchanges per
	// round (0: the wire bytes of one request, computed at start-up).
	refBytes      int
	refCollective bool
	// refNominal is the reference's rounds/s on the host this benchmark
	// was designed on (2 vCPU Xeon 2.1 GHz, median of runs). It is only a
	// fixed scale: setup_s is wall time x (measured reference rate ÷
	// refNominal), which keeps the unit seconds while the host's drift
	// cancels. Changing it rescales setup_s and nothing else.
	refNominal float64
	// warmupOps is the fixed count of operations that closes the set-up
	// phase: enough that pools, lazy stripes and connection dials are
	// done, fixed so that set-up time compares across commits.
	warmupOps int
}

var workloads = []workload{
	{
		name:       "invoke_named",
		why:        "32-double echo by name via agent resolver, 2 callers: per-message cost (cdr, giop, orb, telemetry, resolver cache); data plane idle",
		invoke:     true,
		elems:      echoDoubles,
		refNominal: 160000,
		warmupOps:  20000,
	},
	{
		name:          "xfer_multiport_large",
		why:           "8 MiB inout dsequence, n=2 to m=4, multi-port: bulk path (window puts, chunking, stripes, writev, bulk cdr); Figure 4 right side",
		elems:         1 << 20,
		method:        core.MultiPort,
		refBytes:      4 << 20,
		refCollective: true,
		refNominal:    210,
		warmupOps:     24,
	},
	{
		name:          "xfer_multiport_small",
		why:           "8 KiB inout dsequence, same binding: fixed per-invocation cost (header bcast, plan, windows, leases, barrier); Figure 4 left side",
		elems:         1 << 10,
		method:        core.MultiPort,
		refBytes:      4 << 10,
		refCollective: true,
		refNominal:    64000,
		warmupOps:     2000,
	},
	{
		name:          "xfer_centralized_large",
		why:           "8 MiB inout dsequence, centralized: gather, one encode, one connection, scatter; the paper's baseline, untouched by multi-port changes",
		elems:         1 << 20,
		method:        core.Centralized,
		refBytes:      4 << 20,
		refCollective: true,
		refNominal:    210,
		warmupOps:     8,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// harness is what every fixture shares: the seed, the transport
// registry (plain tcp, or the counting tcp of a traced run) and the
// tracer (nil when untraced).
type harness struct {
	seed     uint64
	reg      *transport.Registry
	tr       *tracer
	counting *countingTCP
	clients  atomic.Uint64 // numbers SPMD clients, so op ids never repeat
	// payloads caches the seeded sequence by length, generated once per
	// process: a set-up cycle copies its blocks out of it, so hashing a
	// million elements is not timed as part of binding.
	payloads map[int][]float64
}

// newHarness builds an untraced harness (plain transport.TCP), or with
// traced set a traced one (counting tcp, span recorder).
func newHarness(seed uint64, traced bool) *harness {
	h := &harness{seed: seed, reg: transport.NewRegistry(), payloads: make(map[int][]float64)}
	if traced {
		h.tr = newTracer()
		h.counting = &countingTCP{}
		h.reg.Register(h.counting)
	} else {
		h.reg.Register(transport.TCP{})
	}
	return h
}

// value is element g of the seeded payload: the program under test sees
// only these generated inputs, and verification recomputes them.
func (h *harness) value(g int) float64 {
	x := h.seed + uint64(g)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// payload returns the seeded sequence of n elements (shared: callers
// copy out of it). It is called from the set-up goroutine only.
func (h *harness) payload(n int) []float64 {
	p := h.payloads[n]
	if p == nil {
		p = make([]float64, n)
		for g := range p {
			p[g] = h.value(g)
		}
		h.payloads[n] = p
	}
	return p
}

// instance is one set-up system ready to run operations.
type instance interface {
	// slice runs n operations closed-loop and appends each one's latency
	// in ns (rank 0's clock for collective operations) to lat. failed
	// counts operations that returned an error or a wrong result.
	slice(n int, lat []int64) (out []int64, failed int, err error)
	// verifyAll runs one more operation and checks every element of its
	// result. It is called outside timed slices.
	verifyAll() error
	// close tears everything down and reports what was left behind.
	close() teardown
}

// teardown is the leak ledger of one instance.
type teardown struct {
	PendingBlocks  int    // buffered blocks/puts or sinks/windows left in any router
	ClientBytesOut uint64 // Binding.Stats summed over client ranks
	ClientBytesIn  uint64
	Invocations    uint64
}

// controlPlane is the domain's agent: a daemon that is already running
// when a process joins, so it is started outside the set-up timer.
type controlPlane struct {
	srv       *orb.Server
	table     *agent.Table
	stopSweep func()
	endpoint  string
}

func (h *harness) startControlPlane() (*controlPlane, error) {
	cp := &controlPlane{table: agent.NewTable(), srv: orb.NewServer(h.reg)}
	agent.Serve(cp.srv, cp.table)
	ep, err := cp.srv.Listen(listenEndpoint)
	if err != nil {
		cp.srv.Close()
		return nil, fmt.Errorf("agent listen: %w", err)
	}
	cp.endpoint = ep
	cp.stopSweep = cp.table.StartSweeper(agent.DefaultHeartbeatInterval / 2)
	return cp, nil
}

func (cp *controlPlane) close() {
	cp.stopSweep()
	cp.srv.Close()
}

// awaitRegistration blocks until the first heartbeat has put the replica
// into the agent's table, so that resolution answers from the agent rung
// and not from the naming fallback.
func (cp *controlPlane) awaitRegistration() error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, n := cp.table.Size(); n > 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("agent table never saw the replica's heartbeat")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// setUp builds one instance of w: join domain, export, register,
// resolve, bind, then warmupOps operations. The caller times it.
func (h *harness) setUp(w workload, cp *controlPlane, warmupOps int) (instance, error) {
	root := h.tr.begin()
	defer func() { h.tr.end(root, spanSetup, 0, 0) }()

	t := h.tr.begin()
	dom, err := core.JoinDomain(core.DomainConfig{Registry: h.reg, AgentEndpoint: cp.endpoint})
	h.tr.end(t, spanJoin, root.id, 0)
	if err != nil {
		return nil, err
	}
	var inst instance
	if w.invoke {
		inst, err = h.setUpInvoke(w, cp, dom, root.id)
	} else {
		inst, err = h.setUpXfer(w, cp, dom, root.id)
	}
	if err != nil {
		return nil, err // the fixture closed the domain with itself
	}
	// The warm-up is one span; its operations are not traced one by one.
	t = h.tr.begin()
	was := h.tr.pause()
	_, failed, err := inst.slice(warmupOps, nil)
	h.tr.enable(was)
	h.tr.end(t, spanWarmup, root.id, 0)
	if err == nil && failed > 0 {
		err = fmt.Errorf("%d of %d warm-up operations failed", failed, warmupOps)
	}
	if err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

// ---------------------------------------------------------------------
// invoke_named

type invokeInst struct {
	h         *harness
	dom       *core.Domain
	srv       *orb.Server
	hb        *orb.Client
	registrar *agent.Registrar
	oc        *orb.Client
	callers   []*caller
	budget    atomic.Int64
	done      chan struct{}
	wg        sync.WaitGroup
}

type caller struct {
	payload []float64
	reply   []float64
	start   chan struct{}
	lat     []int64
	failed  int
	err     error
}

func echoRequestHeader(id uint64) giop.RequestHeader {
	return giop.RequestHeader{
		InvocationID:     id,
		ResponseExpected: true,
		ObjectKey:        objectKey,
		Operation:        "echo",
		ThreadRank:       -1,
		ThreadCount:      1,
	}
}

// echoWireBytes is the size on the wire of one echo request: what the
// reference kernel exchanges per round for invoke_named.
func echoWireBytes() int {
	e := giop.AcquireEncoder(cdr.NativeOrder)
	defer e.Release()
	hdr := echoRequestHeader(1)
	hdr.Encode(e.Encoder)
	e.PutDoubleSeq(make([]float64, echoDoubles))
	return giop.HeaderLen + e.Len()
}

func (h *harness) setUpInvoke(w workload, cp *controlPlane, dom *core.Domain, root uint64) (instance, error) {
	ctx := context.Background()
	in := &invokeInst{h: h, dom: dom, done: make(chan struct{}, clientThreads)}

	t := h.tr.begin()
	in.srv = orb.NewServer(h.reg)
	in.srv.Handle(objectKey, func(inc *orb.Incoming) {
		t := h.tr.begin()
		v, err := inc.Decoder().DoubleSeq()
		if err != nil {
			_ = inc.ReplySystemException("MARSHAL", err.Error())
			return
		}
		_ = inc.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutDoubleSeq(v) })
		h.tr.end(t, spanHandler+"0", 0, inc.Header.InvocationID)
	})
	ep, err := in.srv.Listen(listenEndpoint)
	h.tr.end(t, spanExport, root, 0)
	if err != nil {
		in.closeServers()
		return nil, err
	}
	ref := &ior.Ref{TypeID: echoTypeID, Key: objectKey, Threads: 1, Endpoints: []string{ep}}

	// One heartbeat-registered replica, with the static naming binding
	// present as the resolver ladder's fallback rung.
	t = h.tr.begin()
	in.hb = orb.NewClient(h.reg)
	in.registrar = agent.NewRegistrar(agent.RegistrarConfig{Client: agent.NewClient(in.hb, cp.endpoint)})
	err = dom.Naming().BindReplica(ctx, objectName, ref)
	if err == nil {
		in.registrar.Add(objectName, ref)
		in.registrar.Start()
		err = cp.awaitRegistration()
	}
	h.tr.end(t, spanRegister, root, 0)
	if err != nil {
		in.closeServers()
		return nil, err
	}

	t = h.tr.begin()
	_, err = dom.Resolve(ctx, objectName)
	h.tr.end(t, spanResolve, root, 0)
	if err != nil {
		in.closeServers()
		return nil, err
	}

	in.oc = orb.NewClient(h.reg)
	for c := 0; c < clientThreads; c++ {
		cl := &caller{
			payload: make([]float64, w.elems),
			reply:   make([]float64, w.elems),
			start:   make(chan struct{}),
		}
		for i := range cl.payload {
			cl.payload[i] = h.value(c*w.elems + i)
		}
		in.callers = append(in.callers, cl)
		in.wg.Add(1)
		go in.run(cl)
	}
	return in, nil
}

func (in *invokeInst) run(cl *caller) {
	defer in.wg.Done()
	ctx := context.Background()
	res := in.dom.Resolver()
	body := func(e *cdr.Encoder) { e.PutDoubleSeq(cl.payload) }
	for range cl.start {
		for in.budget.Add(-1) >= 0 {
			id := in.oc.NewInvocationID()
			t := in.h.tr.begin()
			t0 := time.Now()
			err := in.echo(ctx, res, id, cl, body)
			cl.lat = append(cl.lat, int64(time.Since(t0)))
			in.h.tr.end(t, spanOp, 0, id)
			if err != nil {
				cl.failed++
				cl.err = err
			}
		}
		in.done <- struct{}{}
	}
}

func (in *invokeInst) echo(ctx context.Context, res orb.RefSource, id uint64, cl *caller, body func(*cdr.Encoder)) error {
	rh, order, reply, err := in.oc.InvokeNamed(ctx, res, objectName, echoRequestHeader(id), body)
	if err != nil {
		return err
	}
	if rh.Status != giop.ReplyOK {
		return fmt.Errorf("echo: reply status %v", rh.Status)
	}
	got, err := cdr.NewDecoder(order, reply).DoubleSeqInto(cl.reply)
	if err != nil {
		return err
	}
	if len(got) != len(cl.payload) {
		return fmt.Errorf("echo: %d doubles back, sent %d", len(got), len(cl.payload))
	}
	for i, v := range got {
		if v != cl.payload[i] {
			return fmt.Errorf("echo: element %d = %v, sent %v", i, v, cl.payload[i])
		}
	}
	return nil
}

func (in *invokeInst) slice(n int, lat []int64) ([]int64, int, error) {
	for _, cl := range in.callers {
		cl.lat = cl.lat[:0]
		cl.failed, cl.err = 0, nil
	}
	in.budget.Store(int64(n))
	for _, cl := range in.callers {
		cl.start <- struct{}{}
	}
	for range in.callers {
		<-in.done
	}
	failed := 0
	var err error
	for _, cl := range in.callers {
		lat = append(lat, cl.lat...)
		failed += cl.failed
		if cl.err != nil {
			err = cl.err
		}
	}
	return lat, failed, err
}

// verifyAll: every echo is already compared element by element.
func (in *invokeInst) verifyAll() error {
	_, failed, err := in.slice(clientThreads, nil)
	if failed > 0 {
		return fmt.Errorf("verify: %w", err)
	}
	return nil
}

func (in *invokeInst) closeServers() {
	if in.registrar != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = in.registrar.Stop(ctx)
		cancel()
	}
	if in.hb != nil {
		in.hb.Close()
	}
	in.srv.Close()
	in.dom.Close()
}

func (in *invokeInst) close() teardown {
	for _, cl := range in.callers {
		close(cl.start)
	}
	in.wg.Wait()
	td := teardown{}
	bs := in.oc.BlockStats()
	ss := in.srv.BlockStats()
	td.PendingBlocks = bs.Sinks + bs.Windows + bs.Pending + ss.Sinks + ss.Windows + ss.Pending
	in.oc.Close()
	in.closeServers()
	return td
}

// ---------------------------------------------------------------------
// xfer_*

// xferInst is the exported object (server side) plus one bound client.
type xferInst struct {
	*xferClient
	dom *core.Domain

	serverWorld *mp.World
	objsMu      sync.Mutex
	objs        []*core.Object
	serveWG     sync.WaitGroup
}

// bindFunc is how one client thread obtains its binding (collective).
type bindFunc func(ctx context.Context, th rts.Thread) (*core.Binding, error)

// xferClient is a parallel client of the object: clientThreads computing
// threads, each holding a binding and its block of the sequence.
type xferClient struct {
	h     *harness
	world *mp.World
	ranks []*xferRank
	done  chan struct{}
	wg    sync.WaitGroup
}

type rankCmd struct {
	n         int
	verifyAll bool
}

type xferRank struct {
	rank    int
	seq     *dseq.Doubles
	binding *core.Binding
	cmd     chan rankCmd
	// touched are the local indices the servant increments on every
	// operation (first and last element of each server thread's block)
	// with the value each is expected to hold; probes are three seeded
	// interior indices that must come back unchanged.
	want     []float64 // this rank's block as generated (read-only, shared)
	touched  []int
	expected []float64
	probes   []int
	ops      uint64
	lat      []int64
	failed   int
	err      error
}

func (h *harness) setUpXfer(w workload, cp *controlPlane, dom *core.Domain, root uint64) (instance, error) {
	ctx := context.Background()
	x := &xferInst{dom: dom}

	// Export: collective over the object's computing threads. The
	// handler touches the first and last element of its block only, so
	// an operation's time is transfer, not compute.
	t := h.tr.begin()
	x.serverWorld = mp.MustWorld(serverThreads)
	ready := make(chan error, serverThreads)
	for r := 0; r < serverThreads; r++ {
		x.serveWG.Add(1)
		go func(rank int) {
			defer x.serveWG.Done()
			name := fmt.Sprintf("%s%d", spanHandler, rank)
			obj, err := dom.Export(ctx, core.ExportConfig{
				Thread:    rts.NewMessagePassing(x.serverWorld.Rank(rank)),
				Name:      objectName,
				TypeID:    xferTypeID,
				MultiPort: true,
				Ops: map[string]*core.Op{
					"touch": {
						Spec: core.OpSpec{Args: []core.ArgSpec{{Mode: core.InOut, Dist: dist.Block()}}},
						Handler: func(call *core.Call) error {
							t := h.tr.begin()
							op, err := call.Scalars.ULongLong()
							if err != nil {
								return err
							}
							d := call.Args[0].LocalData()
							d[0]++
							d[len(d)-1]++
							h.tr.end(t, name, 0, op)
							return nil
						},
					},
				},
			})
			if err == nil {
				x.objsMu.Lock()
				x.objs = append(x.objs, obj)
				x.objsMu.Unlock()
			}
			ready <- err
			if err == nil {
				_ = obj.Serve(ctx)
			}
		}(r)
	}
	var err error
	for r := 0; r < serverThreads; r++ {
		if e := <-ready; e != nil {
			err = e
		}
	}
	h.tr.end(t, spanExport, root, 0)
	if err != nil {
		x.closeServers()
		return nil, fmt.Errorf("export: %w", err)
	}

	t = h.tr.begin()
	err = cp.awaitRegistration()
	h.tr.end(t, spanRegister, root, 0)
	if err != nil {
		x.closeServers()
		return nil, err
	}

	t = h.tr.begin()
	_, err = dom.Resolve(ctx, objectName)
	h.tr.end(t, spanResolve, root, 0)
	if err != nil {
		x.closeServers()
		return nil, err
	}

	// Bind: collective over the client's computing threads.
	t = h.tr.begin()
	x.xferClient, err = h.newXferClient(w, func(ctx context.Context, th rts.Thread) (*core.Binding, error) {
		return dom.SPMDBind(ctx, th, objectName, w.method)
	})
	h.tr.end(t, spanBind, root, 0)
	if err != nil {
		x.closeServers()
		return nil, fmt.Errorf("bind: %w", err)
	}
	return x, nil
}

// ref is the exported object's reference (for replays that bind to it
// directly).
func (x *xferInst) ref() *ior.Ref {
	x.objsMu.Lock()
	defer x.objsMu.Unlock()
	return x.objs[0].Ref()
}

func (x *xferInst) closeServers() {
	x.objsMu.Lock()
	for _, o := range x.objs {
		o.Close()
	}
	x.objsMu.Unlock()
	x.serveWG.Wait()
	x.serverWorld.Close()
	x.dom.Close()
}

func (x *xferInst) close() teardown {
	td := x.xferClient.close()
	x.objsMu.Lock()
	for _, o := range x.objs {
		bs := o.BlockStats()
		td.PendingBlocks += bs.Sinks + bs.Windows + bs.Pending
	}
	x.objsMu.Unlock()
	x.closeServers()
	return td
}

// newXferClient starts the client's computing threads and binds them.
func (h *harness) newXferClient(w workload, bind bindFunc) (*xferClient, error) {
	c := &xferClient{h: h, world: mp.MustWorld(clientThreads), done: make(chan struct{}, clientThreads)}
	serverLayout := dist.Block().MustApply(w.elems, serverThreads)
	bound := make(chan error, clientThreads)
	opBase := h.clients.Add(1) << 32
	for r := 0; r < clientThreads; r++ {
		xr, err := h.newXferRank(w, r, serverLayout)
		if err == nil {
			xr.ops = opBase
		}
		if err != nil {
			c.close()
			return nil, err
		}
		c.ranks = append(c.ranks, xr)
		c.wg.Add(1)
		go c.run(xr, bind, bound)
	}
	var err error
	for range c.ranks {
		if e := <-bound; e != nil {
			err = e
		}
	}
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (h *harness) newXferRank(w workload, rank int, serverLayout dist.Layout) (*xferRank, error) {
	seq, err := dseq.NewDoubles(w.elems, dist.Block(), clientThreads, rank)
	if err != nil {
		return nil, err
	}
	xr := &xferRank{rank: rank, seq: seq, cmd: make(chan rankCmd)}
	local := seq.LocalData()
	xr.want = h.payload(w.elems)[seq.Lo() : seq.Lo()+len(local)]
	copy(local, xr.want)
	isTouched := make(map[int]bool)
	for s := 0; s < serverThreads; s++ {
		for _, g := range []int{serverLayout.Lo(s), serverLayout.Hi(s) - 1} {
			if i, ok := seq.LocalIndex(g); ok && !isTouched[i] {
				isTouched[i] = true
				xr.touched = append(xr.touched, i)
				xr.expected = append(xr.expected, local[i])
			}
		}
	}
	// Three seeded interior indices per rank.
	for k := 0; len(xr.probes) < 3; k++ {
		i := int(h.value(1<<40+rank*64+k) * float64(len(local)))
		if i < len(local) && !isTouched[i] {
			xr.probes = append(xr.probes, i)
		}
	}
	return xr, nil
}

func (c *xferClient) run(xr *xferRank, bind bindFunc, bound chan<- error) {
	defer c.wg.Done()
	ctx := context.Background()
	b, err := bind(ctx, rts.NewMessagePassing(c.world.Rank(xr.rank)))
	bound <- err
	if err != nil {
		// Keep answering commands so close() can proceed.
		for range xr.cmd {
			c.done <- struct{}{}
		}
		return
	}
	xr.binding = b
	name := fmt.Sprintf("%s%d", spanInvokeRank, xr.rank)
	spec := &core.CallSpec{
		Operation: "touch",
		Scalars:   func(e *cdr.Encoder) { e.PutULongLong(xr.ops) },
		Args:      []core.DistArg{{Mode: core.InOut, Seq: xr.seq}},
	}
	for cmd := range xr.cmd {
		for i := 0; i < cmd.n; i++ {
			xr.ops++
			// Rank 0's span is the operation's; every rank's own
			// Invoke joins it through the shared op id.
			opSpan := spanRef{}
			if xr.rank == 0 {
				opSpan = c.h.tr.begin()
			}
			t := c.h.tr.begin()
			t0 := time.Now()
			err := b.Invoke(ctx, spec)
			d := time.Since(t0)
			c.h.tr.end(t, name, 0, xr.ops)
			c.h.tr.end(opSpan, spanOp, 0, xr.ops)
			if xr.rank == 0 {
				xr.lat = append(xr.lat, int64(d))
			}
			if err == nil {
				err = xr.check(cmd.verifyAll)
			}
			if err != nil {
				xr.failed++
				xr.err = err
			}
		}
		c.done <- struct{}{}
	}
}

// check verifies this rank's share of one result: the servant's
// increments and the three probes on every operation, every element
// when all is set.
func (xr *xferRank) check(all bool) error {
	local := xr.seq.LocalData()
	for k, i := range xr.touched {
		xr.expected[k]++
		if local[i] != xr.expected[k] {
			return fmt.Errorf("rank %d op %d: touched element %d = %v, want %v", xr.rank, xr.ops, i, local[i], xr.expected[k])
		}
	}
	for _, i := range xr.probes {
		if local[i] != xr.want[i] {
			return fmt.Errorf("rank %d op %d: element %d = %v, want %v", xr.rank, xr.ops, i, local[i], xr.want[i])
		}
	}
	if !all {
		return nil
	}
	next := 0
	for i, v := range local {
		if next < len(xr.touched) && xr.touched[next] == i {
			next++ // checked above; touched is ascending
			continue
		}
		if v != xr.want[i] {
			return fmt.Errorf("rank %d op %d: element %d = %v, want %v", xr.rank, xr.ops, i, v, xr.want[i])
		}
	}
	return nil
}

func (c *xferClient) command(cmd rankCmd, lat []int64) ([]int64, int, error) {
	for _, xr := range c.ranks {
		xr.lat = xr.lat[:0]
		xr.failed, xr.err = 0, nil
	}
	for _, xr := range c.ranks {
		xr.cmd <- cmd
	}
	for range c.ranks {
		<-c.done
	}
	// An operation failed if any rank saw it fail.
	failed := 0
	var err error
	for _, xr := range c.ranks {
		if xr.failed > failed {
			failed = xr.failed
		}
		if xr.err != nil {
			err = xr.err
		}
	}
	return append(lat, c.ranks[0].lat...), failed, err
}

func (c *xferClient) slice(n int, lat []int64) ([]int64, int, error) {
	return c.command(rankCmd{n: n}, lat)
}

func (c *xferClient) verifyAll() error {
	_, failed, err := c.command(rankCmd{n: 1, verifyAll: true}, nil)
	if failed > 0 {
		return fmt.Errorf("verify: %w", err)
	}
	return nil
}

// close releases the bindings and reports what the client saw.
func (c *xferClient) close() teardown {
	for _, xr := range c.ranks {
		close(xr.cmd)
	}
	c.wg.Wait()
	td := teardown{}
	for _, xr := range c.ranks {
		if xr.binding == nil {
			continue
		}
		st := xr.binding.Stats()
		td.ClientBytesOut += st.BytesOut
		td.ClientBytesIn += st.BytesIn
		if xr.rank == 0 {
			td.Invocations = st.Invocations
		}
		bs := xr.binding.BlockStats()
		td.PendingBlocks += bs.Sinks + bs.Windows + bs.Pending
		xr.binding.Close()
	}
	c.world.Close()
	return td
}
