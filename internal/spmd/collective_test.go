package spmd

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/mp"
	"pardis/internal/rts"
	"pardis/internal/telemetry"
)

// countingThread counts the RTS calls a thread has completed, by kind.
type countingThread struct {
	rts.Thread
	mu sync.Mutex
	n  map[string]int
}

func newCountingThread(th rts.Thread) *countingThread {
	return &countingThread{Thread: th, n: map[string]int{}}
}

func (c *countingThread) done(kind string) {
	c.mu.Lock()
	c.n[kind]++
	c.mu.Unlock()
}

// counts returns the counts so far; take also resets them.
func (c *countingThread) counts() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.n)
}

func (c *countingThread) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = map[string]int{}
	return n
}

func (c *countingThread) Barrier() error {
	defer c.done("barrier")
	return c.Thread.Barrier()
}

func (c *countingThread) Bcast(root int, data []byte) ([]byte, error) {
	defer c.done("bcast")
	return c.Thread.Bcast(root, data)
}

func (c *countingThread) BcastDoubles(root int, data []byte, table [][][]float64) ([]byte, [][]float64, error) {
	defer c.done("bcastv")
	return c.Thread.BcastDoubles(root, data, table)
}

func (c *countingThread) AgreeLendDoubles(root int, word, val uint64, local []float64, counts []int) ([][]float64, uint64, error) {
	defer c.done("agreelend")
	return c.Thread.AgreeLendDoubles(root, word, val, local, counts)
}

func (c *countingThread) LendDoubles(root int, local []float64, counts []int) ([][]float64, error) {
	defer c.done("lend")
	return c.Thread.LendDoubles(root, local, counts)
}

func (c *countingThread) ShareDoubles(local []float64) ([][]float64, error) {
	defer c.done("share")
	return c.Thread.ShareDoubles(local)
}

func (c *countingThread) AllgatherU64(v uint64) ([]uint64, error) {
	defer c.done("allgather")
	return c.Thread.AllgatherU64(v)
}

func (c *countingThread) SendBytes(dst, tag int, data []byte) error {
	defer c.done("send")
	return c.Thread.SendBytes(dst, tag, data)
}

func (c *countingThread) RecvBytes(src, tag int) ([]byte, error) {
	defer c.done("recv")
	return c.Thread.RecvBytes(src, tag)
}

// sum totals a count map.
func sum(n map[string]int) int {
	t := 0
	for _, v := range n {
		t += v
	}
	return t
}

// collectiveOps is diffusionOps plus "sink", which takes one In
// argument, for oneway invocations.
func collectiveOps(th rts.Thread) map[string]*Op {
	ops := diffusionOps(th)
	ops["sink"] = &Op{
		Spec:    OpSpec{Args: []ArgSpec{{Mode: In, Dist: dist.Block()}}},
		Handler: func(*Call) error { return nil },
	}
	return ops
}

// TestCollectivesPerInvocation pins DESIGN.md §10's collective table:
// the RTS calls every thread of each side completes for one invocation
// with one distributed argument (inout, or in for oneway), per method.
// The client's are counted around the invocation; the server's from
// after Export until its serve loops have returned, less the closing
// control broadcast. A collective added back to either side fails it.
func TestCollectivesPerInvocation(t *testing.T) {
	const clients, servers = 2, 3
	for _, c := range []struct {
		name    string
		binding TransferMethod
		async   bool // through InvokeAsync, which keeps the binding's method
		oneway  bool
		client  map[string]int
		server  map[string]int
	}{
		{name: "centralized", binding: Centralized,
			client: map[string]int{"agreelend": 1, "bcast": 1},
			server: map[string]int{"bcastv": 1, "allgather": 1}},
		{name: "multi-port binding below the crossover", binding: MultiPort,
			client: map[string]int{"agreelend": 1, "bcast": 1},
			server: map[string]int{"bcastv": 1, "allgather": 1}},
		{name: "multi-port", binding: MultiPort, async: true,
			client: map[string]int{"agreelend": 1, "allgather": 2, "bcast": 1, "barrier": 1},
			server: map[string]int{"bcastv": 1, "allgather": 3}},
		{name: "centralized oneway", binding: Centralized, oneway: true,
			client: map[string]int{"agreelend": 1, "barrier": 1},
			server: map[string]int{"bcastv": 1, "allgather": 1}},
		{name: "multi-port oneway", binding: MultiPort, async: true, oneway: true,
			client: map[string]int{"agreelend": 1, "allgather": 1, "barrier": 1},
			server: map[string]int{"bcastv": 1, "allgather": 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := newReg()
			var mu sync.Mutex
			srvTh := make([]*countingThread, servers)
			obj := startObjectCfg(t, reg, servers, true, collectiveOps, func(cfg *ObjectConfig) {
				ct := newCountingThread(cfg.Thread)
				cfg.Thread = ct
				mu.Lock()
				srvTh[ct.Rank()] = ct
				mu.Unlock()
			})
			closed := false
			defer func() {
				if !closed {
					obj.close()
				}
			}()
			for _, ct := range srvTh {
				ct.take() // Export's
			}

			err := mp.Run(clients, func(proc *mp.Proc) error {
				ct := newCountingThread(rts.NewMessagePassing(proc))
				b, err := Bind(context.Background(), BindConfig{
					Thread: ct, Registry: reg, Method: c.binding, ListenEndpoint: "inproc:*",
				}, obj.ref)
				if err != nil {
					return err
				}
				defer b.Close()
				seq, err := dseq.NewDoubles(1000, dist.Block(), ct.Size(), ct.Rank())
				if err != nil {
					return err
				}
				spec := &CallSpec{
					Operation: "diffusion",
					Scalars:   func(e *cdr.Encoder) { e.PutLong(1) },
					Args:      []DistArg{{Mode: InOut, Seq: seq}},
				}
				if c.oneway {
					spec = &CallSpec{Operation: "sink", Oneway: true, Args: []DistArg{{Mode: In, Seq: seq}}}
				}
				ct.take() // Bind's
				if c.async {
					p, err := b.InvokeAsync(context.Background(), spec)
					if err == nil {
						err = p.Wait(context.Background())
					}
					if err != nil {
						return err
					}
				} else if err := b.Invoke(context.Background(), spec); err != nil {
					return err
				}
				if got := ct.take(); !maps.Equal(got, c.client) {
					return fmt.Errorf("client thread %d completed %v, want %v", ct.Rank(), got, c.client)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			// The client may return before the server's threads have left
			// the dispatch (a oneway invocation always does): wait for them,
			// then close, so the closing broadcast cannot overtake it.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				behind := 0
				for _, ct := range srvTh {
					if sum(ct.counts()) < sum(c.server) {
						behind++
					}
				}
				if behind == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d server threads never completed the invocation's collectives", behind)
				}
			}
			obj.close()
			closed = true
			for range servers {
				<-obj.donech
			}
			want := maps.Clone(c.server)
			want["bcastv"]++ // the closing control broadcast
			for r, ct := range srvTh {
				if got := ct.take(); !maps.Equal(got, want) {
					t.Errorf("server thread %d completed %v, want %v (with the closing broadcast)", r, got, want)
				}
			}
		})
	}
}

// TestCollectivesPerSetUp pins the RTS calls of the set-up step that
// Export and Bind share (setUp) on every thread: each worker sends the
// communicator its part and the communicator broadcasts one answer, with
// no allgather; a centralized Bind gathers no parts, and its one call is
// the broadcast of the interface description.
func TestCollectivesPerSetUp(t *testing.T) {
	const clients, servers = 2, 3
	want := func(rank, size int, gather bool) map[string]int {
		switch {
		case !gather:
			return map[string]int{"bcast": 1}
		case rank == 0:
			return map[string]int{"recv": size - 1, "bcast": 1}
		default:
			return map[string]int{"send": 1, "bcast": 1}
		}
	}
	for _, multiPort := range []bool{false, true} {
		reg := newReg()
		var mu sync.Mutex
		srvTh := make([]*countingThread, servers)
		obj := startObjectCfg(t, reg, servers, multiPort, collectiveOps, func(cfg *ObjectConfig) {
			ct := newCountingThread(cfg.Thread)
			cfg.Thread = ct
			mu.Lock()
			srvTh[ct.Rank()] = ct
			mu.Unlock()
		})
		for r, ct := range srvTh {
			if got, w := ct.take(), want(r, servers, true); !maps.Equal(got, w) {
				t.Errorf("Export (multi-port %v): server thread %d completed %v, want %v", multiPort, r, got, w)
			}
		}
		for _, method := range []TransferMethod{Centralized, MultiPort} {
			if method == MultiPort && !multiPort {
				continue
			}
			err := mp.Run(clients, func(proc *mp.Proc) error {
				ct := newCountingThread(rts.NewMessagePassing(proc))
				b, err := Bind(context.Background(), BindConfig{
					Thread: ct, Registry: reg, Method: method, ListenEndpoint: "inproc:*",
				}, obj.ref)
				if err != nil {
					return err
				}
				b.Close()
				if got, w := ct.take(), want(ct.Rank(), clients, method == MultiPort); !maps.Equal(got, w) {
					return fmt.Errorf("%v Bind: client thread %d completed %v, want %v", method, ct.Rank(), got, w)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}
		obj.close()
	}
}

// TestKeptAgreementHandler: the agreement after the handler is what
// carries one server rank's handler error to the reply. A handler that
// fails on server rank 3 alone fails the invocation on every client
// thread, under either method.
func TestKeptAgreementHandler(t *testing.T) {
	ops := func(th rts.Thread) map[string]*Op {
		return map[string]*Op{
			"diffusion": {
				Spec: OpSpec{Args: []ArgSpec{{Mode: InOut, Dist: dist.Block()}}},
				Handler: func(call *Call) error {
					if call.Thread.Rank() == 3 {
						return errors.New("rank 3 diverged")
					}
					return nil
				},
			},
		}
	}
	reg := newReg()
	obj := startObject(t, reg, 4, true, ops)
	defer obj.close()
	for _, method := range []TransferMethod{Centralized, MultiPort} {
		runClient(t, reg, 2, method, obj.ref, func(b *Binding, th rts.Thread) error {
			seq, err := dseq.NewDoubles(1000, dist.Block(), th.Size(), th.Rank())
			if err != nil {
				return err
			}
			p, err := b.InvokeAsync(context.Background(), &CallSpec{
				Operation: "diffusion",
				Args:      []DistArg{{Mode: InOut, Seq: seq}},
			})
			if err == nil {
				err = p.Wait(context.Background())
			}
			if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "thread 3") {
				return fmt.Errorf("%v thread %d: want ErrRemote naming server thread 3, got %v", method, th.Rank(), err)
			}
			return nil
		})
	}
}

// TestHandlerPanicFailsInvocation: a handler that panics on one server
// thread, the communicator or a worker, fails that invocation on every
// thread and at the caller as a returned error does, under both
// methods, and counts as a server panic; the object serves on, and its
// next invocation succeeds.
func TestHandlerPanicFailsInvocation(t *testing.T) {
	ops := func(th rts.Thread) map[string]*Op {
		return map[string]*Op{
			"diffusion": {
				Spec: OpSpec{Args: []ArgSpec{{Mode: InOut, Dist: dist.Block()}}},
				Handler: func(call *Call) error {
					victim, err := call.Scalars.Long()
					if err != nil {
						return err
					}
					if int(victim) == call.Thread.Rank() {
						panic("handler blew up")
					}
					return nil
				},
			},
		}
	}
	reg := newReg()
	obj := startObject(t, reg, 4, true, ops)
	defer obj.close()
	for _, method := range []TransferMethod{Centralized, MultiPort} {
		for _, victim := range []int32{0, 2} {
			t.Run(fmt.Sprintf("%v/thread%d", method, victim), func(t *testing.T) {
				before := telemetry.Default.CounterValue("pardis_server_panics_total")
				runClient(t, reg, 2, method, obj.ref, func(b *Binding, th rts.Thread) error {
					seq, err := dseq.NewDoubles(1000, dist.Block(), th.Size(), th.Rank())
					if err != nil {
						return err
					}
					invoke := func(victim int32) error {
						p, err := b.InvokeAsync(context.Background(), &CallSpec{
							Operation: "diffusion",
							Scalars:   func(e *cdr.Encoder) { e.PutLong(victim) },
							Args:      []DistArg{{Mode: InOut, Seq: seq}},
						})
						if err == nil {
							err = p.Wait(context.Background())
						}
						return err
					}
					err = invoke(victim)
					if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), fmt.Sprintf("thread %d", victim)) {
						return fmt.Errorf("client thread %d got %v, want ErrRemote naming server thread %d",
							th.Rank(), err, victim)
					}
					if err := invoke(-1); err != nil {
						return fmt.Errorf("next invocation: %w", err)
					}
					return nil
				})
				if got := telemetry.Default.CounterValue("pardis_server_panics_total") - before; got != 1 {
					t.Errorf("%d panics counted, want 1", got)
				}
			})
		}
	}
}

// TestKeptAgreementStatusEndsLend: a centralized invocation's reply
// lands in the client threads' lent blocks, and the status broadcast
// that follows is the invocation's last collective. A thread that reads
// its block the moment Invoke returns, with no barrier and no scalar
// results to wait for, sees this invocation's reply.
func TestKeptAgreementStatusEndsLend(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 3, false, diffusionOps)
	defer obj.close()
	runClient(t, reg, 2, Centralized, obj.ref, func(b *Binding, th rts.Thread) error {
		seq, err := dseq.NewDoubles(1000, dist.Block(), th.Size(), th.Rank())
		if err != nil {
			return err
		}
		local := seq.LocalData()
		spec := &CallSpec{
			Operation: "diffusion",
			Scalars:   func(e *cdr.Encoder) { e.PutLong(1) },
			Args:      []DistArg{{Mode: InOut, Seq: seq}},
		}
		for k := range 50 {
			for i := range local {
				local[i] = float64(k*10000 + seq.Lo() + i)
			}
			if err := b.Invoke(context.Background(), spec); err != nil {
				return err
			}
			for i, v := range local {
				if want := 2 * float64(k*10000+seq.Lo()+i); v != want {
					return fmt.Errorf("thread %d invocation %d: [%d] = %v on return, want %v", th.Rank(), k, i, v, want)
				}
			}
		}
		return nil
	})
}

// TestOnewayQueuedBeforeNextCall: a oneway invocation with nothing to
// land is read whole at admission, and the client's next call, on the
// same connection, reaches admission as soon as it has been. The
// communicator still dispatches them in the order they arrived: the
// call sees the oneway's effect, every time. With a centralized oneway
// down to three client collectives, admission order alone decided it.
func TestOnewayQueuedBeforeNextCall(t *testing.T) {
	ops := func(th rts.Thread) map[string]*Op {
		var notes int32 // this thread's
		return map[string]*Op{
			"note": {Handler: func(*Call) error { notes++; return nil }},
			"count": {Handler: func(call *Call) error {
				call.Reply().PutLong(notes)
				return nil
			}},
		}
	}
	reg := newReg()
	obj := startObject(t, reg, 2, false, ops)
	defer obj.close()
	runClient(t, reg, 2, Centralized, obj.ref, func(b *Binding, th rts.Thread) error {
		for k := int32(1); k <= 100; k++ {
			if err := b.Invoke(context.Background(), &CallSpec{Operation: "note", Oneway: true}); err != nil {
				return err
			}
			var n int32
			err := b.Invoke(context.Background(), &CallSpec{
				Operation: "count",
				DecodeReply: func(d *cdr.Decoder) (err error) {
					n, err = d.Long()
					return err
				},
			})
			if err != nil {
				return err
			}
			if n != k {
				return fmt.Errorf("thread %d: the call after oneway %d saw %d of them", th.Rank(), k, n)
			}
		}
		return nil
	})
}

// blockOwnershipRun drives invocations of "check" — one inout argument
// of n doubles whose every element is the invocation's number k — from a
// two-thread client to a three-thread object, back to back. Each
// server thread's handler is handler(k, its block); the client checks
// the reply doubled every element.
func blockOwnershipRun(t *testing.T, handler func(k float64, blk []float64) error) {
	t.Helper()
	const n = 3 << 10
	ops := func(th rts.Thread) map[string]*Op {
		return map[string]*Op{"check": {
			Spec: OpSpec{Args: []ArgSpec{{Mode: InOut, Dist: dist.Block()}}},
			Handler: func(call *Call) error {
				k, err := call.Scalars.Double()
				if err != nil {
					return err
				}
				return handler(k, call.Args[0].LocalData())
			},
		}}
	}
	reg := newReg()
	obj := startObject(t, reg, 3, false, ops)
	defer obj.close()
	runClient(t, reg, 2, Centralized, obj.ref, func(b *Binding, th rts.Thread) error {
		seq, err := dseq.NewDoubles(n, dist.Block(), th.Size(), th.Rank())
		if err != nil {
			return err
		}
		for k := 1.0; k <= 40; k++ {
			seq.FillIndexed(func(int) float64 { return k })
			if err := b.Invoke(context.Background(), &CallSpec{Operation: "check",
				Scalars: func(e *cdr.Encoder) { e.PutDouble(k) },
				Args:    []DistArg{{Mode: InOut, Seq: seq}}}); err != nil {
				return fmt.Errorf("invocation %v: %w", k, err)
			}
			for i, v := range seq.LocalData() {
				if v != 2*k {
					return fmt.Errorf("thread %d invocation %v: [%d] = %v, want %v", th.Rank(), k, i, v, 2*k)
				}
			}
		}
		return nil
	})
}

// TestBlockOwnershipWorkerSpan pins the worker half of the argument
// blocks' ownership rule (DESIGN.md §10): a worker touches the block
// root handed it only between the control broadcast and the handler
// agreement. Root stages each request in every rank's block while the
// workers wait in the broadcast, so under -race a worker that reads its
// block outside the span — before the broadcast, say, or after the
// agreement — races root's landing of the next request.
func TestBlockOwnershipWorkerSpan(t *testing.T) {
	blockOwnershipRun(t, func(k float64, blk []float64) error {
		for i := range blk {
			blk[i] *= 2
		}
		return nil
	})
}

// TestBlockOwnershipRootOutsideSpan pins the root half: root writes a
// rank's block only outside that span, landing each request before the
// control broadcast hands the blocks over. Every server thread's
// handler checks the in-data it was handed, so a root that landed after
// the broadcast fails it — under -race always, as a race with the
// handler's reads, and without it whenever a handler is early.
func TestBlockOwnershipRootOutsideSpan(t *testing.T) {
	blockOwnershipRun(t, func(k float64, blk []float64) error {
		for i, v := range blk {
			if v != k {
				return fmt.Errorf("[%d] = %v on entry to invocation %v", i, v, k)
			}
			blk[i] = 2 * v
		}
		return nil
	})
}

// TestClosedWorldEndsCommunicator: once the object's world has closed,
// the communicator cannot hand a request to its workers, so it must not
// serve it alone. With a request queued behind a held handler, the world
// closed, and the handler released, root answers the queued request
// with an error without running its handler, and its Serve returns.
func TestClosedWorldEndsCommunicator(t *testing.T) {
	const size = 2
	w := mp.MustWorld(size)
	defer w.Close()
	hold := make(chan struct{})
	entered := make(chan struct{}, size)
	var mu sync.Mutex
	var rootRan []int32 // the scalar of every call root's handler ran
	ops := map[string]*Op{
		"hold": {
			Spec: OpSpec{Args: []ArgSpec{{Mode: InOut, Dist: dist.Block()}}},
			Handler: func(call *Call) error {
				id, err := call.Scalars.Long()
				if err != nil {
					return err
				}
				if call.Thread.Rank() == 0 {
					mu.Lock()
					rootRan = append(rootRan, id)
					mu.Unlock()
				}
				entered <- struct{}{}
				<-hold
				return nil
			},
		},
	}
	reg := newReg()
	objs := make([]*Object, size)
	served := make([]chan error, size)
	exported := make(chan error, size)
	for r := range objs {
		served[r] = make(chan error, 1)
		go func(r int) {
			obj, err := Export(ObjectConfig{Thread: rts.NewMessagePassing(w.Rank(r)), Registry: reg,
				ListenEndpoint: "inproc:*", Key: "objects/closed", TypeID: "IDL:closed:1.0", Ops: ops})
			objs[r] = obj
			exported <- err
			if err == nil {
				served[r] <- obj.Serve(context.Background())
			}
		}(r)
	}
	for range objs {
		if err := <-exported; err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, o := range objs {
			o.Close()
		}
	}()
	root := objs[0]

	invoke := func(id int32) <-chan error {
		done := make(chan error, 1)
		b, cw, err := bindPlain(context.Background(), reg, Centralized, "", root.Ref())
		if err != nil {
			done <- err
			return done
		}
		go func() {
			defer cw.Close()
			defer b.Close()
			seq, err := dseq.NewDoubles(8, dist.Block(), 1, 0)
			if err == nil {
				err = b.Invoke(context.Background(), &CallSpec{Operation: "hold",
					Scalars: func(e *cdr.Encoder) { e.PutLong(id) },
					Args:    []DistArg{{Mode: InOut, Seq: seq}}})
			}
			done <- err
		}()
		return done
	}
	first := invoke(1)
	for range size {
		<-entered // every rank holds the first call's handler
	}
	queued := invoke(2)
	deadline := time.Now().Add(5 * time.Second)
	for len(root.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	w.Close()
	close(hold)

	select {
	case err := <-served[0]:
		if !errors.Is(err, mp.ErrClosed) {
			t.Errorf("root's Serve returned %v, want the closed world's error", err)
		}
	case <-time.After(time.Second):
		t.Fatal("root's Serve still runs a second after its world closed")
	}
	if err := <-first; err == nil {
		t.Error("the held invocation succeeded on a closed world")
	}
	if err := <-queued; err == nil {
		t.Error("the queued invocation succeeded on a closed world")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(rootRan) != 1 || rootRan[0] != 1 {
		t.Errorf("root ran the handler for calls %v, want only the held one", rootRan)
	}
}
