package spmd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/giop"
	"pardis/internal/mp"
	"pardis/internal/orb"
	"pardis/internal/rts"
)

// methodOps exports one operation per argument mode, each checking or
// producing the ramp of global indices: "in" fails unless its In
// argument holds the ramp, "out" writes the ramp into its Out argument,
// "inout" doubles its argument. probe runs on the communicator thread at
// the top of every handler, while the client threads wait in their
// invocation; ran counts the "in" dispatches.
func methodOps(probe func(), ran *atomic.Int64) func(rts.Thread) map[string]*Op {
	return func(th rts.Thread) map[string]*Op {
		op := func(mode ArgMode, body func(seq *dseq.Doubles) error) *Op {
			return &Op{
				Spec: OpSpec{Args: []ArgSpec{{Mode: mode, Dist: dist.Block()}}},
				Handler: func(call *Call) error {
					if th.Rank() == 0 {
						probe()
					}
					return body(call.Args[0])
				},
			}
		}
		return map[string]*Op{
			"in": op(In, func(seq *dseq.Doubles) error {
				if th.Rank() == 0 {
					ran.Add(1)
				}
				for i, v := range seq.LocalData() {
					if v != float64(seq.Lo()+i) {
						return fmt.Errorf("rank %d: in[%d] = %v", th.Rank(), seq.Lo()+i, v)
					}
				}
				return nil
			}),
			"out": op(Out, func(seq *dseq.Doubles) error {
				for i := range seq.LocalData() {
					seq.LocalData()[i] = float64(seq.Lo() + i)
				}
				return nil
			}),
			"inout": op(InOut, func(seq *dseq.Doubles) error {
				for i := range seq.LocalData() {
					seq.LocalData()[i] *= 2
				}
				return nil
			}),
		}
	}
}

// plannedPuts is the number of window puts a multi-port transfer of one
// argument of mode over the two layouts ships: its in-plan's chunks
// and its out-plan's.
func plannedPuts(t *testing.T, mode ArgMode, client, server dist.Layout) uint64 {
	t.Helper()
	var n uint64
	add := func(src, dst dist.Layout) {
		plan, err := dist.Plan(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		n += uint64(len(dist.Chunk(plan, xferChunkElems)))
	}
	if mode != Out {
		add(client, server)
	}
	if mode != In {
		add(server, client)
	}
	return n
}

// TestMultiPortMethodBySize: a MultiPort binding's blocking invocation
// below the crossover travels centralized — no client thread registers
// an out-window, and no put is shipped either way — and one at the
// crossover ships exactly its planned puts, with every out-window
// registered while the handler runs. Covers In-only, Out-only, InOut
// and oneway calls, and an uneven client layout whose total is at the
// crossover while one rank's block is a single element: every rank
// derives multi-port from the global length, not its own block.
func TestMultiPortMethodBySize(t *testing.T) {
	const clients, servers = 2, 3
	var (
		mu       sync.Mutex
		bindings [clients]*Binding
		windows  []int // client out-windows registered, per handler entry
		ran      atomic.Int64
	)
	probe := func() {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, b := range bindings {
			n += b.BlockStats().Windows
		}
		windows = append(windows, n)
	}
	reg := newReg()
	obj := startObject(t, reg, servers, true, methodOps(probe, &ran))
	defer obj.close()

	below := dist.Block().MustApply(crossoverElems-1, clients)
	at := dist.Block().MustApply(crossoverElems, clients)
	uneven, err := dist.FromCounts([]int{1, crossoverElems - 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		op        string
		mode      ArgMode
		oneway    bool
		layout    dist.Layout
		multiPort bool
	}{
		{"in below", "in", In, false, below, false},
		{"out below", "out", Out, false, below, false},
		{"inout below", "inout", InOut, false, below, false},
		{"oneway below", "in", In, true, below, false},
		{"in at", "in", In, false, at, true},
		{"out at", "out", Out, false, at, true},
		{"inout at", "inout", InOut, false, at, true},
		{"oneway at", "in", In, true, at, true},
		{"inout uneven", "inout", InOut, false, uneven, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			server := dist.Block().MustApply(c.layout.Len(), servers)
			var want uint64
			if c.multiPort {
				want = plannedPuts(t, c.mode, c.layout, server)
			}
			wantWindows := 0
			if c.multiPort && c.mode != In {
				wantWindows = clients
			}
			mu.Lock()
			windows = windows[:0]
			mu.Unlock()
			ran0 := ran.Load()
			before := peerBlocksTotal.Value()
			err := mp.Run(clients, func(proc *mp.Proc) error {
				th := rts.NewMessagePassing(proc)
				b, err := Bind(context.Background(), BindConfig{
					Thread: th, Registry: reg, Method: MultiPort, ListenEndpoint: "inproc:*",
				}, obj.ref)
				if err != nil {
					return err
				}
				defer b.Close()
				mu.Lock()
				bindings[th.Rank()] = b
				mu.Unlock()
				seq, err := dseq.DoublesFromLocal(c.layout, th.Rank(),
					make([]float64, c.layout.Count(th.Rank())))
				if err != nil {
					return err
				}
				if c.mode != Out {
					for i := range seq.LocalData() {
						seq.LocalData()[i] = float64(seq.Lo() + i)
					}
				}
				if err := b.Invoke(context.Background(), &CallSpec{
					Operation: c.op, Oneway: c.oneway,
					Args: []DistArg{{Mode: c.mode, Seq: seq}},
				}); err != nil {
					return err
				}
				for i, v := range seq.LocalData() {
					want := float64(seq.Lo() + i)
					if c.mode == InOut {
						want *= 2
					}
					if v != want {
						return fmt.Errorf("rank %d: [%d] = %v, want %v", th.Rank(), seq.Lo()+i, v, want)
					}
				}
				return noLeak(b.BlockStats())
			})
			if err != nil {
				t.Fatal(err)
			}
			if c.oneway {
				// A oneway invocation returns once its request has left.
				deadline := time.Now().Add(5 * time.Second)
				for ran.Load() == ran0 {
					if time.Now().After(deadline) {
						t.Fatal("the oneway invocation was never dispatched")
					}
					time.Sleep(time.Millisecond)
				}
			}
			if got := peerBlocksTotal.Value() - before; got != want {
				t.Fatalf("shipped %d puts, want %d", got, want)
			}
			mu.Lock()
			seen := append([]int(nil), windows...)
			mu.Unlock()
			if len(seen) != 1 || seen[0] != wantWindows {
				t.Fatalf("client out-windows registered during the handler: %v, want [%d]", seen, wantWindows)
			}
			if err := obj.noLeak(noLeak); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInvokeAsyncReturnsInArguments: when InvokeAsync returns on a
// MultiPort binding, the in-arguments are the caller's again, whatever
// their size — the server sees the values they held at the call even
// when the caller overwrites them before Wait.
func TestInvokeAsyncReturnsInArguments(t *testing.T) {
	var ran atomic.Int64
	reg := newReg()
	obj := startObject(t, reg, 3, true, methodOps(func() {}, &ran))
	defer obj.close()
	runClient(t, reg, 2, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		for _, n := range []int{64, crossoverElems} {
			seq, err := dseq.NewDoubles(n, dist.Block(), th.Size(), th.Rank())
			if err != nil {
				return err
			}
			for i := range seq.LocalData() {
				seq.LocalData()[i] = float64(seq.Lo() + i)
			}
			p, err := b.InvokeAsync(context.Background(), &CallSpec{
				Operation: "in",
				Args:      []DistArg{{Mode: In, Seq: seq}},
			})
			if err != nil {
				return err
			}
			for i := range seq.LocalData() {
				seq.LocalData()[i] = -1
			}
			if err := p.Wait(context.Background()); err != nil {
				return fmt.Errorf("%d elements: %w", n, err)
			}
		}
		return nil
	})
}

// TestParkedOutOnlyRequestCancellable: a centralized request larger than
// the read buffer whose arguments carry no elements — an Out-only
// argument, padded — has nothing to land, so it is read whole at
// admission and does not stall its connection through its handler: a
// cancel for it and a further request on the same connection are read
// while the handler still runs.
func TestParkedOutOnlyRequestCancellable(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	ops := func(th rts.Thread) map[string]*Op {
		return map[string]*Op{"fill": {
			Spec: OpSpec{Args: []ArgSpec{{Mode: Out, Dist: dist.Block()}}},
			Handler: func(call *Call) error {
				hold, err := call.Scalars.Boolean()
				if err != nil {
					return err
				}
				if hold {
					if th.Rank() == 0 {
						entered <- struct{}{}
					}
					<-release
				}
				seq := call.Args[0]
				for i := range seq.LocalData() {
					seq.LocalData()[i] = float64(seq.Lo() + i)
				}
				return nil
			},
		}}
	}
	reg := newReg()
	obj := startObjectCfg(t, reg, 2, false, ops, func(cfg *ObjectConfig) {
		// Loopback TCP, whose socket buffers take the whole request and
		// the cancel behind it, as a real client's connection would.
		cfg.ListenEndpoint = "tcp:127.0.0.1:0"
	})
	defer obj.close()
	cli := orb.NewClient(reg, orb.WithStripes(1))
	defer cli.Close()
	padded := func(hold bool) func(*cdr.Encoder) {
		return func(e *cdr.Encoder) {
			scal := cdr.NewEncoder(cdr.BigEndian)
			scal.PutOctet(byte(cdr.BigEndian))
			scal.PutBoolean(hold)
			(&invocationWire{Method: Centralized, Scalars: scal.Bytes(), Args: []*argWire{{
				Mode: Out, Length: 8, ClientCounts: []int{8},
			}}}).encode(e)
			e.PutOctets(make([]byte, giop.DefaultReadBufSize+1000))
		}
	}

	held := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		_, _, err := invokeRaw(ctx, cli, obj.ref, "fill", padded(true))
		held <- err
	}()
	<-entered
	select {
	case err := <-held:
		if !errors.Is(err, orb.ErrCanceled) {
			t.Fatalf("the held invocation returned %v; want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the held invocation outlived its deadline")
	}
	// The handler still runs; the connection must read on regardless.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rh, _, err := invokeRaw(ctx, cli, obj.ref, DescribeOperation, nil)
	if err != nil || rh.Status != giop.ReplyOK {
		t.Fatalf("a describe behind the padded request: %v %v; want it answered while the handler runs", rh.Status, err)
	}
	unblock()
	rh, d, err := invokeRaw(ctx, cli, obj.ref, "fill", padded(false))
	if err != nil || rh.Status != giop.ReplyOK {
		t.Fatalf("padded request: %v %v", rh.Status, err)
	}
	if _, err := d.Encapsulation(); err != nil {
		t.Fatal(err)
	}
	if k, err := d.ULong(); err != nil || k != 1 {
		t.Fatalf("out-argument count %d (%v)", k, err)
	}
	out, err := d.DoubleSeq()
	if err != nil || len(out) != 8 {
		t.Fatalf("out argument: %d elements (%v)", len(out), err)
	}
	for i, v := range out {
		if v != float64(i) {
			t.Fatalf("out[%d] = %v", i, v)
		}
	}
}
