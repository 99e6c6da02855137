package spmd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/mp"
	"pardis/internal/rts"
)

// TestMaliciousBlockRejected: a window put whose header points outside
// the receiver's local block must fail the invocation it was aimed at,
// not corrupt memory, crash or hang, and must leave nothing behind.
//
// Invocation ids are client-chosen and sequential per ORB client, so
// client thread 0 forges puts at server thread 1 under the ids its
// binding's next invocations will use. A separate client first parks
// the serve loops in a blocked handler: the real invocations' requests
// queue behind it and every put — forged and legitimate — is parked in
// the pending buffer before any window registers. On release each
// server thread-1 window flushes its forged put first and is poisoned
// by it, so every invocation fails deterministically and no legitimate
// put can straggle in after a window is gone.
func TestMaliciousBlockRejected(t *testing.T) {
	held := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // a failed run must not strand the handlers
	ops := func(th rts.Thread) map[string]*Op {
		m := diffusionOps(th)
		m["hold"] = &Op{Handler: func(call *Call) error {
			if call.Thread.Rank() == 0 {
				close(held)
			}
			<-release
			return nil
		}}
		return m
	}
	reg := newReg()
	obj := startObject(t, reg, 2, true, ops)
	defer obj.close()

	holder, hw, err := BindPlain(context.Background(), reg, Centralized, "", obj.ref)
	if err != nil {
		t.Fatal(err)
	}
	defer hw.Close()
	defer holder.Close()
	holdDone := make(chan error, 1)
	go func() { holdDone <- holder.Invoke(context.Background(), &CallSpec{Operation: "hold"}) }()
	<-held

	const forged = 3
	// parked waits until server thread 1's pending buffer holds n puts.
	parked := func(n int) error {
		deadline := time.Now().Add(10 * time.Second)
		for obj.threadObjects()[1].BlockStats().Pending != n {
			if time.Now().After(deadline) {
				return fmt.Errorf("server thread 1 parked %+v, want %d puts",
					obj.threadObjects()[1].BlockStats(), n)
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	err = mp.Run(2, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		b, err := Bind(context.Background(), BindConfig{
			Thread: th, Registry: reg, Method: MultiPort, ListenEndpoint: "inproc:*",
		}, obj.ref)
		if err != nil {
			return err
		}
		defer b.Close()

		if th.Rank() == 0 {
			base := b.oc.NewInvocationID()
			for k := uint64(1); k <= forged; k++ {
				key, err := giop.BlockSinkKey(base+k, 0)
				if err != nil {
					return err
				}
				h := giop.WindowPutHeader{
					WindowID:   key,
					FromThread: 0,
					DstOff:     1 << 30, // way outside
					Count:      4,
				}
				if _, err := b.oc.PutWindow(obj.ref.ThreadEndpoint(1), h, []float64{1, 2, 3, 4}); err != nil {
					return err
				}
			}
			// Parked ahead of the legitimate puts: a window flushes its
			// early puts in arrival order.
			if err := parked(forged); err != nil {
				return err
			}
		}
		if err := th.Barrier(); err != nil {
			return err
		}
		// Each invocation ships this thread's 50 elements to the server
		// thread of the same rank as one put.
		var pending []*Pending
		for k := 0; k < forged; k++ {
			seq, err := dseq.NewDoubles(100, dist.Block(), th.Size(), th.Rank())
			if err != nil {
				return err
			}
			p, err := b.InvokeAsync(context.Background(), &CallSpec{
				Operation: "diffusion",
				Scalars:   func(e *cdr.Encoder) { e.PutLong(1) },
				Args:      []DistArg{{Mode: InOut, Seq: seq}},
			})
			if err != nil {
				return err
			}
			pending = append(pending, p)
		}
		if err := th.Barrier(); err != nil {
			return err
		}
		if th.Rank() == 0 {
			// Both client threads' puts have been written; server thread
			// 1 must have parked its share before any window registers.
			if err := parked(2 * forged); err != nil {
				return err
			}
			unblock()
		}
		for k, p := range pending {
			if err := p.Wait(context.Background()); !errors.Is(err, ErrRemote) {
				return fmt.Errorf("invocation %d hit by a forged put: want ErrRemote, got %v", k, err)
			}
		}
		if err := noLeak(b.BlockStats()); err != nil {
			return fmt.Errorf("client thread %d: %w", th.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-holdDone; err != nil {
		t.Fatal(err)
	}
	if err := obj.noLeak(noLeak); err != nil {
		t.Fatal(err)
	}
}

// TestInvocationContextCancel: canceling the context while the server
// is stuck aborts the client-side wait collectively.
func TestInvocationContextCancel(t *testing.T) {
	hang := make(chan struct{})
	ops := func(th rts.Thread) map[string]*Op {
		return map[string]*Op{
			"hang": {
				Spec: OpSpec{},
				Handler: func(call *Call) error {
					<-hang
					return nil
				},
			},
		}
	}
	reg := newReg()
	obj := startObject(t, reg, 2, false, ops)
	defer obj.close()
	defer close(hang)

	err := mp.Run(2, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		b, err := Bind(context.Background(), BindConfig{
			Thread: th, Registry: reg, Method: Centralized,
		}, obj.ref)
		if err != nil {
			return err
		}
		defer b.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		start := time.Now()
		err = b.Invoke(ctx, &CallSpec{Operation: "hang"})
		if err == nil {
			return errors.New("hung invocation succeeded")
		}
		if time.Since(start) > 5*time.Second {
			return errors.New("cancellation did not take effect promptly")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServerClosedDuringInvocation: closing the object mid-request
// surfaces an error on the client and leaves no goroutine stuck.
func TestServerClosedDuringInvocation(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	ops := func(th rts.Thread) map[string]*Op {
		return map[string]*Op{
			"slow": {
				Spec: OpSpec{},
				Handler: func(call *Call) error {
					if call.Thread.Rank() == 0 {
						close(started)
					}
					<-release
					return nil
				},
			},
		}
	}
	reg := newReg()
	obj := startObject(t, reg, 2, false, ops)

	done := make(chan error, 1)
	go func() {
		done <- mp.Run(1, func(proc *mp.Proc) error {
			th := rts.NewMessagePassing(proc)
			b, err := Bind(context.Background(), BindConfig{
				Thread: th, Registry: reg, Method: Centralized,
			}, obj.ref)
			if err != nil {
				return err
			}
			defer b.Close()
			return b.Invoke(context.Background(), &CallSpec{Operation: "slow"})
		})
	}()
	<-started
	close(release)
	obj.close()
	select {
	case err := <-done:
		// Any outcome except a hang is acceptable: the reply may
		// have squeaked out before the close, or the connection
		// dropped.
		_ = err
	case <-time.After(5 * time.Second):
		t.Fatal("client hung after server close")
	}
}

// TestArgumentLengthMismatchAcrossThreads: client threads passing
// sequences of different global lengths violate the SPMD contract and
// must be caught by the consistency check.
func TestArgumentLengthMismatchAcrossThreads(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 2, true, diffusionOps)
	defer obj.close()
	err := mp.Run(2, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		b, err := Bind(context.Background(), BindConfig{
			Thread: th, Registry: reg, Method: MultiPort, ListenEndpoint: "inproc:*",
		}, obj.ref)
		if err != nil {
			return err
		}
		defer b.Close()
		// Different lengths per thread — each thread builds a
		// "globally consistent" sequence of a different length.
		length := 100 + th.Rank()*10
		seq, err := dseq.NewDoubles(length, dist.Block(), th.Size(), th.Rank())
		if err != nil {
			return err
		}
		err = b.Invoke(context.Background(), &CallSpec{
			Operation: "diffusion",
			Scalars:   func(e *cdr.Encoder) { e.PutLong(1) },
			Args:      []DistArg{{Mode: InOut, Seq: seq}},
		})
		if !errors.Is(err, ErrInconsistent) {
			return fmt.Errorf("want ErrInconsistent, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExportValidation covers Export argument errors.
func TestExportValidation(t *testing.T) {
	if _, err := Export(ObjectConfig{}); !errors.Is(err, ErrBadCall) {
		t.Fatalf("nil thread: %v", err)
	}
	w := mp.MustWorld(1)
	defer w.Close()
	_, err := Export(ObjectConfig{Thread: rts.NewMessagePassing(w.Rank(0))})
	if !errors.Is(err, ErrBadCall) {
		t.Fatalf("empty key: %v", err)
	}
}

// TestBindValidation covers Bind argument errors.
func TestBindValidation(t *testing.T) {
	if _, err := Bind(context.Background(), BindConfig{}, nil); !errors.Is(err, ErrBadCall) {
		t.Fatalf("nil thread: %v", err)
	}
	reg := newReg()
	obj := startObject(t, reg, 2, true, diffusionOps)
	defer obj.close()
	err := mp.Run(1, func(proc *mp.Proc) error {
		_, err := Bind(context.Background(), BindConfig{
			Thread:   rts.NewMessagePassing(proc),
			Registry: reg,
			Method:   MultiPort, // no ListenEndpoint
		}, obj.ref)
		if !errors.Is(err, ErrBadCall) {
			return fmt.Errorf("missing listen endpoint: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOnewayWithOutArgRejected: the §2.1 contract — oneway cannot
// return data.
func TestOnewayWithOutArgRejected(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 2, true, diffusionOps)
	defer obj.close()
	err := mp.Run(1, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		b, err := Bind(context.Background(), BindConfig{
			Thread: th, Registry: reg, Method: MultiPort, ListenEndpoint: "inproc:*",
		}, obj.ref)
		if err != nil {
			return err
		}
		defer b.Close()
		seq, _ := dseq.NewDoubles(10, dist.Block(), 1, 0)
		err = b.Invoke(context.Background(), &CallSpec{
			Operation: "diffusion",
			Oneway:    true,
			Scalars:   func(e *cdr.Encoder) { e.PutLong(1) },
			Args:      []DistArg{{Mode: InOut, Seq: seq}},
		})
		if !errors.Is(err, ErrBadCall) {
			return fmt.Errorf("oneway inout accepted: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultBindPartialFailure: one client thread failing to open its
// multi-port receive port must surface ErrPartialFailure naming that
// rank on EVERY thread, instead of the healthy ranks deadlocking in
// the endpoint exchange.
func TestFaultBindPartialFailure(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 2, true, diffusionOps)
	defer obj.close()
	err := mp.Run(2, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		listen := "inproc:*"
		if th.Rank() == 1 {
			listen = "bogus:*" // unregistered scheme: Listen fails on this rank only
		}
		done := make(chan error, 1)
		go func() {
			_, err := Bind(context.Background(), BindConfig{
				Thread: th, Registry: reg, Method: MultiPort, ListenEndpoint: listen,
			}, obj.ref)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrPartialFailure) {
				return fmt.Errorf("rank %d: want ErrPartialFailure, got %v", th.Rank(), err)
			}
			if !strings.Contains(err.Error(), "thread 1") {
				return fmt.Errorf("rank %d: error does not name the failed rank: %v", th.Rank(), err)
			}
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("rank %d: Bind deadlocked on a peer's listen failure", th.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultExportPartialFailure: same contract on the server side —
// if one computing thread cannot open its port, Export fails
// collectively with the rank named, rather than wedging the
// communicator in the endpoint exchange.
func TestFaultExportPartialFailure(t *testing.T) {
	reg := newReg()
	err := mp.Run(2, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		listen := "inproc:*"
		if th.Rank() == 1 {
			listen = "bogus:*"
		}
		done := make(chan error, 1)
		go func() {
			_, err := Export(ObjectConfig{
				Thread: th, Registry: reg, ListenEndpoint: listen,
				Key: "objects/partial", TypeID: "IDL:partial:1.0",
				MultiPort: true, Ops: diffusionOps(th),
			})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrPartialFailure) {
				return fmt.Errorf("rank %d: want ErrPartialFailure, got %v", th.Rank(), err)
			}
			if !strings.Contains(err.Error(), "thread 1") {
				return fmt.Errorf("rank %d: error does not name the failed rank: %v", th.Rank(), err)
			}
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("rank %d: Export deadlocked on a peer's listen failure", th.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultBindRetriesAcrossReplicas: Bind's describe call rides the
// retry/failover layer, so a conventional object whose first listed
// endpoint is dead still binds via the second.
func TestFaultBindRetriesAcrossReplicas(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 1, false, diffusionOps)
	defer obj.close()
	// A stale first endpoint in front of the real communicator.
	stale := &ior.Ref{
		TypeID:  obj.ref.TypeID,
		Key:     obj.ref.Key,
		Threads: 1,
		Endpoints: append([]string{"inproc:long-gone"},
			obj.ref.Endpoints...),
	}
	err := mp.Run(1, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		b, err := Bind(context.Background(), BindConfig{
			Thread: th, Registry: reg, Method: Centralized,
		}, stale)
		if err != nil {
			return fmt.Errorf("bind did not fail over past the dead endpoint: %v", err)
		}
		defer b.Close()
		return invokeDiffusion(b, th, 64, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
}
