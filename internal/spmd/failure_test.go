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
	"pardis/internal/orb"
	"pardis/internal/rts"
)

// TestMaliciousBlockRejected: a window put whose header points outside
// the receiver's local block must fail the invocation it was aimed at,
// not corrupt memory, crash or hang, and must leave nothing behind.
//
// Invocation ids are client-chosen and sequential per ORB client, so
// client thread 1 forges a put at server thread 1 under the id its
// binding's next invocation will use, ahead of its own legitimate put on
// the same put connection. The forged put waits for that epoch; when the
// invocation arms the window for it, the forged put is read first and
// poisons the epoch, so every invocation fails deterministically, and the
// legitimate put behind it is landed or skimmed, never left waiting.
func TestMaliciousBlockRejected(t *testing.T) {
	// Over TCP a small put's write returns once the kernel has it, so the
	// legitimate put finds the forged one's connection idle and follows
	// it there.
	reg := newReg()
	obj := startObjectCfg(t, reg, 2, true, diffusionOps, func(cfg *ObjectConfig) {
		cfg.ListenEndpoint = "tcp:127.0.0.1:0"
	})
	defer obj.close()

	const rounds = 3
	err := mp.Run(2, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		b, err := Bind(context.Background(), BindConfig{
			Thread: th, Registry: reg, Method: MultiPort, ListenEndpoint: "inproc:*",
		}, obj.ref)
		if err != nil {
			return err
		}
		defer b.Close()

		for k := 0; k < rounds; k++ {
			// The communicator allocates invocation ids; the next one
			// is the one after this.
			var peek uint64
			if th.Rank() == 0 {
				peek = b.oc.NewInvocationID()
			}
			ids, err := th.AllgatherU64(peek)
			if err != nil {
				return err
			}
			if th.Rank() == 1 {
				key, err := giop.BlockSinkKey(ids[0]+1, 0)
				if err != nil {
					return err
				}
				h := giop.WindowPutHeader{
					WindowID:   key,
					FromThread: 1,
					DstOff:     1 << 30, // way outside
					Count:      4,
				}
				if _, err := b.oc.PutWindow(obj.ref.ThreadEndpoint(1), h, []float64{1, 2, 3, 4}); err != nil {
					return err
				}
				// Waiting ahead of the legitimate put on its connection.
				deadline := time.Now().Add(10 * time.Second)
				for obj.threadObjects()[1].BlockStats().Pending != 1 {
					if time.Now().After(deadline) {
						return fmt.Errorf("the forged put never waited: %+v", obj.threadObjects()[1].BlockStats())
					}
					time.Sleep(time.Millisecond)
				}
			}
			if err := th.Barrier(); err != nil {
				return err
			}
			// The invocation ships this thread's 50 elements to the
			// server thread of the same rank as one put.
			seq, err := dseq.NewDoubles(100, dist.Block(), th.Size(), th.Rank())
			if err != nil {
				return err
			}
			p, err := b.InvokeAsync(context.Background(), &CallSpec{
				Operation: "diffusion",
				Scalars:   func(e *cdr.Encoder) { e.PutLong(1) },
				Args:      []DistArg{{Mode: InOut, Seq: seq}},
			})
			if err == nil {
				err = p.Wait(context.Background())
			}
			if !errors.Is(err, ErrRemote) {
				return fmt.Errorf("invocation %d hit by a forged put: want ErrRemote, got %v", k, err)
			}
			if err := noLeak(b.BlockStats()); err != nil {
				return fmt.Errorf("client thread %d: %w", th.Rank(), err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for err := obj.noLeak(noLeak); err != nil; err = obj.noLeak(noLeak) {
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
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

// TestBindDescribeFailureReachesEveryRank: when the communicator's
// describe invocation fails (no listener behind the reference's
// communicator endpoint), the communicator returns its cause and every
// other thread an ErrPartialFailure naming thread 0, under either
// method, rather than waiting for an interface description that never
// comes.
func TestBindDescribeFailureReachesEveryRank(t *testing.T) {
	reg := newReg()
	ref := &ior.Ref{TypeID: "IDL:nobody:1.0", Key: "objects/nobody", Threads: 2,
		Endpoints: []string{"inproc:nobody-0", "inproc:nobody-1"}}
	for _, method := range []TransferMethod{Centralized, MultiPort} {
		err := mp.Run(3, func(proc *mp.Proc) error {
			th := rts.NewMessagePassing(proc)
			done := make(chan error, 1)
			go func() {
				_, err := Bind(context.Background(), BindConfig{
					Thread: th, Registry: reg, Method: method, ListenEndpoint: "inproc:*",
				}, ref)
				done <- err
			}()
			select {
			case err := <-done:
				switch {
				case err == nil:
					return fmt.Errorf("%v thread %d: bind to no listener succeeded", method, th.Rank())
				case th.Rank() == 0 && (errors.Is(err, ErrPartialFailure) || !errors.Is(err, orb.ErrUnreachable)):
					return fmt.Errorf("%v thread 0: want the describe's own cause, got %v", method, err)
				case th.Rank() != 0 && (!errors.Is(err, ErrPartialFailure) || !strings.Contains(err.Error(), "thread 0")):
					return fmt.Errorf("%v thread %d: want ErrPartialFailure naming thread 0, got %v", method, th.Rank(), err)
				}
				return nil
			case <-time.After(10 * time.Second):
				return fmt.Errorf("%v thread %d: Bind stranded on the communicator's describe failure", method, th.Rank())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
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

// TestExportOpsMismatch: threads exported with different operation
// tables fail Export on every thread with ErrInconsistent. A worker that
// lacked an operation the communicator broadcast would return from the
// dispatch before its collectives and leave the other threads waiting in
// them: where Export lets the mismatch through, the test invokes that
// operation, and fails.
func TestExportOpsMismatch(t *testing.T) {
	reg := newReg()
	w := mp.MustWorld(2)
	defer w.Close()
	objs := make([]*Object, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range objs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rts.NewMessagePassing(w.Rank(r))
			ops := diffusionOps(th)
			if r == 1 {
				delete(ops, "diffusion")
			}
			objs[r], errs[r] = Export(ObjectConfig{
				Thread: th, Registry: reg, ListenEndpoint: "inproc:*",
				Key: "objects/mismatch", TypeID: "IDL:mismatch:1.0", Ops: ops,
			})
		}()
	}
	wg.Wait()
	if errors.Is(errs[0], ErrInconsistent) && errors.Is(errs[1], ErrInconsistent) {
		if !strings.Contains(errs[0].Error(), "thread 1") {
			t.Fatalf("the error does not name the mismatched thread: %v", errs[0])
		}
		return
	}
	for _, o := range objs {
		if o != nil {
			defer o.Close()
			go o.Serve(context.Background())
		}
	}
	if objs[0] == nil {
		t.Fatalf("Export: %v", errs)
	}
	invoked := make(chan error, 1)
	go func() {
		invoked <- mp.Run(1, func(proc *mp.Proc) error {
			b, err := Bind(context.Background(), BindConfig{
				Thread: rts.NewMessagePassing(proc), Registry: reg, Method: Centralized,
			}, objs[0].Ref())
			if err != nil {
				return err
			}
			defer b.Close()
			seq, err := dseq.NewDoubles(10, dist.Block(), 1, 0)
			if err != nil {
				return err
			}
			return b.Invoke(context.Background(), &CallSpec{
				Operation: "diffusion",
				Scalars:   func(e *cdr.Encoder) { e.PutLong(1) },
				Args:      []DistArg{{Mode: InOut, Seq: seq}},
			})
		})
	}()
	select {
	case err := <-invoked:
		t.Fatalf("Export let mismatched operation tables through (%v); invoking the operation thread 1 lacks: %v", errs, err)
	case <-time.After(time.Second):
		t.Fatalf("Export let mismatched operation tables through (%v); invoking the operation thread 1 lacks has not returned after 1 s", errs)
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
