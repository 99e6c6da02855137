package spmd

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/giop"
	"pardis/internal/orb"
	"pardis/internal/rts"
	"pardis/internal/transport"
)

// invokeAsyncDiffusion is invokeDiffusion through InvokeAsync, which a
// MultiPort binding always sends multi-port, whatever the length.
func invokeAsyncDiffusion(ctx context.Context, b *Binding, th rts.Thread, length int) error {
	seq, err := dseq.NewDoubles(length, dist.Block(), th.Size(), th.Rank())
	if err != nil {
		return err
	}
	for i := range seq.LocalData() {
		seq.LocalData()[i] = float64(seq.Lo() + i)
	}
	p, err := b.InvokeAsync(ctx, &CallSpec{
		Operation: "diffusion",
		Scalars:   func(e *cdr.Encoder) { e.PutLong(1) },
		Args:      []DistArg{{Mode: InOut, Seq: seq}},
	})
	if err != nil {
		return err
	}
	if err := p.Wait(ctx); err != nil {
		return err
	}
	for i, v := range seq.LocalData() {
		if want := float64(seq.Lo()+i) * 2; v != want {
			return fmt.Errorf("thread %d: [%d] = %v, want %v", th.Rank(), i, v, want)
		}
	}
	return nil
}

// TestFaultMultiPortShedBeforeCollective: a multi-port invocation that
// expires in the communicator's queue is shed before the collective,
// while its puts wait on every rank for an epoch that will not be armed.
// The shed ends the epoch on every rank, so the puts are skimmed: the invocation returns within a second of the shed, not when
// the wait bound fails its connections, and the binding's next
// invocation, whose puts ride the same connections, succeeds.
func TestFaultMultiPortShedBeforeCollective(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
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
	holder, hw, err := bindPlain(context.Background(), reg, Centralized, "", obj.ref)
	if err != nil {
		t.Fatal(err)
	}
	defer hw.Close()
	defer holder.Close()
	holdDone := make(chan error, 1)
	go func() { holdDone <- holder.Invoke(context.Background(), &CallSpec{Operation: "hold"}) }()
	<-held

	// Release the collective once the queued invocation has expired; its
	// threads are still writing puts that wait on the ranks (over inproc
	// a put's write returns only once the server reads it).
	const budget = 100 * time.Millisecond
	var releasedAt atomic.Int64
	go func() {
		time.Sleep(3 * budget)
		releasedAt.Store(time.Now().UnixNano())
		close(release)
	}()
	shed0 := shedExpiredSPMD.Value()
	runClient(t, reg, 2, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		err := invokeAsyncDiffusion(ctx, b, th, 1000)
		cancel()
		if err == nil {
			return errors.New("an invocation that expired in the queue succeeded")
		}
		if at := releasedAt.Load(); at == 0 {
			return fmt.Errorf("thread %d: the invocation returned before the collective was free: %v", th.Rank(), err)
		} else if took := time.Since(time.Unix(0, at)); took > time.Second {
			return fmt.Errorf("thread %d: the shed invocation returned %v after the shed", th.Rank(), took)
		}
		return invokeAsyncDiffusion(context.Background(), b, th, 1000)
	})
	if err := <-holdDone; err != nil {
		t.Fatal(err)
	}
	if shedExpiredSPMD.Value() == shed0 {
		t.Fatal("the expired invocation was not shed by the communicator")
	}
	if err := obj.noLeak(noLeak); err != nil {
		t.Fatal(err)
	}
}

// TestFaultPhase1FailureOnOneRank: one rank fails phase 1 of a
// multi-port dispatch before it arms the second argument's window (the
// first argument's window, already armed for the invocation's epoch,
// makes its arming fail there alone). It ends the invocation's epoch, so
// the client's puts for the second argument are skimmed rather than stalling
// the client thread that writes them: the invocation fails promptly,
// collectively, and the binding's next invocation succeeds on the same
// connections.
func TestFaultPhase1FailureOnOneRank(t *testing.T) {
	ops := func(th rts.Thread) map[string]*Op {
		m := diffusionOps(th)
		m["two"] = &Op{
			Spec:    OpSpec{Args: []ArgSpec{{Mode: In, Dist: dist.Block()}, {Mode: In, Dist: dist.Block()}}},
			Handler: func(*Call) error { return nil },
		}
		return m
	}
	reg := newReg()
	obj := startObject(t, reg, 2, true, ops)
	defer obj.close()
	runClient(t, reg, 2, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		args := make([]DistArg, 2)
		for i := range args {
			seq, err := dseq.NewDoubles(1000, dist.Block(), th.Size(), th.Rank())
			if err != nil {
				return err
			}
			args[i] = DistArg{Mode: In, Seq: seq}
		}
		// Server rank 1 already has the first argument's window armed for
		// the next invocation's epoch, whose id the binding's client
		// allocates next in sequence; client thread 1's puts fill it.
		var decoy func()
		if th.Rank() == 0 {
			key, err := giop.BlockSinkKey(b.oc.NewInvocationID()+1, 0)
			if err != nil {
				return err
			}
			if _, decoy, err = obj.threadObjects()[1].srv.RegisterWindow(key, make([]float64, 500), 500, nil); err != nil {
				return err
			}
		}
		start := time.Now()
		p, err := b.InvokeAsync(context.Background(), &CallSpec{Operation: "two", Args: args})
		if err == nil {
			err = p.Wait(context.Background())
		}
		if decoy != nil {
			decoy()
		}
		if !errors.Is(err, ErrRemote) {
			return fmt.Errorf("thread %d: want ErrRemote from the failed phase 1, got %v", th.Rank(), err)
		}
		if took := time.Since(start); took > 5*time.Second {
			return fmt.Errorf("thread %d: the failed invocation took %v", th.Rank(), took)
		}
		return invokeAsyncDiffusion(context.Background(), b, th, 1000)
	})
	if err := obj.noLeak(noLeak); err != nil {
		t.Fatal(err)
	}
}

// TestFaultMultiPortExpiredOnArrival: a multi-port invocation whose
// deadline has passed when it reaches the object is shed before the
// collective, while its client threads' puts wait on every rank for an
// epoch of a binding that has no window there yet. The ORB leaves the
// shed to the communicator, which ends the epoch on every rank: the
// puts are skimmed within a second, and the binding's next invocation,
// whose puts ride the same connections, succeeds within a second.
func TestFaultMultiPortExpiredOnArrival(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 2, true, diffusionOps)
	defer obj.close()
	shed0 := shedExpiredSPMD.Value()
	runClient(t, reg, 2, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		const length = 1000
		seq, err := dseq.NewDoubles(length, dist.Block(), th.Size(), th.Rank())
		if err != nil {
			return err
		}
		var inv uint64
		if th.Rank() == 0 {
			inv = b.oc.NewInvocationID()
		}
		invs, err := th.AllgatherU64(inv)
		if err != nil {
			return err
		}
		inv = invs[0]
		replied := make(chan error, 1)
		if th.Rank() == 0 {
			w := &invocationWire{Method: MultiPort, Scalars: []byte{byte(cdr.BigEndian)},
				Args: []*argWire{{Mode: InOut, Length: length, ClientCounts: seq.Layout().Counts(),
					ClientEndpoints: b.allEndpoints}}}
			go func() {
				_, _, _, err := b.oc.Invoke(context.Background(), b.ref.Endpoints[0], giop.RequestHeader{
					InvocationID: inv, ResponseExpected: true, ObjectKey: b.ref.Key,
					Operation: "diffusion", ThreadCount: int32(th.Size()),
					DeadlineMicros: 1, // gone before the request is read
				}, w.encode)
				replied <- err
			}()
		}
		server, err := dist.Block().Apply(length, obj.ref.Threads)
		if err != nil {
			return err
		}
		plan, err := dist.Plan(seq.Layout(), server)
		if err != nil {
			return err
		}
		start := time.Now()
		// Over inproc a put's write returns only once the server reads it.
		puts, err := chunkPuts(plan, th.Rank(), xferChunkElems)
		if err != nil {
			return err
		}
		if err := b.sendBlocks(inv, 0, &planMemo{puts: puts}, seq); err != nil {
			return fmt.Errorf("thread %d: puts of the expired invocation: %v", th.Rank(), err)
		}
		if took := time.Since(start); took > time.Second {
			return fmt.Errorf("thread %d: the expired invocation's puts took %v", th.Rank(), took)
		}
		if th.Rank() == 0 {
			if err := <-replied; !errors.Is(err, orb.ErrDeadlineExpired) {
				return fmt.Errorf("the expired invocation: want a TIMEOUT, got %v", err)
			}
		}
		start = time.Now()
		if err := invokeAsyncDiffusion(context.Background(), b, th, length); err != nil {
			return err
		}
		if took := time.Since(start); took > time.Second {
			return fmt.Errorf("thread %d: the next invocation took %v", th.Rank(), took)
		}
		return nil
	})
	if shedExpiredSPMD.Value() == shed0 {
		t.Fatal("the expired invocation was not shed by the communicator")
	}
	if err := obj.noLeak(noLeak); err != nil {
		t.Fatal(err)
	}
}

// waitErr returns what done delivers, failing t if it takes longer than d.
func waitErr(t *testing.T, done <-chan error, d time.Duration) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("nothing within %v", d)
		return nil
	}
}

// TestFaultCloseEndsWaitingPut: a put that waits for an epoch of its
// binding — on a server rank, or on a client thread's receive port —
// ends within a second when Object.Close or Binding.Close takes the
// windows it waits for away: the port's connections end with it. Fails
// when closing a port leaves its connections' waits asleep.
func TestFaultCloseEndsWaitingPut(t *testing.T) {
	waiting := func(t *testing.T, reg *transport.Registry, ep string, inv uint64, pending func() int) <-chan error {
		t.Helper()
		cli := orb.NewClient(reg)
		t.Cleanup(func() { cli.Close() })
		key, err := giop.BlockSinkKey(inv, 0)
		if err != nil {
			t.Fatal(err)
		}
		ended := make(chan error, 1)
		go func() {
			_, err := cli.PutWindow(ep, giop.WindowPutHeader{WindowID: key, Last: true}, ramp(8))
			ended <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); pending() != 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the put does not wait")
			}
		}
		return ended
	}
	t.Run("object", func(t *testing.T) {
		reg := newReg()
		obj := startObject(t, reg, 2, true, diffusionOps)
		worker := obj.threadObjects()[1]
		ended := waiting(t, reg, obj.ref.ThreadEndpoint(1), 0x00AB_0000_0000_0007,
			func() int { return worker.BlockStats().Pending })
		go obj.close()
		waitErr(t, ended, time.Second)
	})
	t.Run("binding", func(t *testing.T) {
		reg := newReg()
		obj := startObject(t, reg, 2, true, diffusionOps)
		defer obj.close()
		b, w, err := bindPlain(context.Background(), reg, MultiPort, "inproc:*", obj.ref)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		ended := waiting(t, reg, b.recvEP, b.oc.NewInvocationID()+1,
			func() int { return b.BlockStats().Pending })
		go b.Close()
		waitErr(t, ended, time.Second)
	})
}

// TestOverlappingInvocationsKeepTheirWindows: a multi-port binding with
// two invocations in flight — InvokeAsync twice before either Wait —
// arms one window per epoch for the argument it returns, so each
// invocation's out-puts land in its own sequence and neither skims the
// other's, whichever is waited on first. Fails when an argument keeps
// a single window per binding.
func TestOverlappingInvocationsKeepTheirWindows(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 3, true, diffusionOps)
	defer obj.close()
	for _, firstWaited := range []int{0, 1} {
		runClient(t, reg, 2, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
			var seqs [2]*dseq.Doubles
			var ps [2]*Pending
			for k := range ps {
				seq, err := dseq.NewDoubles(600, dist.Block(), th.Size(), th.Rank())
				if err != nil {
					return err
				}
				for i := range seq.LocalData() {
					seq.LocalData()[i] = float64(seq.Lo() + i)
				}
				steps := int32(k + 1)
				if ps[k], err = b.InvokeAsync(context.Background(), &CallSpec{
					Operation: "diffusion",
					Scalars:   func(e *cdr.Encoder) { e.PutLong(steps) },
					Args:      []DistArg{{Mode: InOut, Seq: seq}},
				}); err != nil {
					return err
				}
				seqs[k] = seq
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for _, k := range []int{firstWaited, 1 - firstWaited} {
				if err := ps[k].Wait(ctx); err != nil {
					return err
				}
			}
			for k, seq := range seqs {
				for i, v := range seq.LocalData() {
					if want := float64(seq.Lo()+i) * float64(int(1)<<(k+1)); v != want {
						return fmt.Errorf("thread %d invocation %d: [%d] = %v, want %v", th.Rank(), k, i, v, want)
					}
				}
			}
			if st := b.BlockStats(); st.Windows != 0 || st.Pending != 0 {
				return fmt.Errorf("thread %d: %+v after both waits", th.Rank(), st)
			}
			return nil
		})
	}
	if err := obj.noLeak(noLeak); err != nil {
		t.Fatal(err)
	}
}

// TestFaultCrossedInvocationsRefusedOutOfOrder: two invocations of one
// multi-port binding whose requests cross — the later one, k+1, reaches
// the communicator and is passed (here shed, its deadline gone) before
// k. Every rank has ended epoch k+1, so k's puts are skimmed; the
// communicator refuses k with BAD_INV_ORDER within a second instead of
// dispatching it to wait out its client's lease, and the binding's next
// invocation succeeds. Fails when the communicator dispatches a
// binding's epochs in whatever order they arrive.
func TestFaultCrossedInvocationsRefusedOutOfOrder(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 2, true, diffusionOps)
	defer obj.close()
	runClient(t, reg, 2, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		const length = 1000
		seq, err := dseq.NewDoubles(length, dist.Block(), th.Size(), th.Rank())
		if err != nil {
			return err
		}
		var inv uint64
		if th.Rank() == 0 {
			inv = b.oc.NewInvocationID()
			b.oc.NewInvocationID() // k+1
		}
		invs, err := th.AllgatherU64(inv)
		if err != nil {
			return err
		}
		inv = invs[0]
		request := func(inv, deadline uint64) (string, error) {
			w := &invocationWire{Method: MultiPort, Scalars: []byte{byte(cdr.BigEndian)},
				Args: []*argWire{{Mode: InOut, Length: length, ClientCounts: seq.Layout().Counts(),
					ClientEndpoints: b.allEndpoints}}}
			rh, order, body, err := b.oc.Invoke(context.Background(), b.ref.Endpoints[0], giop.RequestHeader{
				InvocationID: inv, ResponseExpected: true, ObjectKey: b.ref.Key,
				Operation: "diffusion", ThreadCount: int32(th.Size()), DeadlineMicros: deadline,
			}, w.encode)
			if err != nil || rh.Status != giop.ReplySystemException {
				return "", err
			}
			ex, err := giop.DecodeSystemException(cdr.NewDecoder(order, body))
			if err != nil {
				return "", err
			}
			return ex.Code, nil
		}
		if th.Rank() == 0 {
			if _, err := request(inv+1, 1); !errors.Is(err, orb.ErrDeadlineExpired) {
				return fmt.Errorf("invocation k+1: want a TIMEOUT, got %v", err)
			}
		}
		if err := th.Barrier(); err != nil {
			return err
		}
		server, err := dist.Block().Apply(length, obj.ref.Threads)
		if err != nil {
			return err
		}
		plan, err := dist.Plan(seq.Layout(), server)
		if err != nil {
			return err
		}
		puts, err := chunkPuts(plan, th.Rank(), xferChunkElems)
		if err != nil {
			return err
		}
		// Over inproc a put's write returns only once the server reads it.
		if err := b.sendBlocks(inv, 0, &planMemo{puts: puts}, seq); err != nil {
			return fmt.Errorf("thread %d: puts of invocation k: %v", th.Rank(), err)
		}
		if th.Rank() == 0 {
			replied := make(chan error, 1)
			go func() {
				code, err := request(inv, 0)
				if err == nil && code != "BAD_INV_ORDER" {
					err = fmt.Errorf("invocation k: want BAD_INV_ORDER, got %q", code)
				}
				replied <- err
			}()
			select {
			case err := <-replied:
				if err != nil {
					return err
				}
			case <-time.After(time.Second):
				return errors.New("invocation k, passed after k+1, was not refused within 1 s")
			}
		}
		start := time.Now()
		if err := invokeAsyncDiffusion(context.Background(), b, th, length); err != nil {
			return err
		}
		if took := time.Since(start); took > time.Second {
			return fmt.Errorf("thread %d: the next invocation took %v", th.Rank(), took)
		}
		return nil
	})
	if err := obj.noLeak(noLeak); err != nil {
		t.Fatal(err)
	}
}
