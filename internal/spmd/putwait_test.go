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
// while its puts wait on every rank for windows that will not register.
// The shed retires the invocation on every rank, so the puts are
// skimmed: the invocation returns within a second of the shed, not when
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
// multi-port dispatch before it registers the second argument's window
// (a window already registered under the first argument's key makes its
// registration fail there alone). It retires the invocation, so the
// client's puts for the second argument are skimmed rather than stalling
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
		// Server rank 1 already holds a window under the first argument's
		// key of the next invocation, whose id the binding's client
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
// collective, while its client threads' puts wait on every rank for
// windows that will not register. The ORB leaves the shed to the
// communicator, which retires the invocation on every rank: the puts
// are skimmed within a second, and the binding's next invocation, whose
// puts ride the same connections, succeeds within a second.
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
		if err := b.sendBlocks(inv, 0, plan, seq); err != nil {
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

// TestRefusalRetiresOnlyMultiPort: a request the communicator refuses
// retires its invocation on every rank when it travels multi-port, so a
// put for it is skimmed; a centralized one ships no puts, and its
// refusal retires nothing: a put that names it waits for its window.
func TestRefusalRetiresOnlyMultiPort(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 2, true, diffusionOps)
	defer obj.close()
	cli := orb.NewClient(reg)
	defer cli.Close()
	refuse := func(body func(*cdr.Encoder)) uint64 {
		t.Helper()
		inv := cli.NewInvocationID()
		rh, _, _, err := cli.Invoke(context.Background(), obj.ref.Endpoints[0], giop.RequestHeader{
			InvocationID: inv, ResponseExpected: true,
			ObjectKey: obj.ref.Key, Operation: "nosuch", ThreadCount: 1,
		}, body)
		if err != nil || rh.Status != giop.ReplySystemException {
			t.Fatalf("%v %v, want a refusal", rh.Status, err)
		}
		return inv
	}
	central := refuse(legacyInvocation(1, InOut, 8, ramp(8)))
	multi := refuse((&invocationWire{Method: MultiPort, Scalars: []byte{byte(cdr.BigEndian)},
		Args: []*argWire{{Mode: In, Length: 8, ClientCounts: []int{8}}}}).encode)

	worker := obj.threadObjects()[1]
	put := func(inv uint64) (uint64, chan error) {
		key, err := giop.BlockSinkKey(inv, 0)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := cli.PutWindow(obj.ref.ThreadEndpoint(1), giop.WindowPutHeader{WindowID: key, Last: true}, ramp(8))
			done <- err
		}()
		return key, done
	}
	// The worker applies control broadcasts in order: once the put for
	// the multi-port refusal is skimmed, it has seen the centralized one.
	if _, done := put(multi); waitErr(t, done, 5*time.Second) != nil {
		t.Fatal("the put for the refused multi-port invocation was not skimmed")
	}
	key, done := put(central)
	for worker.BlockStats().Pending != 1 {
		select {
		case <-done:
			t.Fatal("a put for the refused centralized invocation was skimmed: its refusal retired it")
		case <-time.After(time.Millisecond):
		}
	}
	dst := make([]float64, 8)
	win, cancel, err := worker.srv.RegisterWindow(key, dst, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, done, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	<-win.Done()
	cancel()
	if dst[7] != 7 {
		t.Fatalf("the waiting put landed %v", dst)
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
