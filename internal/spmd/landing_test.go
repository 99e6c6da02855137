package spmd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/mp"
	"pardis/internal/orb"
	"pardis/internal/rts"
	"pardis/internal/transport"
)

// landingN is an element count whose centralized request is larger
// than the connection's read buffer, so it is parked and may land.
const landingN = giop.DefaultReadBufSize/8 + 1000

// invokeRaw sends one request from a bare ORB client to the object's
// communicator and returns the reply header and a decoder past it.
func invokeRaw(ctx context.Context, cli *orb.Client, ref *ior.Ref, op string, body func(*cdr.Encoder)) (giop.ReplyHeader, *cdr.Decoder, error) {
	rh, order, raw, err := cli.Invoke(ctx, ref.Endpoints[0], giop.RequestHeader{
		InvocationID:     cli.NewInvocationID(),
		ResponseExpected: true,
		ObjectKey:        ref.Key,
		Operation:        op,
		ThreadCount:      1,
	}, body)
	return rh, cdr.NewDecoderAt(order, raw, 8), err
}

// checkDiffusion checks a diffusion reply of steps steps over the ramp
// of n elements: every element i doubled steps times.
func checkDiffusion(rh giop.ReplyHeader, d *cdr.Decoder, err error, n int, steps int32) error {
	if err != nil {
		return err
	}
	if rh.Status != giop.ReplyOK {
		ex, _ := giop.DecodeSystemException(d)
		return fmt.Errorf("status %v %+v", rh.Status, ex)
	}
	if _, err := d.Encapsulation(); err != nil {
		return err
	}
	if k, err := d.ULong(); err != nil || k != 1 {
		return fmt.Errorf("out-argument count %d (%v)", k, err)
	}
	out, err := d.DoubleSeq()
	if err != nil || len(out) != n {
		return fmt.Errorf("out argument: %d of %d elements (%v)", len(out), n, err)
	}
	for i, v := range out {
		if want := float64(i) * float64(int64(1)<<steps); v != want {
			return fmt.Errorf("out[%d] = %v, want %v", i, v, want)
		}
	}
	return nil
}

// slowOps adds to diffusionOps the operation "slow", which holds the
// collective in its handler — phase 2 of the dispatch — until release
// is closed, reporting on entered each time it gets there.
func slowOps(entered chan<- struct{}, release <-chan struct{}) func(rts.Thread) map[string]*Op {
	return func(th rts.Thread) map[string]*Op {
		ops := withPair(diffusionOps(th))
		ops["slow"] = &Op{Spec: ops["diffusion"].Spec, Handler: func(*Call) error {
			if th.Rank() == 0 {
				entered <- struct{}{}
			}
			<-release
			return nil
		}}
		return ops
	}
}

// awaitQueued waits until the communicator has n requests queued.
func awaitQueued(t *testing.T, o *Object, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(o.queue) != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued, want %d", len(o.queue), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitWindows waits until o has n windows registered.
func awaitWindows(t *testing.T, o *Object, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for o.BlockStats().Windows != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d windows registered, want %d", o.BlockStats().Windows, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCentralizedRequestLandingPaths: a large centralized request lands
// straight into the threads' blocks whatever is ahead of it — nothing,
// a queued request, or a multi-port dispatch stuck in phase 1 waiting
// for puts, which ride connections of their own — and so does a request
// with two inline arguments. Every one returns the right elements.
func TestCentralizedRequestLandingPaths(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	reg := newReg()
	obj := startObject(t, reg, 2, true, slowOps(entered, release))
	defer obj.close()
	comm := obj.threadObjects()[0]
	cli := orb.NewClient(reg)
	defer cli.Close()
	bg := context.Background()

	t.Run("nothing ahead", func(t *testing.T) {
		g0 := comm.readWhole.Load()
		rh, d, err := invokeRaw(bg, cli, obj.ref, "diffusion", legacyInvocation(1, InOut, landingN, ramp(landingN)))
		if err := checkDiffusion(rh, d, err, landingN, 1); err != nil {
			t.Fatal(err)
		}
		if g := comm.readWhole.Load() - g0; g != 0 {
			t.Fatalf("a request with nothing ahead was read whole %d times; want it landed", g)
		}
	})

	t.Run("behind a queued request", func(t *testing.T) {
		slow := make(chan error, 1)
		go func() {
			rh, _, err := invokeRaw(bg, cli, obj.ref, "slow", legacyInvocation(1, InOut, 8, ramp(8)))
			if err == nil && rh.Status != giop.ReplyOK {
				err = fmt.Errorf("status %v", rh.Status)
			}
			slow <- err
		}()
		<-entered
		g0 := comm.readWhole.Load()
		queued := make(chan error, 1)
		go func() {
			rh, d, err := invokeRaw(bg, cli, obj.ref, "diffusion", legacyInvocation(2, InOut, 8, ramp(8)))
			queued <- checkDiffusion(rh, d, err, 8, 2)
		}()
		awaitQueued(t, comm, 1)
		late := make(chan error, 1)
		go func() {
			rh, d, err := invokeRaw(bg, cli, obj.ref, "diffusion", legacyInvocation(1, InOut, landingN, ramp(landingN)))
			late <- checkDiffusion(rh, d, err, landingN, 1)
		}()
		awaitQueued(t, comm, 2)
		close(release)
		for _, ch := range []chan error{slow, queued, late} {
			if err := <-ch; err != nil {
				t.Fatal(err)
			}
		}
		if g := comm.readWhole.Load() - g0; g != 0 {
			t.Fatalf("requests queued behind another were read whole %d times; want them landed", g)
		}
	})

	t.Run("behind a multi-port dispatch stuck in phase 1", func(t *testing.T) {
		// A multi-port in-argument whose puts never come holds every rank
		// in phase 1 until the request's deadline ends the wait.
		stuck := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(bg, 500*time.Millisecond)
			defer cancel()
			_, _, err := invokeRaw(ctx, cli, obj.ref, "diffusion", func(e *cdr.Encoder) {
				(&invocationWire{Method: MultiPort, Args: []*argWire{{
					Mode: InOut, Length: 64, ClientCounts: []int{64},
				}}}).encode(e)
			})
			stuck <- err
		}()
		awaitWindows(t, comm, 1)
		g0 := comm.readWhole.Load()
		other := orb.NewClient(reg) // a connection of its own
		defer other.Close()
		rh, d, err := invokeRaw(bg, other, obj.ref, "diffusion", legacyInvocation(3, InOut, landingN, ramp(landingN)))
		if err := checkDiffusion(rh, d, err, landingN, 3); err != nil {
			t.Fatal(err)
		}
		if g := comm.readWhole.Load() - g0; g != 0 {
			t.Fatalf("a request arriving during phase 1 was read whole %d times; want it landed", g)
		}
		if err := <-stuck; err == nil {
			t.Fatal("the multi-port request whose puts never came succeeded")
		}
	})

	t.Run("two arguments", func(t *testing.T) {
		g0 := comm.readWhole.Load()
		rh, d, err := invokeRaw(bg, cli, obj.ref, "pair", pairInvocation(landingN, ramp(landingN), ramp(landingN)))
		if err != nil || rh.Status != giop.ReplyOK {
			t.Fatalf("pair: %v %v", rh.Status, err)
		}
		if _, err := d.Encapsulation(); err != nil {
			t.Fatal(err)
		}
		if k, err := d.ULong(); err != nil || k != 1 {
			t.Fatalf("out-argument count %d (%v)", k, err)
		}
		out, err := d.DoubleSeq()
		if err != nil || len(out) != landingN {
			t.Fatalf("out argument: %d elements (%v)", len(out), err)
		}
		for i, v := range out {
			if v != float64(2*i) {
				t.Fatalf("out[%d] = %v, want %v", i, v, 2*i)
			}
		}
		if g := comm.readWhole.Load() - g0; g != 0 {
			t.Fatalf("a two-argument request was read whole %d times; want it landed", g)
		}
	})
}

// TestCentralizedLandingParkedBehindSlowHandler: a large request that
// arrives while the collective runs a slow handler is parked — its
// connection reads nothing more until it lands — and a second request
// written on the same connection behind it completes once it has.
func TestCentralizedLandingParkedBehindSlowHandler(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	reg := newReg()
	obj := startObject(t, reg, 2, false, slowOps(entered, release))
	defer obj.close()
	comm := obj.threadObjects()[0]
	cli := orb.NewClient(reg, orb.WithStripes(1))
	defer cli.Close()
	bg := context.Background()

	slow := make(chan error, 1)
	go func() {
		_, _, err := invokeRaw(bg, cli, obj.ref, "slow", legacyInvocation(1, InOut, 8, ramp(8)))
		slow <- err
	}()
	<-entered
	g0 := comm.readWhole.Load()
	parked := make(chan error, 1)
	go func() {
		rh, d, err := invokeRaw(bg, cli, obj.ref, "diffusion", legacyInvocation(1, InOut, landingN, ramp(landingN)))
		parked <- checkDiffusion(rh, d, err, landingN, 1)
	}()
	awaitQueued(t, comm, 1)
	if g := comm.readWhole.Load() - g0; g != 0 {
		t.Fatalf("the parked request was read whole %d times; want it queued to land", g)
	}
	second := make(chan error, 1)
	go func() {
		rh, d, err := invokeRaw(bg, cli, obj.ref, "diffusion", legacyInvocation(2, InOut, 16, ramp(16)))
		second <- checkDiffusion(rh, d, err, 16, 2)
	}()
	select {
	case err := <-second:
		t.Fatalf("the second request completed (%v) while the connection was parked", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	for _, ch := range []chan error{slow, parked, second} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("an invocation on the parked connection never completed")
		}
	}
}

// TestCallerBehindTwoParkedRequests: two large requests, on two
// connections, wait parked in the queue behind a slow handler, and a
// third caller shares the first one's connection, the client's only
// stripe member. Its request waits behind the parked one on that
// connection, and completes once the queue ahead of it has drained;
// every request lands.
func TestCallerBehindTwoParkedRequests(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	reg := newReg()
	obj := startObject(t, reg, 2, false, slowOps(entered, release))
	defer obj.close()
	comm := obj.threadObjects()[0]
	holder, one, two := orb.NewClient(reg), orb.NewClient(reg, orb.WithStripes(1)), orb.NewClient(reg)
	for _, c := range []*orb.Client{holder, one, two} {
		defer c.Close()
	}
	bg := context.Background()

	slow := make(chan error, 1)
	go func() {
		_, _, err := invokeRaw(bg, holder, obj.ref, "slow", legacyInvocation(1, InOut, 8, ramp(8)))
		slow <- err
	}()
	<-entered
	g0 := comm.readWhole.Load()
	parked := make(chan error, 2)
	for i, cli := range []*orb.Client{one, two} {
		go func() {
			rh, d, err := invokeRaw(bg, cli, obj.ref, "diffusion", legacyInvocation(1, InOut, landingN, ramp(landingN)))
			parked <- checkDiffusion(rh, d, err, landingN, 1)
		}()
		awaitQueued(t, comm, i+1)
	}
	third := make(chan error, 1)
	go func() {
		rh, d, err := invokeRaw(bg, one, obj.ref, "diffusion", legacyInvocation(2, InOut, 16, ramp(16)))
		third <- checkDiffusion(rh, d, err, 16, 2)
	}()
	select {
	case err := <-third:
		t.Fatalf("the third request completed (%v) while its connection was parked", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	for _, ch := range []chan error{slow, parked, parked, third} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("an invocation behind the parked requests never completed")
		}
	}
	if g := comm.readWhole.Load() - g0; g != 0 {
		t.Fatalf("%d requests read whole; want every one landed", g)
	}
}

// TestFaultMultiPortCutWhileQueued: a multi-port request whose
// connection is torn while it waits parked in the queue cannot be read
// when the communicator pops it. The communicator refuses it, so every
// rank retires the invocation: a put for it waiting on a worker rank is
// skimmed within a second, and the object serves on.
func TestFaultMultiPortCutWhileQueued(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	reg := newReg()
	obj := startObject(t, reg, 2, true, slowOps(entered, release))
	defer obj.close()
	comm, worker := obj.threadObjects()[0], obj.threadObjects()[1]
	holder, cut, puts := orb.NewClient(reg), orb.NewClient(reg), orb.NewClient(reg)
	for _, c := range []*orb.Client{holder, cut, puts} {
		defer c.Close()
	}
	bg := context.Background()

	slow := make(chan error, 1)
	go func() {
		_, _, err := invokeRaw(bg, holder, obj.ref, "slow", legacyInvocation(1, InOut, 8, ramp(8)))
		slow <- err
	}()
	<-entered
	// A request larger than the read buffer: the client is still writing
	// its tail while it waits parked, and a cancel then tears the frame.
	inv := cut.NewInvocationID()
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	torn := make(chan error, 1)
	go func() {
		_, _, _, err := cut.Invoke(ctx, obj.ref.Endpoints[0], giop.RequestHeader{
			InvocationID: inv, ResponseExpected: true, ObjectKey: obj.ref.Key,
			Operation: "diffusion", ThreadCount: 1,
		}, func(e *cdr.Encoder) {
			(&invocationWire{Method: MultiPort, Scalars: []byte{byte(cdr.BigEndian)}, Args: []*argWire{{
				Mode: InOut, Length: 64, ClientCounts: []int{64},
			}}}).encode(e)
			e.PutOctets(make([]byte, giop.DefaultReadBufSize+1000))
		})
		torn <- err
	}()
	awaitQueued(t, comm, 1)
	cancel()
	if err := waitErr(t, torn, 5*time.Second); !errors.Is(err, orb.ErrCanceled) {
		t.Fatalf("the torn request: %v, want ErrCanceled", err)
	}

	key, err := giop.BlockSinkKey(inv, 0)
	if err != nil {
		t.Fatal(err)
	}
	put := make(chan error, 1)
	go func() {
		_, err := puts.PutWindow(obj.ref.ThreadEndpoint(1), giop.WindowPutHeader{WindowID: key, Last: true}, ramp(32))
		put <- err
	}()
	for worker.BlockStats().Pending != 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := waitErr(t, slow, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, put, time.Second); err != nil {
		t.Fatal(err)
	}
	if st := worker.BlockStats(); st.Pending != 0 || st.Windows != 0 {
		t.Fatalf("worker rank after the refusal: %+v", st)
	}
	rh, d, err := invokeRaw(bg, holder, obj.ref, "diffusion", legacyInvocation(1, InOut, 8, ramp(8)))
	if err := checkDiffusion(rh, d, err, 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := obj.noLeak(noLeak); err != nil {
		t.Fatal(err)
	}
}

// TestCentralizedCancelBehindParkedLanding: an invocation whose reply
// is pending on a connection that a parked landing holds mid-write —
// the landing waits for that very invocation's slow handler — still
// returns when its deadline passes: its cancel frame is skipped rather
// than queued behind the parked write. The landing completes once the
// handler is released.
func TestCentralizedCancelBehindParkedLanding(t *testing.T) {
	const n = 1 << 20 // more than the connection buffers, so the write stalls
	entered, release := make(chan struct{}, 1), make(chan struct{})
	reg := newReg()
	obj := startObject(t, reg, 2, false, slowOps(entered, release))
	defer obj.close()
	comm := obj.threadObjects()[0]
	cli := orb.NewClient(reg, orb.WithStripes(1))
	defer cli.Close()
	bg := context.Background()

	slow := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(bg, 200*time.Millisecond)
		defer cancel()
		_, _, err := invokeRaw(ctx, cli, obj.ref, "slow", legacyInvocation(1, InOut, 8, ramp(8)))
		slow <- err
	}()
	<-entered
	parked := make(chan error, 1)
	go func() {
		rh, d, err := invokeRaw(bg, cli, obj.ref, "diffusion", legacyInvocation(1, InOut, n, ramp(n)))
		parked <- checkDiffusion(rh, d, err, n, 1)
	}()
	awaitQueued(t, comm, 1)
	select {
	case err := <-slow:
		if !errors.Is(err, orb.ErrCanceled) {
			t.Fatalf("the slow invocation returned %v; want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("the slow invocation outlived its deadline behind the parked write")
	}
	select {
	case err := <-parked:
		t.Fatalf("the parked request completed (%v) before its handler was released", err)
	default:
	}
	close(release)
	select {
	case err := <-parked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the parked request never completed")
	}
}

// goroutinesSettle waits until no more goroutines run than before.
func goroutinesSettle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCentralizedLandingParkedAtClose: closing the object — with
// Object.Close, or with its communicator port's Server.Shutdown —
// while a landing is parked in the queue behind a slow handler returns,
// fails the parked request, and leaves no goroutine behind.
func TestCentralizedLandingParkedAtClose(t *testing.T) {
	for _, how := range []string{"Object.Close", "Server.Shutdown"} {
		t.Run(how, func(t *testing.T) {
			before := runtime.NumGoroutine()
			entered, release := make(chan struct{}, 1), make(chan struct{})
			reg := newReg()
			obj := startObject(t, reg, 2, false, slowOps(entered, release))
			comm := obj.threadObjects()[0]
			cli := orb.NewClient(reg)
			bg := context.Background()
			slow := make(chan error, 1)
			go func() {
				_, _, err := invokeRaw(bg, cli, obj.ref, "slow", legacyInvocation(1, InOut, 8, ramp(8)))
				slow <- err
			}()
			<-entered
			parked := make(chan error, 1)
			go func() {
				_, _, err := invokeRaw(bg, cli, obj.ref, "diffusion", legacyInvocation(1, InOut, landingN, ramp(landingN)))
				parked <- err
			}()
			awaitQueued(t, comm, 1)

			closed := make(chan struct{})
			go func() {
				defer close(closed)
				if how == "Server.Shutdown" {
					ctx, cancel := context.WithTimeout(bg, 5*time.Second)
					defer cancel()
					_ = comm.srv.Shutdown(ctx)
				}
				obj.close()
			}()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s is stuck behind a parked request", how)
			}
			if err := <-parked; err == nil {
				t.Fatal("the parked request succeeded on a closed object")
			}
			close(release)
			<-slow
			cli.Close()
			for range 2 {
				<-obj.donech
			}
			goroutinesSettle(t, before)
		})
	}
}

// TestFaultCentralizedRequestCutMidLanding cuts the client's connection
// half-way through the elements of a request that the communicator is
// landing in its threads' blocks. Every rank's dispatch fails phase 1
// together — none is stranded in a collective — and forgets its
// argument blocks. The request was written but no reply was framed, so
// the client retries it (DESIGN.md §8's safe-to-retry window) on a new
// connection, where it lands whole, and the next invocation returns the
// right elements too.
func TestFaultCentralizedRequestCutMidLanding(t *testing.T) {
	const n = 1 << 17 // a 1 MiB request
	inproc := transport.NewInproc()
	okReg := transport.NewRegistry()
	okReg.Register(inproc)
	cut := transport.NewFaulty(inproc, transport.FaultPlan{Seed: 7, Cut: 1, CutAfter: 512 << 10, Truncate: 1})
	cutReg := transport.NewRegistry()
	cutReg.Register(cutDialTransport{listen: inproc, dial: cut})

	obj := startObject(t, okReg, 3, false, diffusionOps)
	defer obj.close()
	err := mp.Run(2, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		b, err := Bind(context.Background(), BindConfig{Thread: th, Registry: cutReg, Method: Centralized}, obj.ref)
		if err != nil {
			return err
		}
		defer b.Close()
		// Bound: the doomed connection is open. Whatever is dialed from
		// now on — the retry — is healthy.
		if th.Rank() == 0 {
			cut.SetPlan(transport.FaultPlan{})
		}
		if err := th.Barrier(); err != nil {
			return err
		}
		if err := invokeDiffusion(b, th, n, 1); err != nil {
			return fmt.Errorf("rank %d: invocation cut mid-landing: %w", th.Rank(), err)
		}
		if err := invokeDiffusion(b, th, n, 2); err != nil {
			return fmt.Errorf("rank %d: next invocation: %w", th.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := cut.Stats(); st.CutConns != 1 || st.Dials != 2 {
		t.Fatalf("want one cut connection and one redial, got %+v", st)
	}
	for rank, o := range obj.threadObjects() {
		if st := o.Stats(); st.Failed != 1 || st.Served != 3 {
			t.Fatalf("rank %d: %+v, want the torn dispatch failed and the retry and the next one served", rank, st)
		}
	}
	if err := obj.noLeak(noLeak); err != nil {
		t.Fatal(err)
	}
}
