package orb

import (
	"bytes"
	"context"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/transport"
)

// newAdmissionServer starts a server with the given admission caps and
// a "work" handler that parks for each received request until the
// returned release channel is closed (or replies after holdFor when
// the channel is nil).
func newAdmissionServer(t *testing.T, cfg AdmissionConfig, holdFor time.Duration) (*Server, string, *transport.Registry) {
	t.Helper()
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg, WithAdmission(cfg))
	srv.Handle("work", func(in *Incoming) {
		if holdFor > 0 {
			time.Sleep(holdFor)
		}
		_ = in.Reply(giop.ReplyOK, nil)
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, ep, reg
}

// TestAdmissionCapsConcurrency: with MaxConcurrent = 2 and a deep
// queue, a 16-way client burst completes fully while the server never
// runs more than two handlers at once.
func TestAdmissionCapsConcurrency(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg, WithAdmission(AdmissionConfig{
		MaxConcurrent: 2, MaxQueue: 64, MaxWait: 10 * time.Second}))
	var cur, peak atomic.Int64
	srv.Handle("work", func(in *Incoming) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		_ = in.Reply(giop.ReplyOK, nil)
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(reg)
	defer cli.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := cli.Invoke(context.Background(), ep,
				requestHeader(cli, "work", "op"), nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("handler concurrency peaked at %d, cap 2", p)
	}
	st := srv.AdmissionStats()
	if st.Queued != 0 {
		t.Fatalf("queue did not drain: %+v", st)
	}
}

// TestAdmissionQueueFullShedsTransient: a request beyond both the
// concurrency cap and the queue bound is shed immediately with a
// TRANSIENT verdict (mapped to the retryable ErrTransient), and the
// requests already admitted or queued still complete.
func TestAdmissionQueueFullShedsTransient(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg, WithAdmission(AdmissionConfig{
		MaxConcurrent: 1, MaxQueue: 1, MaxWait: 30 * time.Second}))
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	srv.Handle("work", func(in *Incoming) {
		started <- struct{}{}
		<-release
		_ = in.Reply(giop.ReplyOK, nil)
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(reg)
	defer cli.Close()

	errs := make(chan error, 2)
	invoke := func() {
		_, _, _, err := cli.Invoke(context.Background(), ep,
			requestHeader(cli, "work", "op"), nil)
		errs <- err
	}
	go invoke() // occupies the slot
	<-started
	go invoke() // occupies the queue
	deadline := time.Now().Add(5 * time.Second)
	for srv.AdmissionStats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if !srv.AdmissionSaturated() {
		t.Fatal("AdmissionSaturated() = false with the queue at its bound")
	}

	// The third request finds slot and queue full: immediate shed.
	_, _, _, err = cli.Invoke(context.Background(), ep,
		requestHeader(cli, "work", "op"), nil)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("over-capacity request: want ErrTransient, got %v", err)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("admitted request %d failed: %v", i, err)
		}
	}
	if st := srv.AdmissionStats(); st.Queued != 0 {
		t.Fatalf("queue did not drain: %+v", st)
	}
}

// TestCancelRequestCancelsInflightHandler is the cancellation e2e
// regression: a client-side context cancel must reach the running
// handler as Incoming.Ctx cancellation (via MsgCancelRequest), with
// context.Canceled as the cause.
func TestCancelRequestCancelsInflightHandler(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	started := make(chan struct{})
	observed := make(chan error, 1)
	srv.Handle("hang", func(in *Incoming) {
		close(started)
		<-in.Ctx.Done()
		observed <- in.Ctx.Err()
		_ = in.Reply(giop.ReplyOK, nil)
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(reg)
	defer cli.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := cli.Invoke(ctx, ep, requestHeader(cli, "hang", "op"), nil)
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, ErrCanceled) {
		t.Fatalf("invoke after cancel: want ErrCanceled, got %v", err)
	}
	select {
	case err := <-observed:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("handler context ended with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler never observed the cancellation")
	}
}

// TestCancelRequestCancelsQueuedRequest: MsgCancelRequest must reach a
// request still waiting in the admission queue — it leaves the queue
// silently and its handler never runs.
func TestCancelRequestCancelsQueuedRequest(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg, WithAdmission(AdmissionConfig{
		MaxConcurrent: 1, MaxQueue: 4, MaxWait: 30 * time.Second}))
	release := make(chan struct{})
	var handlerRuns atomic.Int64
	srv.Handle("work", func(in *Incoming) {
		handlerRuns.Add(1)
		<-release
		_ = in.Reply(giop.ReplyOK, nil)
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(reg)
	defer cli.Close()

	first := make(chan error, 1)
	go func() {
		_, _, _, err := cli.Invoke(context.Background(), ep,
			requestHeader(cli, "work", "op"), nil)
		first <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for handlerRuns.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never started")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	second := make(chan error, 1)
	go func() {
		_, _, _, err := cli.Invoke(ctx, ep, requestHeader(cli, "work", "op"), nil)
		second <- err
	}()
	for srv.AdmissionStats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-second; !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled queued invoke: want ErrCanceled, got %v", err)
	}
	for srv.AdmissionStats().Queued != 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled request never left the queue")
		}
		time.Sleep(time.Millisecond)
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first request failed: %v", err)
	}
	// The canceled request's handler must never have run.
	if n := handlerRuns.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1 (canceled request dispatched)", n)
	}
}

// TestOldPeerInteropLiveServer: a live admission-controlled server
// refuses a raw peer framing its request at minor version 0 (a 1.0
// header, no trace or deadline bytes after ThreadCount) by closing
// that connection without running the handler, and keeps answering
// the next connection.
func TestOldPeerInteropLiveServer(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg, WithAdmission(DefaultAdmissionConfig()))
	var runs atomic.Int64
	srv.Handle("echo", func(in *Incoming) {
		runs.Add(1)
		_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutString("pong") })
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw, err := reg.Dial(ep)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	e := cdr.NewEncoder(cdr.BigEndian)
	e.PutULong(7)
	e.PutULongLong(42)
	e.PutBoolean(true)
	e.PutString("echo")
	e.PutString("op")
	e.PutLong(-1)
	e.PutLong(1)
	e.PutString("ping")
	var buf bytes.Buffer
	if err := giop.WriteMessage(&buf, cdr.BigEndian, giop.MsgRequest, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	frame[5] = 0 // a 1.0 peer stamps minor version 0
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if mt, _, _, err := giop.ReadMessage(raw); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("1.0 request: got %v, %v; want the connection closed", mt, err)
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("handler ran %d times for a 1.0 request", n)
	}

	cli := NewClient(reg)
	defer cli.Close()
	rh, order, body, err := cli.Invoke(context.Background(), ep, requestHeader(cli, "echo", "op"), nil)
	if err != nil || rh.Status != giop.ReplyOK {
		t.Fatalf("next connection: %+v, %v", rh, err)
	}
	if s, err := cdr.NewDecoder(order, body).String(); err != nil || s != "pong" {
		t.Fatalf("reply body = %q, %v", s, err)
	}
}

// TestFaultAdmissionSaturatingBurst is the overload acceptance
// scenario: a saturating burst of short-deadline requests against a
// tightly capped server may only end in timeout/transient-class
// verdicts (never a deadlock, never queue growth beyond the bound),
// while concurrent long-deadline requests with retry all complete.
func TestFaultAdmissionSaturatingBurst(t *testing.T) {
	srv, ep, reg := newAdmissionServer(t, AdmissionConfig{
		MaxConcurrent: 2, MaxPerConn: 2, MaxQueue: 4, MaxWait: 50 * time.Millisecond,
	}, 2*time.Millisecond)

	var wg sync.WaitGroup
	var ok, shed atomic.Int64
	unexpected := make(chan error, 80)

	// Short-deadline population: 4 clients x 10 requests, 1-5ms
	// budgets, no retries. Each must finish fast with a clean verdict.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli := NewClient(reg)
			defer cli.Close()
			for i := 0; i < 10; i++ {
				d := time.Duration(1+(c+i)%5) * time.Millisecond
				ctx, cancel := context.WithTimeout(context.Background(), d)
				_, _, _, err := cli.Invoke(ctx, ep, requestHeader(cli, "work", "op"), nil)
				cancel()
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrTransient),
					errors.Is(err, ErrDeadlineExpired),
					// The client's own timer can win the race against the
					// server's shed reply; that local loss surfaces as
					// ErrCanceled wrapping the context error.
					errors.Is(err, ErrCanceled),
					errors.Is(err, context.DeadlineExceeded):
					shed.Add(1)
				default:
					unexpected <- err
				}
			}
		}(c)
	}

	// Long-deadline population: generous budget and retry — every one
	// must complete despite the burst.
	var longFailed atomic.Int64
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := NewClient(reg, WithRetryPolicy(RetryPolicy{
				MaxAttempts: 100, BaseBackoff: time.Millisecond,
				MaxBackoff: 5 * time.Millisecond, Multiplier: 2}))
			defer cli.Close()
			for i := 0; i < 10; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				_, _, _, err := cli.Invoke(ctx, ep, requestHeader(cli, "work", "op"), nil)
				cancel()
				if err != nil {
					longFailed.Add(1)
					unexpected <- err
				}
			}
		}()
	}
	wg.Wait()
	close(unexpected)
	for err := range unexpected {
		t.Errorf("verdict outside the overload contract: %v", err)
	}
	if n := longFailed.Load(); n != 0 {
		t.Fatalf("%d long-deadline requests failed under the burst", n)
	}
	t.Logf("short population: %d completed, %d shed/expired", ok.Load(), shed.Load())

	// The gate must drain completely — no slot or ticket leaks.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.AdmissionStats()
		if st.Queued == 0 && st.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission gate did not drain: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}
