// Fault-injection suite for the fault-tolerant invocation layer. All
// tests here match -run Fault so the chaos tier (`go test -run Fault
// -race ./...`, `make chaos`) exercises exactly this file plus the
// spmd fault tests.
package orb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/transport"
)

// replicaFixture is a set of identical echo servers reachable through
// one Faulty transport layer.
type replicaFixture struct {
	reg     *transport.Registry
	faulty  *transport.Faulty
	servers []*Server
	ref     *ior.Ref
}

// newReplicas starts n echo servers behind a faulty+inproc transport
// and assembles the replicated reference. Each server's reply names
// it, so tests can observe which replica answered.
func newReplicas(t *testing.T, n int, plan transport.FaultPlan) *replicaFixture {
	t.Helper()
	reg := transport.NewRegistry()
	inner := transport.NewInproc()
	inner.DialTimeout = 2 * time.Second
	faulty := transport.NewFaulty(inner, plan)
	reg.Register(inner)
	reg.Register(faulty)

	fx := &replicaFixture{reg: reg, faulty: faulty}
	endpoints := make([]string, n)
	for i := 0; i < n; i++ {
		srv := NewServer(reg)
		id := fmt.Sprintf("replica-%d", i)
		srv.Handle("echo", func(in *Incoming) {
			s, err := in.Decoder().String()
			if err != nil {
				_ = in.ReplySystemException("MARSHAL", err.Error())
				return
			}
			_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutString(id + ":" + s) })
		})
		ep, err := srv.Listen("faulty+inproc:*")
		if err != nil {
			t.Fatal(err)
		}
		endpoints[i] = ep
		fx.servers = append(fx.servers, srv)
	}
	fx.ref = &ior.Ref{TypeID: "IDL:echo:1.0", Key: "echo", Threads: 1, Endpoints: endpoints}
	t.Cleanup(func() {
		for _, s := range fx.servers {
			s.Close()
		}
	})
	return fx
}

// TestFaultFailoverUnderConnectionCuts is the acceptance scenario:
// with the Faulty transport killing ~30% of connections mid-request,
// every idempotent invocation against a 3-endpoint replicated object
// must still complete via retry and failover.
func TestFaultFailoverUnderConnectionCuts(t *testing.T) {
	iterations := 200
	if testing.Short() {
		iterations = 40
	}
	fx := newReplicas(t, 3, transport.FaultPlan{Seed: 7, Cut: 0.3})

	// One client per invocation: the orb client pools connections per
	// endpoint, so a single long-lived client would settle onto one
	// healthy pooled connection and stop dialing — and dial time is
	// when the fault plan rolls each connection's fate. Fresh clients
	// model independent callers, each of whose connections has a 30%
	// chance of being cut mid-request. The shared seeded Faulty layer
	// keeps the whole run deterministic.
	for i := 0; i < iterations; i++ {
		cli := NewClient(fx.reg,
			WithRetryPolicy(RetryPolicy{MaxAttempts: 12, BaseBackoff: time.Millisecond,
				MaxBackoff: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.2}),
			WithDefaultDeadline(5*time.Second),
			WithBreaker(3, 20*time.Millisecond))
		msg := fmt.Sprintf("msg-%d", i)
		r, err := cli.InvokeRef(context.Background(), fx.ref,
			requestHeader(cli, "echo", "op"),
			func(e *cdr.Encoder) { e.PutString(msg) })
		if err != nil {
			cli.Close()
			t.Fatalf("invocation %d lost despite retry+failover: %v", i, err)
		}
		if r.Header.Status != giop.ReplyOK {
			cli.Close()
			t.Fatalf("invocation %d: status %v", i, r.Header.Status)
		}
		s, derr := cdr.NewDecoderAt(r.Order, r.Body, 8).String()
		cli.Close()
		if derr != nil || !strings.HasSuffix(s, ":"+msg) {
			t.Fatalf("invocation %d: reply %q, %v", i, s, derr)
		}
	}
	if s := fx.faulty.Stats(); s.CutConns == 0 {
		t.Fatalf("fault plan injected nothing (stats %+v); the test proved nothing", s)
	} else {
		t.Logf("completed %d/%d invocations; faults injected: %+v", iterations, iterations, s)
	}
}

// TestFaultDialRefusalFailover: refused dials (endpoint down) roll
// over to the other replicas.
func TestFaultDialRefusalFailover(t *testing.T) {
	fx := newReplicas(t, 3, transport.FaultPlan{Seed: 3, DialRefuse: 0.5})
	// Fresh client per invocation so every call dials (see the pooling
	// note in TestFaultFailoverUnderConnectionCuts).
	for i := 0; i < 50; i++ {
		cli := NewClient(fx.reg,
			WithRetryPolicy(RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Millisecond,
				MaxBackoff: 5 * time.Millisecond}),
			WithBreaker(2, 10*time.Millisecond))
		_, err := cli.InvokeRef(context.Background(), fx.ref,
			requestHeader(cli, "echo", "op"),
			func(e *cdr.Encoder) { e.PutString("x") })
		cli.Close()
		if err != nil {
			t.Fatalf("invocation %d: %v", i, err)
		}
	}
	if s := fx.faulty.Stats(); s.RefusedDials == 0 {
		t.Fatalf("no dials refused (stats %+v)", s)
	}
}

// TestFaultHungServerDeadline: a one-way partition (request vanishes,
// server never replies) must not block Invoke past its deadline.
func TestFaultHungServerDeadline(t *testing.T) {
	fx := newReplicas(t, 1, transport.FaultPlan{Seed: 5, Blackhole: 1})
	cli := NewClient(fx.reg, WithDefaultDeadline(150*time.Millisecond))
	defer cli.Close()
	start := time.Now()
	_, err := cli.InvokeRef(context.Background(), fx.ref,
		requestHeader(cli, "echo", "op"),
		func(e *cdr.Encoder) { e.PutString("x") })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Invoke blocked %v past its 150ms deadline", d)
	}
}

// TestFaultHungHandlerDeadline: the deadline also covers a server
// that accepted the request but never replies.
func TestFaultHungHandlerDeadline(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	srv.Handle("hang", func(in *Incoming) { <-in.Ctx.Done() })
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(reg, WithDefaultDeadline(100*time.Millisecond))
	defer cli.Close()
	start := time.Now()
	_, _, _, err = cli.Invoke(context.Background(), ep, requestHeader(cli, "hang", "op"), nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Invoke blocked %v past its 100ms deadline", d)
	}
}

// TestFaultBreakerOpensAndRecovers: consecutive failures open an
// endpoint's breaker; after the cooldown a half-open probe closes it
// again once the endpoint is back.
func TestFaultBreakerOpensAndRecovers(t *testing.T) {
	reg := transport.NewRegistry()
	inner := transport.NewInproc()
	reg.Register(inner)
	cli := NewClient(reg, WithBreaker(3, 50*time.Millisecond))
	defer cli.Close()
	ep := "inproc:replica"

	for i := 0; i < 3; i++ {
		if _, _, _, err := cli.Invoke(context.Background(), ep,
			requestHeader(cli, "echo", "op"), nil); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
	if cli.EndpointUp(ep) {
		t.Fatalf("breaker still closed after 3 consecutive failures: %+v", cli.Health())
	}

	// Bring the endpoint up and wait out the cooldown.
	srv := NewServer(reg)
	srv.Handle("echo", func(in *Incoming) { _ = in.Reply(giop.ReplyOK, nil) })
	if _, err := srv.Listen(ep); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	time.Sleep(60 * time.Millisecond)

	if _, _, _, err := cli.Invoke(context.Background(), ep,
		requestHeader(cli, "echo", "op"), nil); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if !cli.EndpointUp(ep) {
		t.Fatalf("breaker did not close after successful probe: %+v", cli.Health())
	}
}

// TestFaultGracefulShutdownDrains: Shutdown completes in-flight work,
// bounces new requests with TRANSIENT (failover fodder), and says
// goodbye with MsgCloseConnection rather than a raw reset.
func TestFaultGracefulShutdownDrains(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())

	slow := NewServer(reg)
	started := make(chan struct{})
	slow.Handle("echo", func(in *Incoming) {
		close(started)
		time.Sleep(100 * time.Millisecond)
		_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutString("drained") })
	})
	epA, err := slow.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}

	backup := NewServer(reg)
	backup.Handle("echo", func(in *Incoming) {
		_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutString("backup") })
	})
	epB, err := backup.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()

	cli := NewClient(reg, WithRetryPolicy(DefaultRetryPolicy()))
	defer cli.Close()
	ref := &ior.Ref{TypeID: "t", Key: "echo", Threads: 1, Endpoints: []string{epA, epB}}

	// In-flight invocation rides out the drain.
	var wg sync.WaitGroup
	wg.Add(1)
	var inflightReply string
	var inflightErr error
	go func() {
		defer wg.Done()
		_, order, body, err := cli.Invoke(context.Background(), epA,
			requestHeader(cli, "echo", "op"), nil)
		if err != nil {
			inflightErr = err
			return
		}
		inflightReply, inflightErr = cdr.NewDecoderAt(order, body, 8).String()
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := slow.Shutdown(ctx); err != nil {
		t.Fatalf("drain did not complete in time: %v", err)
	}
	wg.Wait()
	if inflightErr != nil || inflightReply != "drained" {
		t.Fatalf("in-flight request not drained: %q, %v", inflightReply, inflightErr)
	}

	// New work fails over to the backup replica.
	r, err := cli.InvokeRef(context.Background(), ref,
		requestHeader(cli, "echo", "op"), nil)
	if err != nil {
		t.Fatalf("failover after shutdown: %v", err)
	}
	if s, _ := cdr.NewDecoderAt(r.Order, r.Body, 8).String(); s != "backup" {
		t.Fatalf("reply came from %q, want the backup replica", s)
	}
}

// TestFaultShutdownDeadlineForcesClose: a handler that outlives the
// drain deadline is cut off; Shutdown reports the deadline error.
func TestFaultShutdownDeadlineForcesClose(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	started := make(chan struct{})
	srv.Handle("stuck", func(in *Incoming) {
		close(started)
		<-in.Ctx.Done()
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(reg)
	defer cli.Close()
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := cli.Invoke(context.Background(), ep, requestHeader(cli, "stuck", "op"), nil)
		errc <- err
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("stuck invocation reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("client still blocked after forced close")
	}
}

// TestFaultTransientRejectionDuringDrain: a request arriving during
// the drain window is answered TRANSIENT and the retry layer carries
// it to another replica.
func TestFaultTransientRejectionDuringDrain(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())

	draining := NewServer(reg)
	release := make(chan struct{})
	started := make(chan struct{})
	draining.Handle("echo", func(in *Incoming) {
		close(started)
		<-release
		_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutString("slow") })
	})
	epA, err := draining.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	backup := NewServer(reg)
	backup.Handle("echo", func(in *Incoming) {
		_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutString("backup") })
	})
	epB, err := backup.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()

	cli := NewClient(reg, WithRetryPolicy(DefaultRetryPolicy()))
	defer cli.Close()
	ref := &ior.Ref{TypeID: "t", Key: "echo", Threads: 1, Endpoints: []string{epA, epB}}

	// Occupy the draining server, then start its shutdown.
	go func() {
		_, _, _, _ = cli.Invoke(context.Background(), epA, requestHeader(cli, "echo", "op"), nil)
	}()
	<-started
	shutdownDone := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = draining.Shutdown(ctx)
		close(shutdownDone)
	}()
	for !draining.Draining() {
		time.Sleep(time.Millisecond)
	}

	// A request sent mid-drain must land on the backup.
	r, err := cli.InvokeRef(context.Background(), ref,
		requestHeader(cli, "echo", "op"), nil)
	if err != nil {
		t.Fatalf("mid-drain invocation: %v", err)
	}
	if s, _ := cdr.NewDecoderAt(r.Order, r.Body, 8).String(); s != "backup" {
		t.Fatalf("mid-drain reply from %q, want backup", s)
	}
	close(release)
	<-shutdownDone
}
