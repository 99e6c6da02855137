package orb

import (
	"context"
	"errors"
	"testing"
	"time"

	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/telemetry"
	"pardis/internal/transport"
)

// TestORBMetrics pins every pardis_client_* and pardis_server_* row
// of the catalogue (DESIGN.md §9): each case drives the condition its
// row reports and checks the row moved by exactly that much. A case
// whose condition is a state (a handler running) returns a release
// function, and the row is read while the state holds.
func TestORBMetrics(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	srv.Handle("m-ok", func(in *Incoming) { _ = in.Reply(giop.ReplyOK, nil) })
	srv.Handle("m-panic", func(in *Incoming) { panic("servant bug") })
	srv.Handle("m-block", func(in *Incoming) {
		started <- struct{}{}
		<-block
		_ = in.Reply(giop.ReplyOK, nil)
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(reg, WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}))
	defer cli.Close()

	invoke := func(key, op string) error {
		hdr := requestHeader(cli, key, op)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _, _, err := cli.Invoke(ctx, ep, hdr, nil)
		return err
	}
	counter := func(name string, labels ...string) func() float64 {
		return func() float64 { return float64(telemetry.Default.Counter(name, labels...).Value()) }
	}
	histCount := func(name string, labels ...string) func() float64 {
		return func() float64 { return float64(telemetry.Default.Histogram(name, labels...).Snapshot().Count) }
	}
	// A reference whose first endpoint refuses the dial: the retry
	// loop fails over to the live one.
	deadFirst := &ior.Ref{TypeID: "t", Key: "m-ok", Threads: 1,
		Endpoints: []string{"inproc:m-nobody-listens", ep}}

	cases := []struct {
		row   string
		read  func() float64
		drive func(t *testing.T) (release func())
		want  float64
	}{
		{"pardis_server_requests_total", counter("pardis_server_requests_total", "key", "m-ok"),
			func(t *testing.T) func() { mustOK(t, invoke("m-ok", "get")); return nil }, 1},
		{"pardis_server_request_seconds", histCount("pardis_server_request_seconds", "key", "m-ok"),
			func(t *testing.T) func() { mustOK(t, invoke("m-ok", "get")); return nil }, 1},
		{"pardis_server_inflight", func() float64 { return float64(telemetry.Default.Gauge("pardis_server_inflight").Value()) },
			func(t *testing.T) func() {
				done := make(chan error, 1)
				go func() { done <- invoke("m-block", "hold") }()
				<-started
				return func() { block <- struct{}{}; mustOK(t, <-done) }
			}, 1},
		{"pardis_server_no_object_total", counter("pardis_server_no_object_total"),
			func(t *testing.T) func() { _ = invoke("m-nosuch", "get"); return nil }, 1},
		{"pardis_server_panics_total", counter("pardis_server_panics_total", "key", "m-panic"),
			func(t *testing.T) func() { _ = invoke("m-panic", "get"); return nil }, 1},
		{"pardis_server_shed_total", counter("pardis_server_shed_total", "reason", "expired"),
			func(t *testing.T) func() {
				// No context deadline, so the header's 1µs budget is sent
				// as is and has expired by dispatch.
				hdr := requestHeader(cli, "m-ok", "late")
				hdr.DeadlineMicros = 1
				_, _, _, _ = cli.Invoke(context.Background(), ep, hdr, nil)
				return nil
			}, 1},
		{"pardis_server_transient_rejections_total", counter("pardis_server_transient_rejections_total"),
			func(t *testing.T) func() { drainingRejects(t); return nil }, 1},
		{"pardis_client_invoke_seconds", histCount("pardis_client_invoke_seconds", "op", "m-timed"),
			func(t *testing.T) func() { mustOK(t, invoke("m-ok", "m-timed")); return nil }, 1},
		{"pardis_client_retries_total", counter("pardis_client_retries_total", "op", "m-failover"),
			func(t *testing.T) func() {
				_, err := cli.InvokeRef(context.Background(), deadFirst, requestHeader(cli, "m-ok", "m-failover"), nil)
				mustOK(t, err)
				return nil
			}, 1},
		{"pardis_client_failovers_total", counter("pardis_client_failovers_total"),
			func(t *testing.T) func() {
				_, err := cli.InvokeRef(context.Background(), deadFirst, requestHeader(cli, "m-ok", "m-failover"), nil)
				mustOK(t, err)
				return nil
			}, 1},
		{"pardis_client_deadline_misses_total", counter("pardis_client_deadline_misses_total", "op", "m-late"),
			func(t *testing.T) func() {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer cancel()
				_, _, _, err := cli.Invoke(ctx, ep, requestHeader(cli, "m-block", "m-late"), nil)
				if !errors.Is(err, ErrDeadlineExpired) && !errors.Is(err, ErrCanceled) {
					t.Fatalf("invoke past its deadline: %v", err)
				}
				<-started
				block <- struct{}{}
				return nil
			}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.row, func(t *testing.T) {
			before := tc.read()
			release := tc.drive(t)
			// Server-side rows are written after the reply is sent.
			deadline := time.Now().Add(2 * time.Second)
			for tc.read()-before != tc.want && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := tc.read() - before; got != tc.want {
				t.Errorf("%s moved by %v, want %v", tc.row, got, tc.want)
			}
			if release != nil {
				release()
			}
		})
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// drainingRejects sends one request on an existing connection to a
// server that is draining, which answers it TRANSIENT.
func drainingRejects(t *testing.T) {
	t.Helper()
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	srv.Handle("m-drain", func(in *Incoming) {
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
	held := make(chan error, 1)
	go func() {
		_, _, _, err := cli.Invoke(context.Background(), ep, requestHeader(cli, "m-drain", "hold"), nil)
		held <- err
	}()
	<-started
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(context.Background()) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	_, _, _, err = cli.Invoke(context.Background(), ep, requestHeader(cli, "m-drain", "late"), nil)
	if !errors.Is(err, ErrTransient) {
		t.Errorf("request to a draining server: %v, want ErrTransient", err)
	}
	close(release)
	mustOK(t, <-held)
	mustOK(t, <-drained)
}
