package transport

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"pardis/internal/telemetry"
)

func TestSplitJoinEndpoint(t *testing.T) {
	s, a, err := SplitEndpoint("tcp:127.0.0.1:80")
	if err != nil || s != "tcp" || a != "127.0.0.1:80" {
		t.Fatalf("split = %q %q %v", s, a, err)
	}
	if JoinEndpoint("inproc", "x") != "inproc:x" {
		t.Fatal("join broken")
	}
	for _, bad := range []string{"", "tcp", ":addr", "tcp:"} {
		if _, _, err := SplitEndpoint(bad); !errors.Is(err, ErrBadEndpoint) {
			t.Fatalf("SplitEndpoint(%q) = %v", bad, err)
		}
	}
}

func TestRegistryUnknownScheme(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Dial("bogus:x"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown scheme: %v", err)
	}
	if _, err := r.Listen("bogus:x"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown scheme: %v", err)
	}
}

// exerciseTransport runs a connect/echo/close conversation and pins
// the scheme's pardis_transport_* rows: one accept, both sides' bytes
// written, and the open-connection gauge back where it started once
// both ends are closed.
func exerciseTransport(t *testing.T, r *Registry, listenEndpoint string) {
	t.Helper()
	scheme, _, _ := SplitEndpoint(listenEndpoint)
	accepts := telemetry.Default.Counter("pardis_transport_accepts_total", "scheme", scheme)
	written := telemetry.Default.Counter("pardis_transport_bytes_written_total", "scheme", scheme)
	open := telemetry.Default.Gauge("pardis_transport_conns_open", "scheme", scheme)
	accepts0, written0, open0 := accepts.Value(), written.Value(), open.Value()
	l, err := r.Listen(listenEndpoint)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ep := l.Endpoint()
	if !strings.Contains(ep, ":") {
		t.Fatalf("endpoint %q", ep)
	}
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		_, err = c.Write(buf)
		done <- err
	}()
	c, err := r.Dial(ep)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("echo = %q", buf)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := accepts.Value() - accepts0; got != 1 {
		t.Errorf("%s accepts moved by %d, want 1", scheme, got)
	}
	if got := written.Value() - written0; got != 10 {
		t.Errorf("%s bytes written moved by %d, want 10", scheme, got)
	}
	if got := open.Value() - open0; got != 1 {
		t.Errorf("%s open conns moved by %d with the client end open, want 1", scheme, got)
	}
	c.Close()
	if got := open.Value() - open0; got != 0 {
		t.Errorf("%s open conns moved by %d after both ends closed, want 0", scheme, got)
	}
}

func TestTCPEcho(t *testing.T) {
	exerciseTransport(t, Default, "tcp:127.0.0.1:0")
}

func TestInprocEcho(t *testing.T) {
	exerciseTransport(t, Default, "inproc:echo-test")
}

func TestInprocAutoAddress(t *testing.T) {
	tr := NewInproc()
	l1, err := tr.Listen("*")
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	l2, err := tr.Listen("*")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l1.Endpoint() == l2.Endpoint() {
		t.Fatalf("auto addresses collide: %s", l1.Endpoint())
	}
}

func TestInprocDuplicateBind(t *testing.T) {
	tr := NewInproc()
	l, err := tr.Listen("dup")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := tr.Listen("dup"); err == nil {
		t.Fatal("duplicate bind accepted")
	}
}

func TestInprocDialNoListener(t *testing.T) {
	tr := NewInproc()
	if _, err := tr.Dial("nobody"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dial: %v", err)
	}
}

func TestInprocCloseUnblocksAccept(t *testing.T) {
	tr := NewInproc()
	l, _ := tr.Listen("closer")
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("accept after close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("accept never unblocked")
	}
	// The name is released.
	if _, err := tr.Listen("closer"); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	// Dialing the closed name fails.
	if _, err := tr.Dial("gone"); !errorsIsNotFound(err) {
		t.Fatalf("dial closed: %v", err)
	}
}

func errorsIsNotFound(err error) bool { return errors.Is(err, ErrNotFound) }

func TestInprocConcurrentConnections(t *testing.T) {
	tr := NewInproc()
	l, _ := tr.Listen("multi")
	defer l.Close()
	const N = 8
	go func() {
		for i := 0; i < N; i++ {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c Conn) {
				defer c.Close()
				buf := make([]byte, 1)
				if _, err := io.ReadFull(c, buf); err == nil {
					c.Write(buf)
				}
			}(c)
		}
	}()
	for i := 0; i < N; i++ {
		c, err := tr.Dial("multi")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		if _, err := io.ReadFull(c, buf); err != nil || buf[0] != byte(i) {
			t.Fatalf("conn %d echo: %v %v", i, buf, err)
		}
		c.Close()
	}
}
