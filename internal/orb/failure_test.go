package orb

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/transport"
)

// TestForwardStatusNotFollowed: status 3, once LOCATION_FORWARD, is
// no longer a status the client knows. A reply carrying it, with a
// stringified IOR as its body, reaches the caller as a non-OK reply,
// and the endpoint that IOR names is never dialed.
func TestForwardStatusNotFollowed(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	target := &countingDialer{}
	reg.Register(target)
	fwd := &ior.Ref{TypeID: "t", Key: "obj", Threads: 1, Endpoints: []string{"counted:elsewhere"}}
	srv := NewServer(reg)
	srv.Handle("obj", func(in *Incoming) {
		_ = in.Reply(giop.ReplyStatus(3), func(e *cdr.Encoder) { e.PutString(fwd.Stringify()) })
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(reg, WithRetryPolicy(DefaultRetryPolicy()))
	defer cli.Close()
	ref := &ior.Ref{TypeID: "t", Key: "obj", Threads: 1, Endpoints: []string{ep}}
	r, err := cli.InvokeRef(context.Background(), ref, requestHeader(cli, "obj", "op"), nil)
	if err != nil {
		t.Fatalf("InvokeRef: %v", err)
	}
	if r.Header.Status != giop.ReplyStatus(3) {
		t.Fatalf("status = %v, want the peer's status 3", r.Header.Status)
	}
	if n := target.dials.Load(); n != 0 {
		t.Fatalf("the endpoint named in the reply was dialed %d times", n)
	}
}

// countingDialer is a transport for the "counted" scheme that counts
// its dials and refuses every one.
type countingDialer struct{ dials atomic.Int32 }

func (d *countingDialer) Scheme() string { return "counted" }

func (d *countingDialer) Listen(string) (transport.Listener, error) {
	return nil, errors.New("counted: no listener")
}

func (d *countingDialer) Dial(string) (transport.Conn, error) {
	d.dials.Add(1)
	return nil, errors.New("counted: refused")
}

// TestGarbageBytesOnServer: a connection that sends garbage, or a
// frame of a retired message type, is closed without an answer; the
// server survives and the next connection is served.
func TestGarbageBytesOnServer(t *testing.T) {
	// A LocateRequest (type 3) for the served key, as a pre-retirement
	// peer would send it: request id 9, object key "echo".
	locate := cdr.NewEncoder(cdr.BigEndian)
	locate.PutULong(9)
	locate.PutString("echo")
	for _, c := range []struct {
		name  string
		bytes []byte
	}{
		{"http", []byte("GET / HTTP/1.1\r\n\r\n lots of garbage")},
		{"locate-request", append(announce(cdr.BigEndian, 3, uint32(len(locate.Bytes()))), locate.Bytes()...)},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := transport.NewRegistry()
			reg.Register(transport.NewInproc())
			srv := NewServer(reg)
			srv.Handle("echo", func(in *Incoming) {
				_ = in.Reply(giop.ReplyOK, nil)
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
			// The write may fail midway if the server already refused
			// the header and closed the synchronous pipe.
			_, _ = raw.Write(c.bytes)
			// The server must close the connection, answering nothing.
			raw.SetReadDeadline(time.Now().Add(time.Second))
			buf := make([]byte, 16)
			got := 0
			for {
				n, err := raw.Read(buf)
				got += n
				if err != nil {
					var ne net.Error
					if errors.As(err, &ne) && ne.Timeout() {
						t.Fatal("the server kept the connection open")
					}
					break
				}
			}
			raw.Close()
			if got != 0 {
				t.Fatalf("the server answered with %d bytes", got)
			}

			// A proper client still works.
			cli := NewClient(reg)
			defer cli.Close()
			if _, _, _, err := cli.Invoke(context.Background(), ep, requestHeader(cli, "echo", "op"), nil); err != nil {
				t.Fatalf("server damaged by the %s connection: %v", c.name, err)
			}
		})
	}
}

// TestTruncatedFrameKillsOnlyThatConnection: a frame that announces a
// large body and then hangs up must not wedge the server.
func TestTruncatedFrameKillsOnlyThatConnection(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	srv.Handle("echo", func(in *Incoming) { _ = in.Reply(giop.ReplyOK, nil) })
	ep, _ := srv.Listen("inproc:*")
	defer srv.Close()

	raw, err := reg.Dial(ep)
	if err != nil {
		t.Fatal(err)
	}
	// Valid header, 1 MB announced, then close.
	hdr := []byte{'P', 'I', 'O', 'P', 1, 0, 0, byte(giop.MsgRequest), 0, 0x10, 0, 0}
	if _, err := raw.Write(hdr); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	cli := NewClient(reg)
	defer cli.Close()
	if _, _, _, err := cli.Invoke(context.Background(), ep, requestHeader(cli, "echo", "op"), nil); err != nil {
		t.Fatalf("server wedged by truncated frame: %v", err)
	}
}

// TestServerDiesMidInvocation: killing the server while a request is
// in flight surfaces ErrConnectionLost quickly.
func TestServerDiesMidInvocation(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	started := make(chan struct{})
	srv.Handle("hang", func(in *Incoming) {
		close(started)
		<-in.Ctx.Done()
	})
	ep, _ := srv.Listen("inproc:*")
	cli := NewClient(reg)
	defer cli.Close()
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := cli.Invoke(context.Background(), ep, requestHeader(cli, "hang", "op"), nil)
		errc <- err
	}()
	<-started
	srv.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrConnectionLost) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("invocation hung after server death")
	}
}

// TestPendingSweepReclaimsAbandonedBlocks: a put whose epoch is neither
// armed nor ended waits only until the router's bound passes; the
// sweep that finds it past the bound fails its connection, which the
// client's put stripe then drops.
func TestPendingSweepReclaimsAbandonedBlocks(t *testing.T) {
	cli, srv, ep := newPair(t)
	srv.blocks.ttl = 50 * time.Millisecond
	// Over inproc a put's write returns only once the server has read it:
	// this one never does.
	go cli.PutWindow(ep, giop.WindowPutHeader{WindowID: windowKey(t, 2, 0)}, make([]float64, 8))
	awaitPending(t, srv, 1)
	srv.blocks.wake()
	if st := srv.BlockStats(); st.Pending != 1 {
		t.Fatalf("a fresh wait ended by the sweep: %+v", st)
	}
	time.Sleep(60 * time.Millisecond)
	srv.blocks.wake()
	awaitPending(t, srv, 0)
	for deadline := time.Now().Add(5 * time.Second); putConns(cli, ep) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the connection of a put that waited past the bound stays up")
		}
	}
}

// TestClientReadsGarbageReply: a server that answers with garbage
// bytes fails the invocation cleanly.
func TestClientReadsGarbageReply(t *testing.T) {
	reg := transport.NewRegistry()
	inproc := transport.NewInproc()
	reg.Register(inproc)
	l, err := inproc.Listen("garbage")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		// Drain the request frame, then answer nonsense.
		buf := make([]byte, 4096)
		if _, err := c.Read(buf); err != nil && err != io.EOF {
			return
		}
		c.Write([]byte("***not a piop frame***"))
	}()
	cli := NewClient(reg)
	defer cli.Close()
	_, _, _, err = cli.Invoke(context.Background(), "inproc:garbage",
		requestHeader(cli, "x", "op"), nil)
	if !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("err = %v", err)
	}
}
