package orb

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/transport"
)

// TestLocationForwardFollowed: a "moved" object redirects clients to
// its new home transparently.
func TestLocationForwardFollowed(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())

	// New home.
	home := NewServer(reg)
	home.Handle("obj", func(in *Incoming) {
		_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutString("from new home") })
	})
	homeEp, err := home.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer home.Close()
	fwdRef := &ior.Ref{TypeID: "IDL:obj:1.0", Key: "obj", Threads: 1, Endpoints: []string{homeEp}}

	// Old home forwards.
	old := NewServer(reg)
	old.Handle("obj", func(in *Incoming) {
		_ = in.ReplyForward(fwdRef.Stringify())
	})
	oldEp, err := old.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()

	cli := NewClient(reg)
	defer cli.Close()
	rh, order, body, err := cli.Invoke(context.Background(), oldEp,
		requestHeader(cli, "obj", "op"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rh.Status != giop.ReplyOK {
		t.Fatalf("status = %v", rh.Status)
	}
	s, err := cdr.NewDecoderAt(order, body, 8).String()
	if err != nil || s != "from new home" {
		t.Fatalf("reply = %q %v", s, err)
	}
}

// TestForwardLoopBounded: a forward cycle is detected as soon as an
// endpoint is seen twice, instead of burning all maxForwards hops.
func TestForwardLoopBounded(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	self := &ior.Ref{TypeID: "t", Key: "obj", Threads: 1, Endpoints: []string{ep}}
	var hops atomic.Int32
	srv.Handle("obj", func(in *Incoming) {
		hops.Add(1)
		_ = in.ReplyForward(self.Stringify()) // forward to itself forever
	})
	cli := NewClient(reg)
	defer cli.Close()
	_, _, _, err = cli.Invoke(context.Background(), ep, requestHeader(cli, "obj", "op"), nil)
	if !errors.Is(err, ErrForwardCycle) {
		t.Fatalf("err = %v", err)
	}
	// The self-cycle is caught after the first forward, not after
	// maxForwards round-trips.
	if n := hops.Load(); n != 1 {
		t.Fatalf("server dispatched %d times; cycle not detected early", n)
	}
}

// TestForwardCycleTwoServers: an A→B→A forward cycle is detected when
// A's endpoint shows up the second time.
func TestForwardCycleTwoServers(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	a, b := NewServer(reg), NewServer(reg)
	epA, err := a.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	epB, err := b.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	refA := &ior.Ref{TypeID: "t", Key: "obj", Threads: 1, Endpoints: []string{epA}}
	refB := &ior.Ref{TypeID: "t", Key: "obj", Threads: 1, Endpoints: []string{epB}}
	a.Handle("obj", func(in *Incoming) { _ = in.ReplyForward(refB.Stringify()) })
	b.Handle("obj", func(in *Incoming) { _ = in.ReplyForward(refA.Stringify()) })
	cli := NewClient(reg)
	defer cli.Close()
	_, _, _, err = cli.Invoke(context.Background(), epA, requestHeader(cli, "obj", "op"), nil)
	if !errors.Is(err, ErrForwardCycle) {
		t.Fatalf("err = %v", err)
	}
}

// TestForwardWithBadIORFails: a malformed forward body surfaces as an
// error rather than a retry storm.
func TestForwardWithBadIORFails(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	srv.Handle("obj", func(in *Incoming) {
		_ = in.Reply(giop.ReplyLocationForward, func(e *cdr.Encoder) {
			e.PutString("IOR:not-hex!")
		})
	})
	ep, _ := srv.Listen("inproc:*")
	defer srv.Close()
	cli := NewClient(reg)
	defer cli.Close()
	_, _, _, err := cli.Invoke(context.Background(), ep, requestHeader(cli, "obj", "op"), nil)
	if err == nil || !strings.Contains(err.Error(), "bad IOR") {
		t.Fatalf("err = %v", err)
	}
}

// TestGarbageBytesOnServer: a connection spewing garbage must not
// take the server down; other connections keep working.
func TestGarbageBytesOnServer(t *testing.T) {
	reg := transport.NewRegistry()
	inproc := transport.NewInproc()
	reg.Register(inproc)
	srv := NewServer(reg)
	srv.Handle("echo", func(in *Incoming) {
		_ = in.Reply(giop.ReplyOK, nil)
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Raw garbage connection.
	raw, err := reg.Dial(ep)
	if err != nil {
		t.Fatal(err)
	}
	// The write may fail midway if the server already detected the
	// bad magic and closed the synchronous pipe — both outcomes are
	// fine; the assertion is that the server survives.
	_, _ = raw.Write([]byte("GET / HTTP/1.1\r\n\r\n lots of garbage"))
	// The server should drop it; reads eventually fail.
	raw.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 16)
	for {
		if _, err := raw.Read(buf); err != nil {
			break
		}
	}
	raw.Close()

	// A proper client still works.
	cli := NewClient(reg)
	defer cli.Close()
	if _, _, _, err := cli.Invoke(context.Background(), ep, requestHeader(cli, "echo", "op"), nil); err != nil {
		t.Fatalf("server damaged by garbage connection: %v", err)
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

// earlyPut parks one early window put of n elements under r's pending
// budgets.
func earlyPut(r *blockRouter, window uint64, n int) error {
	buf := acquirePutBuf(n * 8)
	return r.bufferWindowPut(giop.WindowPutHeader{WindowID: window, Count: uint32(n)}, cdr.NativeOrder, buf)
}

// TestUnmatchedBlockFloodBounded: more early window puts than the
// router's count budget are refused instead of consuming unbounded
// memory.
func TestUnmatchedBlockFloodBounded(t *testing.T) {
	r := newBlockRouter()
	r.pol.MaxBlocks = 8
	for i := 0; i < 8; i++ {
		if err := earlyPut(r, uint64(i), 0); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := earlyPut(r, 99, 0); !errors.Is(err, ErrTooManyBlocks) {
		t.Fatalf("flood not bounded: %v", err)
	}
	if st := r.stats(); st.Pending != 8 {
		t.Fatalf("Pending = %d, want 8", st.Pending)
	}
}

// TestUnmatchedBlockByteBudget: the pending buffer is bounded in bytes
// as well as puts — a peer cannot park a handful of maximal puts
// behind a window that never registers — and a registering window
// takes its puts' bytes back out of the budget.
func TestUnmatchedBlockByteBudget(t *testing.T) {
	r := newBlockRouter()
	r.pol.MaxBytes = 1024
	for i := 0; i < 2; i++ {
		if err := earlyPut(r, uint64(i), 64); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := earlyPut(r, 99, 1); !errors.Is(err, ErrPendingBlockBytes) {
		t.Fatalf("byte flood not bounded: %v", err)
	}
	if st := r.stats(); st.PendingBytes != 1024 {
		t.Fatalf("PendingBytes = %d, want 1024", st.PendingBytes)
	}
	w, cancel, err := r.registerWindow(0, make([]float64, 64), 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	select {
	case <-w.Done():
	default:
		t.Fatal("flushed window did not complete")
	}
	if st := r.stats(); st.PendingBytes != 512 || st.Pending != 1 {
		t.Fatalf("after flush: %+v", st)
	}
	if err := earlyPut(r, 99, 64); err != nil {
		t.Fatalf("budget not returned by the flush: %v", err)
	}
}

// TestPendingSweepReclaimsAbandonedBlocks: a TTL sweep drops early-put
// buffers with no recent arrivals while keeping fresh ones.
func TestPendingSweepReclaimsAbandonedBlocks(t *testing.T) {
	r := newBlockRouter()
	r.pol.TTL = 50 * time.Millisecond
	if err := earlyPut(r, 1, 8); err != nil {
		t.Fatal(err)
	}
	if n := r.sweepWindows(time.Now()); n != 0 {
		t.Fatalf("fresh buffer swept: %d", n)
	}
	if n := r.sweepWindows(time.Now().Add(100 * time.Millisecond)); n != 1 {
		t.Fatalf("stale buffer not swept: %d", n)
	}
	if st := r.stats(); st.Pending != 0 || st.PendingBytes != 0 {
		t.Fatalf("after sweep: %+v", st)
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
