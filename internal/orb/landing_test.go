package orb

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/transport"
)

// refuseLander is a ReplyLander that must never be handed a reply.
type refuseLander struct{ called atomic.Bool }

func (l *refuseLander) LandReply(*giop.FrameReader, giop.FrameHeader) ([]byte, error) {
	l.called.Store(true)
	return nil, errors.New("refuseLander: landed")
}

// TestCancelDuringNonOKReplyKeepsConnection gives up on a landing
// invocation while the read loop is reading its reply, which is not OK
// and so is read whole, not landed. Nothing writes the caller's
// destination, so the connection must survive the cancel: the next
// invocation goes out on it, not on a redialed one.
func TestCancelDuringNonOKReplyKeepsConnection(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	ln, err := reg.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// A hand-written server: the first reply is a system exception whose
	// body stops halfway until the test releases it; the second is OK.
	var accepts atomic.Int32
	requests := make(chan uint32, 4)
	rest := make(chan struct{})
	serverDone := make(chan struct{})
	conns := make(chan transport.Conn, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				close(conns)
				return
			}
			if accepts.Add(1) == 1 {
				conns <- conn
			} else {
				conn.Close() // a redial: the test fails on it
			}
		}
	}()
	go func() {
		defer close(serverDone)
		conn, ok := <-conns
		if !ok {
			return
		}
		defer conn.Close()
		go func() {
			fr := giop.NewFrameReader(conn)
			for {
				f, err := fr.ReadFrame()
				if err != nil {
					close(requests)
					return
				}
				if f.Type == giop.MsgRequest {
					rh, err := giop.DecodeRequestHeader(cdr.NewDecoder(f.Order, f.Body))
					if err != nil {
						close(requests)
						return
					}
					requests <- rh.RequestID
				}
			}
		}()
		reply := func(id uint32, status giop.ReplyStatus, pad int) []byte {
			e := cdr.NewEncoder(cdr.NativeOrder)
			(&giop.ReplyHeader{RequestID: id, Status: status}).Encode(e)
			body := append(e.Bytes(), make([]byte, pad)...)
			var frame bytes.Buffer
			_ = giop.WriteMessage(&frame, cdr.NativeOrder, giop.MsgReply, body)
			return frame.Bytes()
		}
		id, ok := <-requests
		if !ok {
			return
		}
		frame := reply(id, giop.ReplySystemException, 1024)
		half := giop.HeaderLen + 8 + 512
		if _, err := conn.Write(frame[:half]); err != nil {
			return
		}
		<-rest
		if _, err := conn.Write(frame[half:]); err != nil {
			return
		}
		if id, ok = <-requests; !ok {
			return
		}
		_, _ = conn.Write(reply(id, giop.ReplyOK, 0))
	}()

	cli := NewClient(reg)
	defer cli.Close()
	ref := &ior.Ref{TypeID: "IDL:x:1.0", Key: "x", Threads: 1, Endpoints: []string{ln.Endpoint()}}
	land := &refuseLander{}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// The read loop has taken the waiter once the reply's first half
		// is on the wire; give it time to block on the rest.
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := cli.InvokeRefLanding(ctx, ref, requestHeader(cli, "x", "op"), nil, land); !errors.Is(err, ErrCanceled) {
		t.Fatalf("abandoned invocation: got %v, want ErrCanceled", err)
	}
	close(rest)

	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r, err := cli.InvokeRef(ctx, ref, requestHeader(cli, "x", "op"), nil)
	if err != nil {
		t.Fatalf("invocation after the cancel: %v", err)
	}
	if r.Header.Status != giop.ReplyOK {
		t.Fatalf("status %v, want OK", r.Header.Status)
	}
	cli.Close()
	<-serverDone
	if n := accepts.Load(); n != 1 {
		t.Fatalf("server accepted %d connections, want 1: the cancel tore the connection down", n)
	}
	if land.called.Load() {
		t.Fatal("a system exception reply was landed")
	}
}
