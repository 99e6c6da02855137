package orb

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/transport"
)

// bigDoubles is an element count whose sequence makes a frame body
// larger than the FrameReader's buffer.
const bigDoubles = giop.DefaultReadBufSize / 8 * 2

// TestLargeReplyBodyKept: a reply body larger than the FrameReader's
// buffer is a plain allocation that belongs to Invoke's caller. It
// stays intact while the same connection carries later large replies.
func TestLargeReplyBodyKept(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	defer srv.Close()
	srv.Handle("big", func(in *Incoming) {
		fill, _ := in.Decoder().Double()
		big := make([]float64, bigDoubles)
		for i := range big {
			big[i] = fill + float64(i)
		}
		_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutDoubleSeq(big) })
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(reg, WithStripes(1))
	defer cli.Close()
	invoke := func(fill float64) []byte {
		t.Helper()
		rh, order, body, err := cli.Invoke(context.Background(), ep, requestHeader(cli, "big", "op"),
			func(e *cdr.Encoder) { e.PutDouble(fill) })
		if err != nil || rh.Status != giop.ReplyOK || order != cdr.NativeOrder {
			t.Fatalf("invoke: %v %v", rh.Status, err)
		}
		return body
	}
	check := func(what string, body []byte, fill float64) {
		t.Helper()
		got, err := cdr.NewDecoderAt(cdr.NativeOrder, body, 8).DoubleSeq()
		if err != nil || len(got) != bigDoubles {
			t.Fatalf("%s: %d doubles (%v)", what, len(got), err)
		}
		for i, v := range got {
			if v != fill+float64(i) {
				t.Fatalf("%s: element %d = %v, want %v", what, i, v, fill+float64(i))
			}
		}
	}

	first := invoke(1e6)
	for i := 0; i < 4; i++ {
		check("later reply", invoke(float64(i)), float64(i))
	}
	check("first reply after later traffic", first, 1e6)
}

// announce writes a message header in order that announces an n-byte
// body of type t.
func announce(order cdr.ByteOrder, t giop.MsgType, n uint32) []byte {
	e := cdr.NewEncoder(order)
	e.PutULong(n)
	return append([]byte{'P', 'I', 'O', 'P', giop.VersionMajor, giop.VersionMinor,
		byte(order) & 1, byte(t)}, e.Bytes()...)
}

// boundedAlloc is what a read loop may allocate for a header announcing
// 512 MiB that no body follows.
const boundedAlloc = 64 << 20

// TestServerBoundsAnnouncedRequest: a peer that announces a 512 MiB
// request and closes the connection costs the server's read loop what
// it sent, not what it announced.
func TestServerBoundsAnnouncedRequest(t *testing.T) {
	srv := NewServer(nil)
	defer srv.Close()
	sc := newServerConn(srv, streamConn{bytes.NewReader(announce(cdr.NativeOrder, giop.MsgRequest, 512<<20))}, "bounded")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sc.readLoop()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > boundedAlloc {
		t.Fatalf("an announced 512 MiB request allocated %d MiB", grew>>20)
	}
}

// TestClientBoundsAnnouncedReply: a server that answers with a header
// announcing a 512 MiB reply, its ReplyHeader and nothing more, then
// closes, fails the invocation with the connection, at the cost of what
// it sent.
func TestClientBoundsAnnouncedReply(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	ln, err := reg.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		f, err := giop.NewFrameReader(conn).ReadFrame()
		if err != nil {
			return
		}
		rh, err := giop.DecodeRequestHeader(cdr.NewDecoder(f.Order, f.Body))
		if err != nil {
			return
		}
		e := cdr.NewEncoder(cdr.NativeOrder)
		(&giop.ReplyHeader{RequestID: rh.RequestID, Status: giop.ReplyOK}).Encode(e)
		_, _ = conn.Write(append(announce(cdr.NativeOrder, giop.MsgReply, 512<<20), e.Bytes()...))
	}()
	cli := NewClient(reg)
	defer cli.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err = cli.Invoke(context.Background(), ln.Endpoint(), requestHeader(cli, "x", "op"), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("invoke: %v, want ErrConnectionLost", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > boundedAlloc {
		t.Fatalf("an announced 512 MiB reply allocated %d MiB", grew>>20)
	}
}
