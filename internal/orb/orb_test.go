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
	"pardis/internal/transport"
)

// foreignOrder is the byte order this host does not have: the pin that
// sends a client or server down the swap paths no default reaches.
func foreignOrder() cdr.ByteOrder {
	if cdr.NativeOrder == cdr.BigEndian {
		return cdr.LittleEndian
	}
	return cdr.BigEndian
}

// bothOrders runs fn as a "native" and a "foreign" subtest, handing it
// the byte order to pin the sending side to.
func bothOrders(t *testing.T, fn func(t *testing.T, order cdr.ByteOrder)) {
	t.Helper()
	t.Run("native", func(t *testing.T) { fn(t, cdr.NativeOrder) })
	t.Run("foreign", func(t *testing.T) { fn(t, foreignOrder()) })
}

// TestDefaultOrderIsNative: receiver-makes-right only pays off when the
// sender writes its own order, so that is what an unconfigured client
// and server must do.
func TestDefaultOrderIsNative(t *testing.T) {
	cli := NewClient(nil)
	defer cli.Close()
	srv := NewServer(nil)
	defer srv.Close()
	if cli.Order() != cdr.NativeOrder || srv.Order() != cdr.NativeOrder {
		t.Fatalf("default orders: client %v, server %v, host %v", cli.Order(), srv.Order(), cdr.NativeOrder)
	}
}

// newPair starts a server on an inproc endpoint with an echo handler
// for key "echo" and returns (client, server, endpoint).
func newPair(t *testing.T, opts ...ClientOption) (*Client, *Server, string) {
	t.Helper()
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	srv.Handle("echo", func(in *Incoming) {
		d := in.Decoder()
		s, err := d.String()
		if err != nil {
			_ = in.ReplySystemException("MARSHAL", err.Error())
			return
		}
		_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutString("echo:" + s) })
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(reg, opts...)
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	return cli, srv, ep
}

func requestHeader(cli *Client, key, op string) giop.RequestHeader {
	return giop.RequestHeader{
		InvocationID:     cli.NewInvocationID(),
		ResponseExpected: true,
		ObjectKey:        key,
		Operation:        op,
		ThreadRank:       -1,
		ThreadCount:      1,
	}
}

func TestInvokeRoundTrip(t *testing.T) {
	cli, _, ep := newPair(t)
	hdr, order, body, err := cli.Invoke(context.Background(), ep,
		requestHeader(cli, "echo", "op"),
		func(e *cdr.Encoder) { e.PutString("hello") })
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Status != giop.ReplyOK {
		t.Fatalf("status = %v", hdr.Status)
	}
	d := cdr.NewDecoder(order, body)
	s, err := d.String()
	if err != nil || s != "echo:hello" {
		t.Fatalf("reply = %q %v", s, err)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	cli, _, ep := newPair(t)
	const N = 30
	var wg sync.WaitGroup
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := fmt.Sprintf("msg-%d", i)
			_, order, body, err := cli.Invoke(context.Background(), ep,
				requestHeader(cli, "echo", "op"),
				func(e *cdr.Encoder) { e.PutString(msg) })
			if err != nil {
				errs <- err
				return
			}
			s, err := cdr.NewDecoder(order, body).String()
			if err != nil || s != "echo:"+msg {
				errs <- fmt.Errorf("reply %q %v", s, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestUnknownObjectKey(t *testing.T) {
	cli, _, ep := newPair(t)
	hdr, order, body, err := cli.Invoke(context.Background(), ep,
		requestHeader(cli, "nobody", "op"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Status != giop.ReplySystemException {
		t.Fatalf("status = %v", hdr.Status)
	}
	ex, err := giop.DecodeSystemException(cdr.NewDecoder(order, body))
	if err != nil || ex.Code != "OBJECT_NOT_EXIST" {
		t.Fatalf("exception = %+v %v", ex, err)
	}
}

func TestServantPanicBecomesSystemException(t *testing.T) {
	cli, srv, ep := newPair(t)
	srv.Handle("boom", func(in *Incoming) { panic("kaput") })
	hdr, order, body, err := cli.Invoke(context.Background(), ep,
		requestHeader(cli, "boom", "op"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Status != giop.ReplySystemException {
		t.Fatalf("status = %v", hdr.Status)
	}
	ex, err := giop.DecodeSystemException(cdr.NewDecoder(order, body))
	if err != nil || ex.Code != "UNKNOWN" || !strings.Contains(ex.Detail, "kaput") {
		t.Fatalf("exception = %+v %v", ex, err)
	}
	// The connection must survive for further requests.
	_, _, _, err = cli.Invoke(context.Background(), ep,
		requestHeader(cli, "echo", "op"),
		func(e *cdr.Encoder) { e.PutString("x") })
	if err != nil {
		t.Fatalf("connection died after panic: %v", err)
	}
}

func TestOnewayInvocation(t *testing.T) {
	cli, srv, ep := newPair(t)
	got := make(chan string, 1)
	srv.Handle("sink", func(in *Incoming) {
		s, _ := in.Decoder().String()
		got <- s
	})
	h := requestHeader(cli, "sink", "notify")
	h.ResponseExpected = false
	_, _, _, err := cli.Invoke(context.Background(), ep, h,
		func(e *cdr.Encoder) { e.PutString("fire-and-forget") })
	if err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "fire-and-forget" {
			t.Fatalf("oneway body = %q", s)
		}
	case <-time.After(time.Second):
		t.Fatal("oneway request never arrived")
	}
}

func TestCancellation(t *testing.T) {
	cli, srv, ep := newPair(t)
	started := make(chan struct{})
	canceled := make(chan struct{})
	srv.Handle("slow", func(in *Incoming) {
		close(started)
		<-in.Ctx.Done()
		close(canceled)
		// Reply after cancel; client must have moved on.
		_ = in.Reply(giop.ReplyOK, nil)
	})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := cli.Invoke(ctx, ep, requestHeader(cli, "slow", "op"), nil)
		errc <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("invoke never returned after cancel")
	}
	select {
	case <-canceled:
	case <-time.After(time.Second):
		t.Fatal("server never observed the cancellation")
	}
}

func TestLocate(t *testing.T) {
	cli, _, ep := newPair(t)
	st, _, err := cli.Locate(context.Background(), ep, "echo")
	if err != nil || st != giop.LocateHere {
		t.Fatalf("locate echo = %v %v", st, err)
	}
	st, _, err = cli.Locate(context.Background(), ep, "ghost")
	if err != nil || st != giop.LocateUnknown {
		t.Fatalf("locate ghost = %v %v", st, err)
	}
}

func TestServerCloseFailsInflight(t *testing.T) {
	cli, srv, ep := newPair(t)
	block := make(chan struct{})
	srv.Handle("hang", func(in *Incoming) {
		<-block
		_ = in.Reply(giop.ReplyOK, nil)
	})
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := cli.Invoke(context.Background(), ep, requestHeader(cli, "hang", "op"), nil)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(block) // let the handler finish so Close's wg drains
	srv.Close()
	select {
	case err := <-errc:
		// Either the reply made it out before close, or the
		// connection loss surfaced; both are acceptable, hanging is
		// not.
		if err != nil && !errors.Is(err, ErrConnectionLost) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("invoke hung across server close")
	}
}

func TestClientCloseFailsInflight(t *testing.T) {
	cli, srv, ep := newPair(t)
	started := make(chan struct{})
	srv.Handle("hang", func(in *Incoming) {
		close(started)
		<-in.Ctx.Done()
	})
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := cli.Invoke(context.Background(), ep, requestHeader(cli, "hang", "op"), nil)
		errc <- err
	}()
	<-started
	cli.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("invoke succeeded after client close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("invoke hung across client close")
	}
	// Further use fails fast.
	if _, _, _, err := cli.Invoke(context.Background(), ep, requestHeader(cli, "echo", "op"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close invoke: %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	cli := NewClient(reg)
	defer cli.Close()
	if _, _, _, err := cli.Invoke(context.Background(), "inproc:nobody",
		requestHeader(cli, "echo", "op"), nil); err == nil {
		t.Fatal("invoke to nonexistent endpoint succeeded")
	}
}

// chanSink adapts a test channel to a callback sink.
func chanSink(ch chan<- Block) func(Block) error {
	return func(b Block) error { ch <- b; return nil }
}

func TestBlockTransferClientToServer(t *testing.T) {
	bothOrders(t, func(t *testing.T, order cdr.ByteOrder) {
		cli, srv, ep := newPair(t, WithByteOrder(order))
		inv := cli.NewInvocationID()
		sink := make(chan Block, 4)
		cancel, err := srv.ExpectBlocksFunc(inv, chanSink(sink))
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		hdr := giop.BlockTransferHeader{
			InvocationID: inv, ArgIndex: 0, FromThread: 1, ToThread: 2,
			DstOff: 10, Count: 3, Last: true,
		}
		_, err = cli.SendBlock(ep, hdr, func(e *cdr.Encoder) {
			e.PutDoubleSeq([]float64{1, 2, 3})
		})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case blk := <-sink:
			if blk.Header != hdr || blk.Order != order {
				t.Fatalf("header = %+v, order %v", blk.Header, blk.Order)
			}
			d := cdr.NewDecoderAt(blk.Order, blk.Payload, payloadBase(blk))
			v, err := d.DoubleSeq()
			if err != nil || len(v) != 3 || v[2] != 3 {
				t.Fatalf("payload = %v %v", v, err)
			}
		case <-time.After(time.Second):
			t.Fatal("block never delivered")
		}
	})
}

// payloadBase computes the stream offset of a block payload: the CDR
// position right after the header.
func payloadBase(b Block) int {
	e := cdr.NewEncoder(b.Order)
	b.Header.Encode(e)
	return e.Len()
}

func TestBlockArrivingBeforeSinkIsBuffered(t *testing.T) {
	cli, srv, ep := newPair(t)
	inv := cli.NewInvocationID()
	hdr := giop.BlockTransferHeader{InvocationID: inv, Count: 1, Last: true}
	if _, err := cli.SendBlock(ep, hdr, func(e *cdr.Encoder) { e.PutDoubleSeq([]float64{9}) }); err != nil {
		t.Fatal(err)
	}
	// Give the block time to arrive before the sink exists.
	time.Sleep(20 * time.Millisecond)
	sink := make(chan Block, 1)
	cancel, err := srv.ExpectBlocksFunc(inv, chanSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	select {
	case blk := <-sink:
		if blk.Header.InvocationID != inv {
			t.Fatalf("wrong invocation: %+v", blk.Header)
		}
	case <-time.After(time.Second):
		t.Fatal("buffered block never flushed")
	}
}

func TestDuplicateSinkRejected(t *testing.T) {
	_, srv, _ := newPair(t)
	sink := func(Block) error { return nil }
	cancel, err := srv.ExpectBlocksFunc(7, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, err := srv.ExpectBlocksFunc(7, sink); err == nil {
		t.Fatal("duplicate sink accepted")
	}
}

func TestInvocationIDsUnique(t *testing.T) {
	cli := NewClient(nil)
	defer cli.Close()
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := cli.NewInvocationID()
		if seen[id] {
			t.Fatalf("duplicate invocation id %d", id)
		}
		seen[id] = true
	}
}

// TestCrossByteOrderInterop crosses the byte-order boundary in both
// directions — whichever order the host has, one run has the foreign
// client and the other the foreign server: receiver makes right.
func TestCrossByteOrderInterop(t *testing.T) {
	for _, cliOrder := range []cdr.ByteOrder{cdr.LittleEndian, cdr.BigEndian} {
		srvOrder := cliOrder ^ 1 // the other one
		t.Run(cliOrder.String()+" client", func(t *testing.T) {
			reg := transport.NewRegistry()
			reg.Register(transport.NewInproc())
			srv := NewServer(reg, WithServerByteOrder(srvOrder))
			srv.Handle("sum", func(in *Incoming) {
				d := in.Decoder()
				a, _ := d.Long()
				b, err := d.Long()
				if err != nil {
					_ = in.ReplySystemException("MARSHAL", err.Error())
					return
				}
				_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutLong(a + b) })
			})
			ep, err := srv.Listen("inproc:*")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cli := NewClient(reg, WithByteOrder(cliOrder))
			defer cli.Close()
			_, order, body, err := cli.Invoke(context.Background(), ep,
				requestHeader(cli, "sum", "add"),
				func(e *cdr.Encoder) { e.PutLong(40); e.PutLong(2) })
			if err != nil {
				t.Fatal(err)
			}
			if order != srvOrder {
				t.Fatalf("reply order = %v", order)
			}
			v, err := cdr.NewDecoder(order, body).Long()
			if err != nil || v != 42 {
				t.Fatalf("sum = %d %v", v, err)
			}
		})
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	srv := NewServer(nil)
	srv.Handle("echo", func(in *Incoming) {
		s, _ := in.Decoder().String()
		_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutString(s) })
	})
	ep, err := srv.Listen("tcp:127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(nil)
	defer cli.Close()
	_, order, body, err := cli.Invoke(context.Background(), ep,
		requestHeader(cli, "echo", "op"),
		func(e *cdr.Encoder) { e.PutString("over tcp") })
	if err != nil {
		t.Fatal(err)
	}
	s, err := cdr.NewDecoder(order, body).String()
	if err != nil || s != "over tcp" {
		t.Fatalf("reply = %q %v", s, err)
	}
}
