package orb

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/transport"
)

// sumLander is a RequestLander that reads the whole body and sums the
// sequence<double> after the request header, at stream offset base.
type sumLander struct {
	base int
	sum  float64
}

func (l *sumLander) LandRequest(fr *giop.FrameReader, h giop.FrameHeader) error {
	b := make([]byte, h.BodyLen)
	if err := fr.ReadPayloadBytes(b); err != nil {
		return ErrConnectionLost
	}
	v, err := cdr.NewDecoderAt(h.Order, b[l.base:], l.base).DoubleSeq()
	for _, x := range v {
		l.sum += x
	}
	return err
}

// TestParkedRequestPaths: a request of any size to a key installed with
// HandleLanding reaches its handler parked, with its prefix visible —
// the whole body when it fits the read buffer — and the connection
// carries on after each of the three ways its body can leave: landed by
// a RequestLander, read whole (then, when larger than the read buffer, a
// recycled body like any other), or released and skimmed. Requests to a
// plain key, large or small, are never parked.
func TestParkedRequestPaths(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	defer srv.Close()
	sumBody := func(in *Incoming) (float64, error) {
		v, err := in.Decoder().DoubleSeq()
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s, err
	}
	// The reply carries the sequence length the handler saw: from the
	// prefix when parked, from the body otherwise.
	reply := func(in *Incoming, sum float64, parked bool, n uint32) {
		_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) {
			e.PutDouble(sum)
			e.PutBoolean(parked)
			e.PutULong(n)
		})
	}
	srv.HandleLanding("landing", func(in *Incoming) {
		parked := in.Parked()
		if !parked {
			_ = in.ReplySystemException("BAD_OPERATION", "request to a landing key not parked")
			return
		}
		n, err := cdr.NewDecoderAt(in.Order, in.Prefix(), in.BodyBase).ULong()
		if err != nil {
			_ = in.ReplySystemException("MARSHAL", "prefix does not show the sequence length")
			return
		}
		if fits := in.BodyLen() <= giop.DefaultReadBufSize; fits != (in.BodyBase+len(in.Prefix()) == in.BodyLen()) {
			_ = in.ReplySystemException("MARSHAL", "prefix is not the body up to the read buffer's size")
			return
		}
		switch in.Header.Operation {
		case "land":
			l := &sumLander{base: in.BodyBase}
			if err := in.Land(l); err != nil {
				_ = in.ReplySystemException("MARSHAL", err.Error())
				return
			}
			reply(in, l.sum, true, n)
		case "whole":
			if err := in.ReadBody(); err != nil {
				return
			}
			s, err := sumBody(in)
			in.Release()
			if err != nil {
				_ = in.ReplySystemException("MARSHAL", err.Error())
				return
			}
			reply(in, s, true, n)
		default:
			in.Release()
			reply(in, -1, true, n)
		}
	})
	srv.Handle("plain", func(in *Incoming) {
		n, _ := in.Decoder().ULong()
		s, err := sumBody(in)
		in.Release()
		if err != nil {
			_ = in.ReplySystemException("MARSHAL", err.Error())
			return
		}
		reply(in, s, in.Parked(), n)
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(reg, WithStripes(1))
	defer cli.Close()

	big := make([]float64, bigDoubles)
	want := 0.0
	for i := range big {
		big[i] = float64(i)
		want += big[i]
	}
	invoke := func(key, op string, v []float64) (float64, bool) {
		t.Helper()
		rh, order, body, err := cli.Invoke(context.Background(), ep, requestHeader(cli, key, op),
			func(e *cdr.Encoder) { e.PutDoubleSeq(v) })
		if err != nil || rh.Status != giop.ReplyOK {
			t.Fatalf("%s %s: %v %v", key, op, rh.Status, err)
		}
		d := cdr.NewDecoderAt(order, body, 8)
		s, _ := d.Double()
		parked, _ := d.Boolean()
		if n, err := d.ULong(); err != nil || int(n) != len(v) {
			t.Fatalf("%s %s: handler saw %d elements (%v), sent %d", key, op, n, err, len(v))
		}
		return s, parked
	}

	for _, c := range []struct {
		key, op     string
		v           []float64
		sum         float64
		parked      bool
		gets, puts  uint64
		description string
	}{
		{"landing", "land", big, want, true, 0, 0, "landed"},
		{"landing", "whole", big, want, true, 1, 1, "read whole"},
		{"landing", "skim", big, -1, true, 0, 0, "released unread"},
		{"landing", "land", big[:4], 6, true, 0, 0, "small landed"},
		{"landing", "whole", big[:4], 6, true, 0, 0, "small read whole"},
		{"landing", "skim", big[:4], -1, true, 0, 0, "small released unread"},
		{"plain", "op", big, want, false, 1, 1, "plain key"},
		{"plain", "op", big[:4], 6, false, 0, 0, "small to a plain key"},
	} {
		g0, p0 := largeBodyLedger()
		sum, parked := invoke(c.key, c.op, c.v)
		if sum != c.sum || parked != c.parked {
			t.Fatalf("%s: sum %v parked %v, want %v and %v", c.description, sum, parked, c.sum, c.parked)
		}
		awaitLedger(t, c.description, g0, p0, c.gets, c.puts)
		// The connection is framed after every path: a small request
		// on it is answered.
		if sum, _ := invoke("landing", "land", big[:3]); sum != 3 {
			t.Fatalf("after %s: probe sum %v", c.description, sum)
		}
	}
}

// TestParkedRequestPanicSkimmed: a servant that panics on a parked
// request, larger than the read buffer or not, is answered UNKNOWN, its
// body is skimmed, and the connection serves the next request.
func TestParkedRequestPanicSkimmed(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	defer srv.Close()
	srv.HandleLanding("landing", func(in *Incoming) {
		if !in.Parked() {
			_ = in.ReplySystemException("BAD_OPERATION", "request to a landing key not parked")
			return
		}
		if in.Header.Operation == "panic" {
			panic("servant fails on a parked request")
		}
		in.Release()
		_ = in.Reply(giop.ReplyOK, nil)
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(reg, WithStripes(1))
	defer cli.Close()
	for i, c := range []struct {
		n    int
		op   string
		want giop.ReplyStatus
	}{
		{bigDoubles, "panic", giop.ReplySystemException}, {4, "op", giop.ReplyOK},
		{4, "panic", giop.ReplySystemException}, {bigDoubles, "op", giop.ReplyOK},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		rh, _, _, err := cli.Invoke(ctx, ep, requestHeader(cli, "landing", c.op),
			func(e *cdr.Encoder) { e.PutDoubleSeq(make([]float64, c.n)) })
		cancel()
		if err != nil || rh.Status != c.want {
			t.Fatalf("request %d (%d doubles): %v %v, want %v", i, c.n, rh.Status, err, c.want)
		}
	}
}

// TestParkedRequestOutlivesConnection: a request parked in a consumer
// that has not acted yet does not hold its read loop past Server.Close,
// and landing it afterwards fails with ErrConnectionLost instead of
// waiting for a read loop that is gone.
func TestParkedRequestOutlivesConnection(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	parked := make(chan *Incoming, 1)
	srv.HandleLanding("landing", func(in *Incoming) { parked <- in })
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(reg)
	defer cli.Close()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _, _, _ = cli.Invoke(ctx, ep, requestHeader(cli, "landing", "op"),
			func(e *cdr.Encoder) { e.PutDoubleSeq(make([]float64, bigDoubles)) })
	}()
	in := <-parked
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close is stuck behind a parked request")
	}
	if err := in.Land(&sumLander{base: in.BodyBase}); !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("landing after the connection closed: %v, want ErrConnectionLost", err)
	}
	in.Release() // a no-op now
}

// TestFarFutureDeadlineServed: a propagated deadline budget too long
// for a time.Duration is clamped, not wrapped: 1<<62 µs times 1000 is 0
// mod 2^64, and 1<<63 µs would turn negative, either of which used to
// put the request's expiry at or before its arrival and shed it with
// TIMEOUT. The request is served with an expiry centuries away.
func TestFarFutureDeadlineServed(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	defer srv.Close()
	srv.Handle("echo", func(in *Incoming) {
		if time.Until(in.Expiry) < 100*365*24*time.Hour {
			_ = in.ReplySystemException("BAD_PARAM", "expiry "+in.Expiry.String())
			return
		}
		_ = in.Reply(giop.ReplyOK, nil)
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := reg.Dial(ep)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for i, budget := range []uint64{1 << 62, 1 << 63, math.MaxUint64, uint64(maxBudgetMicros) + 1} {
		h := giop.RequestHeader{
			RequestID: uint32(i), ResponseExpected: true, ObjectKey: "echo", Operation: "op",
			ThreadRank: -1, ThreadCount: 1, DeadlineMicros: budget,
		}
		e := cdr.NewEncoder(cdr.NativeOrder)
		h.Encode(e)
		if err := giop.WriteMessage(raw, cdr.NativeOrder, giop.MsgRequest, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := giop.ReadFrame(raw)
		if err != nil {
			t.Fatalf("budget %d µs: no reply: %v", budget, err)
		}
		d := cdr.NewDecoder(f.Order, f.Body)
		rh, err := giop.DecodeReplyHeader(d)
		if err != nil || rh.RequestID != uint32(i) {
			t.Fatalf("budget %d µs: reply %+v (%v)", budget, rh, err)
		}
		if rh.Status != giop.ReplyOK {
			ex, _ := giop.DecodeSystemException(d)
			t.Fatalf("budget %d µs: %v %+v, want the request served", budget, rh.Status, ex)
		}
	}
}
