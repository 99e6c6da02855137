package orb

import (
	"context"
	"errors"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/telemetry"
	"pardis/internal/transport"
)

// bigDoubles is an element count whose sequence makes a frame body
// larger than the FrameReader's buffer, so the body is recycled.
const bigDoubles = giop.DefaultReadBufSize / 8 * 2

// largeBodyLedger reads the recycler's process-wide counts: large
// Request/Reply bodies drawn from their pools and handed back.
func largeBodyLedger() (gets, puts uint64) {
	return telemetry.Default.Counter("pardis_giop_pool_gets_total", "pool", "large_body").Value(),
		telemetry.Default.Counter("pardis_giop_pool_puts_total", "pool", "large_body").Value()
}

// awaitLedger waits until the recycler has seen wantGets draws and
// wantPuts returns since (g0, p0) — the read loops release on their own
// goroutines — and fails if it settles anywhere else. More returns than
// draws would mean a body went back twice.
func awaitLedger(t *testing.T, what string, g0, p0, wantGets, wantPuts uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g, p := largeBodyLedger()
		if g-g0 == wantGets && p-p0 == wantPuts {
			return
		}
		if p-p0 > g-g0 || time.Now().After(deadline) {
			t.Fatalf("%s: %d large bodies drawn and %d handed back, want %d and %d",
				what, g-g0, p-p0, wantGets, wantPuts)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLargeReplyReleasedOnce follows a recycled reply body through every
// way a client can end with it: InvokeRef's caller releases it (a
// second Release is a no-op); a reply that arrives after its waiter gave
// up is released by the read loop that finds no pending entry; Invoke's
// caller keeps its body, which is then never handed back — left to the
// garbage collector, as before recycling existed.
func TestLargeReplyReleasedOnce(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	defer srv.Close()
	big := make([]float64, bigDoubles)
	for i := range big {
		big[i] = float64(i)
	}
	late := make(chan struct{})
	srv.Handle("big", func(in *Incoming) {
		if in.Header.Operation == "late" {
			<-late
		}
		_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutDoubleSeq(big) })
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(reg)
	defer cli.Close()
	ref := &ior.Ref{TypeID: "IDL:big:1.0", Key: "big", Threads: 1, Endpoints: []string{ep}}

	g0, p0 := largeBodyLedger()
	r, err := cli.InvokeRef(context.Background(), ref, requestHeader(cli, "big", "op"), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cdr.NewDecoderAt(r.Order, r.Body, 8).DoubleSeq()
	if err != nil || len(got) != len(big) || got[len(got)-1] != big[len(big)-1] {
		t.Fatalf("reply: %d doubles (%v)", len(got), err)
	}
	r.Release()
	r.Release()
	if r.Body != nil {
		t.Fatal("Body still set after Release")
	}
	awaitLedger(t, "released by InvokeRef's caller", g0, p0, 1, 1)

	g0, p0 = largeBodyLedger()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, err = cli.InvokeRef(ctx, ref, requestHeader(cli, "big", "late"), nil)
	cancel()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("late invocation: %v, want ErrCanceled", err)
	}
	close(late)
	awaitLedger(t, "reply after its waiter gave up", g0, p0, 1, 1)

	g0, p0 = largeBodyLedger()
	if _, _, body, err := cli.Invoke(context.Background(), ep, requestHeader(cli, "big", "op"), nil); err != nil || len(body) < len(big)*8 {
		t.Fatalf("Invoke: %d body bytes (%v)", len(body), err)
	}
	awaitLedger(t, "kept by Invoke's caller", g0, p0, 1, 0)
}

// TestLargeRequestReleasedOnce: a recycled request body goes back once
// its handler releases it (a second Release is a no-op), and the server
// releases it itself when it answers the request without a handler ever
// seeing it.
func TestLargeRequestReleasedOnce(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	defer srv.Close()
	srv.Handle("sum", func(in *Incoming) {
		v, err := in.Decoder().DoubleSeq()
		in.Release()
		in.Release()
		if err != nil || in.Body != nil {
			_ = in.ReplySystemException("MARSHAL", "body unreadable or kept after Release")
			return
		}
		_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutULong(uint32(len(v))) })
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(reg)
	defer cli.Close()
	big := make([]float64, bigDoubles)
	body := func(e *cdr.Encoder) { e.PutDoubleSeq(big) }

	g0, p0 := largeBodyLedger()
	rh, order, reply, err := cli.Invoke(context.Background(), ep, requestHeader(cli, "sum", "op"), body)
	if err != nil || rh.Status != giop.ReplyOK {
		t.Fatalf("invoke: %v %v", rh.Status, err)
	}
	if n, _ := cdr.NewDecoderAt(order, reply, 8).ULong(); n != bigDoubles {
		t.Fatalf("server decoded %d doubles", n)
	}
	awaitLedger(t, "released by its handler", g0, p0, 1, 1)

	g0, p0 = largeBodyLedger()
	rh, _, _, err = cli.Invoke(context.Background(), ep, requestHeader(cli, "nobody", "op"), body)
	if err != nil || rh.Status != giop.ReplySystemException {
		t.Fatalf("unknown object: %v %v", rh.Status, err)
	}
	awaitLedger(t, "answered without a handler", g0, p0, 1, 1)
}
