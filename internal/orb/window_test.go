package orb

import (
	"context"
	"strings"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/transport"
)

func windowKey(t *testing.T, inv uint64, argIdx uint32) uint64 {
	t.Helper()
	key, err := giop.BlockSinkKey(inv, argIdx)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func waitDone(t *testing.T, w *Window) {
	t.Helper()
	select {
	case <-w.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("window did not complete")
	}
}

func TestWindowPutEndToEnd(t *testing.T) {
	bothOrders(t, func(t *testing.T, order cdr.ByteOrder) {
		cli, srv, ep := newPair(t, WithByteOrder(order))
		const n = 512
		dst := make([]float64, n)
		key := windowKey(t, 21, 0)
		win, cancel, err := srv.RegisterWindow(key, dst, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()

		want := make([]float64, n)
		for i := range want {
			want[i] = float64(i) * 0.5
		}
		// Two puts, highest offset first: landing is element-counted, not
		// ordered.
		for _, off := range []int{n / 2, 0} {
			h := giop.WindowPutHeader{WindowID: key, FromThread: 3, DstOff: uint32(off), Last: off == 0}
			nb, err := cli.PutWindow(ep, h, want[off:off+n/2])
			if err != nil {
				t.Fatal(err)
			}
			if nb != n/2*8 {
				t.Fatalf("put accounted %d bytes, want %d", nb, n/2*8)
			}
		}
		waitDone(t, win)
		if err := win.Err(); err != nil {
			t.Fatal(err)
		}
		if win.Bytes() != n*8 {
			t.Fatalf("window landed %d bytes, want %d", win.Bytes(), n*8)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("element %d = %v, want %v", i, dst[i], want[i])
			}
		}
		cancel()
		if st := srv.BlockStats(); st.Windows != 0 || st.Pending != 0 {
			t.Fatalf("window leak after cancel: %+v", st)
		}
	})
}

func TestWindowPutBeforeRegistrationBuffered(t *testing.T) {
	bothOrders(t, func(t *testing.T, order cdr.ByteOrder) {
		cli, srv, ep := newPair(t, WithByteOrder(order))
		const n = 64
		key := windowKey(t, 22, 1)
		want := make([]float64, n)
		for i := range want {
			want[i] = float64(i + 1)
		}
		h := giop.WindowPutHeader{WindowID: key, FromThread: 0, DstOff: 0, Last: true}
		if _, err := cli.PutWindow(ep, h, want); err != nil {
			t.Fatal(err)
		}
		// The put raced ahead of registration; wait until the router has
		// parked it under the pending budgets.
		deadline := time.Now().Add(10 * time.Second)
		for srv.BlockStats().Pending == 0 {
			if time.Now().After(deadline) {
				t.Fatal("early put never buffered")
			}
			time.Sleep(time.Millisecond)
		}
		dst := make([]float64, n)
		win, cancel, err := srv.RegisterWindow(key, dst, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		waitDone(t, win)
		if err := win.Err(); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("element %d = %v, want %v", i, dst[i], want[i])
			}
		}
		if st := srv.BlockStats(); st.Pending != 0 || st.PendingBytes != 0 {
			t.Fatalf("flushed put still accounted as pending: %+v", st)
		}
	})
}

// TestEarlyPutBufferClasses pins the recycling rule of the parking
// buffers: a buffer is drawn at its class's full capacity, so a release
// finds the class again from the capacity alone, and sizes outside the
// pooled range are allocated exactly.
func TestEarlyPutBufferClasses(t *testing.T) {
	for _, c := range []struct{ n, class int }{
		{0, -1}, {1, 0}, {4096, 0}, {4097, 1}, {256 << 10, 6},
		{256<<10 + 8, 7}, {1 << 20, 8}, {1<<20 + 1, -1},
	} {
		if got := putBufClass(c.n); got != c.class {
			t.Errorf("putBufClass(%d) = %d, want %d", c.n, got, c.class)
		}
		if c.n == 0 {
			continue
		}
		bp := acquirePutBuf(c.n)
		wantCap := c.n
		if c.class >= 0 {
			wantCap = 1 << (c.class + minPutBufShift)
		}
		if len(*bp) != c.n || cap(*bp) != wantCap {
			t.Errorf("acquirePutBuf(%d): len %d cap %d, want cap %d", c.n, len(*bp), cap(*bp), wantCap)
		}
		releasePutBuf(bp)
	}
}

// TestEarlyPutBufferReuseKeepsData parks and flushes puts one after
// another, so later ones ride recycled buffers: each window must hold
// its own put's values, and an earlier destination must not change when
// its former buffer is overwritten.
func TestEarlyPutBufferReuseKeepsData(t *testing.T) {
	bothOrders(t, func(t *testing.T, order cdr.ByteOrder) {
		cli, srv, ep := newPair(t, WithByteOrder(order))
		const n = 1024
		var dsts [4][]float64
		for round := range dsts {
			key := windowKey(t, uint64(40+round), 0)
			src := make([]float64, n)
			for i := range src {
				src[i] = float64(round*n + i)
			}
			h := giop.WindowPutHeader{WindowID: key, DstOff: 0, Last: true}
			if _, err := cli.PutWindow(ep, h, src); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for srv.BlockStats().Pending == 0 {
				if time.Now().After(deadline) {
					t.Fatal("early put never buffered")
				}
				time.Sleep(time.Millisecond)
			}
			dsts[round] = make([]float64, n)
			win, cancel, err := srv.RegisterWindow(key, dsts[round], n, nil)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, win)
			cancel()
			if err := win.Err(); err != nil {
				t.Fatal(err)
			}
		}
		for round, dst := range dsts {
			for i, v := range dst {
				if v != float64(round*n+i) {
					t.Fatalf("round %d element %d = %v, want %v", round, i, v, float64(round*n+i))
				}
			}
		}
	})
}

// TestWindowRegistrationRaceLandsPut pins the race the read loop cannot
// avoid: its window lookup misses, the window registers (flushing an
// empty pending set), and only then does the read loop try to buffer
// the put. bufferWindowPut must land the put into the now-registered
// window instead of parking it forever.
func TestWindowRegistrationRaceLandsPut(t *testing.T) {
	bothOrders(t, func(t *testing.T, order cdr.ByteOrder) {
		_, srv, _ := newPair(t)
		const n = 16
		key := windowKey(t, 23, 0)
		dst := make([]float64, n)
		win, cancel, err := srv.RegisterWindow(key, dst, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()

		want := make([]float64, n)
		for i := range want {
			want[i] = float64(i) * 3
		}
		e := cdr.NewEncoder(order)
		e.PutDoubles(want)
		h := giop.WindowPutHeader{WindowID: key, FromThread: 0, DstOff: 0, Count: n, Last: true}
		payload := e.Bytes()
		if err := srv.blocks.bufferWindowPut(h, order, &payload); err != nil {
			t.Fatal(err)
		}
		waitDone(t, win)
		if err := win.Err(); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("element %d = %v, want %v", i, dst[i], want[i])
			}
		}
		if st := srv.BlockStats(); st.Pending != 0 {
			t.Fatalf("raced put parked as pending instead of landing: %+v", st)
		}
	})
}

func TestWindowRangeViolationPoisonsWindowNotConnection(t *testing.T) {
	cli, srv, ep := newPair(t)
	const n = 32
	dst := make([]float64, n)
	key := windowKey(t, 24, 0)
	win, cancel, err := srv.RegisterWindow(key, dst, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	h := giop.WindowPutHeader{WindowID: key, FromThread: 0, DstOff: n, Last: true}
	if _, err := cli.PutWindow(ep, h, make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	waitDone(t, win)
	if err := win.Err(); err == nil || !strings.Contains(err.Error(), "exceeds destination") {
		t.Fatalf("want range violation, got %v", err)
	}
	// The violation poisons the window, not the stream: the same
	// connection must still answer requests.
	if _, _, _, err := cli.Invoke(context.Background(), ep,
		requestHeader(cli, "echo", "op"),
		func(e *cdr.Encoder) { e.PutString("still-alive") }); err != nil {
		t.Fatalf("connection unusable after poisoned window: %v", err)
	}
}

func TestDuplicateWindowRejected(t *testing.T) {
	_, srv, _ := newPair(t)
	key := windowKey(t, 25, 0)
	_, cancel, err := srv.RegisterWindow(key, make([]float64, 4), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, _, err := srv.RegisterWindow(key, make([]float64, 4), 4, nil); err == nil {
		t.Fatal("duplicate window registration accepted")
	}
	cancel()
	cancel() // idempotent
	if st := srv.BlockStats(); st.Windows != 0 {
		t.Fatalf("window survives cancel: %+v", st)
	}
}

func TestWindowPutCrossOrder(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(reg, WithByteOrder(foreignOrder()))
	defer cli.Close()

	const n = 100_000 // several swap chunks on the cross-order land path
	dst := make([]float64, n)
	key := windowKey(t, 26, 0)
	win, cancel, err := srv.RegisterWindow(key, dst, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i) / 7
	}
	h := giop.WindowPutHeader{WindowID: key, FromThread: 0, DstOff: 0, Last: true}
	if _, err := cli.PutWindow(ep, h, want); err != nil {
		t.Fatal(err)
	}
	waitDone(t, win)
	if err := win.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestWindowOnPutRunsPerLandedPut(t *testing.T) {
	cli, srv, ep := newPair(t)
	const n = 8
	dst := make([]float64, 2*n)
	key := windowKey(t, 27, 0)
	ch := make(chan struct{}, 4)
	win, cancel, err := srv.RegisterWindow(key, dst, 2*n, func() {
		ch <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	blk := make([]float64, n)
	for _, off := range []uint32{0, n} {
		h := giop.WindowPutHeader{WindowID: key, FromThread: 0, DstOff: off, Last: off == n}
		if _, err := cli.PutWindow(ep, h, blk); err != nil {
			t.Fatal(err)
		}
	}
	waitDone(t, win)
	for i := 0; i < 2; i++ {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("onPut did not run for each landed put")
		}
	}
}
