package orb

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync"
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

// TestWindowPutBeforeRegistrationBuffered: a put that beats its
// window's registration waits for it on its connection and then lands
// straight off the wire, as a put for a registered window does: nothing
// is allocated for its payload, and nothing lands before the window
// registers.
func TestWindowPutBeforeRegistrationBuffered(t *testing.T) {
	bothOrders(t, func(t *testing.T, order cdr.ByteOrder) {
		cli, srv, ep := newPair(t, WithByteOrder(order))
		const n = 128 << 10 // a 1 MiB payload
		key := windowKey(t, 22, 1)
		want := make([]float64, n)
		for i := range want {
			want[i] = float64(i + 1)
		}
		// Over inproc the put's write returns only once the server has
		// read it, which is after the window registers.
		sent := make(chan error, 1)
		go func() {
			_, err := cli.PutWindow(ep, giop.WindowPutHeader{WindowID: key, Last: true}, want)
			sent <- err
		}()
		awaitPending(t, srv, 1)
		dst := make([]float64, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		win, cancel, err := srv.RegisterWindow(key, dst, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		waitDone(t, win)
		runtime.ReadMemStats(&after)
		if err := win.Err(); err != nil {
			t.Fatal(err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("element %d = %v, want %v", i, dst[i], want[i])
			}
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= n*8/2 {
			t.Fatalf("landing an early put allocated %d bytes for a %d-byte payload", grew, n*8)
		}
		if st := srv.BlockStats(); st.Pending != 0 {
			t.Fatalf("landed put still counted as waiting: %+v", st)
		}
	})
}

// TestEarlyPutBufferReuseKeepsData: early puts one after another on one
// connection each wait for their own window and land in it, so each
// window holds its own put's values and an earlier destination does not
// change when a later put lands.
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
			// Over inproc a put's write returns only once the server has
			// read it, which is after its window registers.
			sent := make(chan error, 1)
			go func() {
				_, err := cli.PutWindow(ep, giop.WindowPutHeader{WindowID: key, Last: true}, src)
				sent <- err
			}()
			awaitPending(t, srv, 1)
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
			if err := <-sent; err != nil {
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
		if c := putConns(cli, ep); c != 1 {
			t.Fatalf("the puts rode %d connections, want 1", c)
		}
	})
}

// TestWindowRegistrationRaceLandsPut pins the race the read loop cannot
// avoid: its window lookup misses, and the window registers before the
// read loop starts to wait. The wait must find the window at once
// instead of sleeping through the broadcast that already happened, and
// the put then lands, in either byte order.
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
		done := make(chan struct{})
		defer close(done)
		got := make(chan *Window, 1)
		go func() {
			srv.blocks.mu.Lock()
			w, _, _ := srv.blocks.awaitWindow(key, done)
			srv.blocks.mu.Unlock()
			got <- w
		}()
		select {
		case w := <-got:
			if w != win {
				t.Fatalf("the wait returned %v, want the registered window", w)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a put waits for a window that registered before its wait began")
		}

		want := make([]float64, n)
		for i := range want {
			want[i] = float64(i) * 3
		}
		e := cdr.NewEncoder(order)
		e.PutDoubles(want)
		frame := putFrame(order, giop.WindowPutHeader{WindowID: key, Count: n, Last: true},
			uint32(giop.WindowPutPayloadBase+8*n), e.Bytes())
		newServerConn(srv, streamConn{bytes.NewReader(frame)}, "race").readLoop()
		waitDone(t, win)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("element %d = %v, want %v", i, dst[i], want[i])
			}
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

// awaitPending waits until n puts wait for their windows on srv.
func awaitPending(t *testing.T, srv *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); srv.BlockStats().Pending != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%+v, want %d waiting puts", srv.BlockStats(), n)
		}
	}
}

// putConns returns how many put connections cli holds for endpoint.
func putConns(cli *Client, endpoint string) int {
	cli.mu.Lock()
	defer cli.mu.Unlock()
	if st := cli.stripes[stripeKey{endpoint, true}]; st != nil {
		return len(st.conns)
	}
	return 0
}

// TestFaultCancelledWindowPutSkimmed: cancelling a window that has not
// completed makes its epoch the window's floor, so the put still due
// for it is skimmed, and the next epoch's put on the same connection
// waits for its arming and lands.
func TestFaultCancelledWindowPutSkimmed(t *testing.T) {
	cli, srv, ep := newPair(t)
	const n = 64
	gone := windowKey(t, 32, 0)
	_, cancelGone, err := srv.RegisterWindow(gone, make([]float64, 2*n), 2*n, nil)
	if err != nil {
		t.Fatal(err)
	}
	blk := make([]float64, n)
	// The first half lands; the window is then given up incomplete.
	if _, err := cli.PutWindow(ep, giop.WindowPutHeader{WindowID: gone}, blk); err != nil {
		t.Fatal(err)
	}
	cancelGone()
	if _, err := cli.PutWindow(ep, giop.WindowPutHeader{WindowID: gone, DstOff: n, Last: true}, blk); err != nil {
		t.Fatal(err)
	}
	next := windowKey(t, 33, 0)
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i) - 0.5
	}
	// Over inproc a put's write returns only once the server has read it.
	sent := make(chan error, 1)
	go func() {
		_, err := cli.PutWindow(ep, giop.WindowPutHeader{WindowID: next, Last: true}, want)
		sent <- err
	}()
	awaitPending(t, srv, 1)
	dst := make([]float64, n)
	win, cancel, err := srv.RegisterWindow(next, dst, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	waitDone(t, win)
	if err := win.Err(); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, dst[i], want[i])
		}
	}
	if c := putConns(cli, ep); c != 1 {
		t.Fatalf("the puts rode %d connections, want 1", c)
	}
}

// teeTransport serves inproc endpoints and keeps what the dialer wrote
// on each connection it dialed.
type teeTransport struct {
	transport.Transport
	mu    sync.Mutex
	wrote []*bytes.Buffer
}

func (t *teeTransport) Dial(address string) (transport.Conn, error) {
	c, err := t.Transport.Dial(address)
	if err != nil {
		return nil, err
	}
	b := new(bytes.Buffer)
	t.mu.Lock()
	t.wrote = append(t.wrote, b)
	t.mu.Unlock()
	return &teeConn{Conn: c, t: t, b: b}, nil
}

type teeConn struct {
	transport.Conn
	t *teeTransport
	b *bytes.Buffer
}

func (c *teeConn) Write(p []byte) (int, error) {
	c.t.mu.Lock()
	c.b.Write(p)
	c.t.mu.Unlock()
	return c.Conn.Write(p)
}

// TestFaultRequestAndPutNeverShareConnection: a client's Requests and
// window puts to one endpoint ride different connections, however they
// interleave — a put that waits for its window stalls its connection,
// and the Request that registers the window must not queue behind it.
func TestFaultRequestAndPutNeverShareConnection(t *testing.T) {
	tee := &teeTransport{Transport: transport.NewInproc()}
	reg := transport.NewRegistry()
	reg.Register(tee)
	srv := NewServer(reg)
	defer srv.Close()
	key := windowKey(t, 34, 0)
	const n = 16
	// The request registers the window its client's put waits for.
	srv.Handle("arm", func(in *Incoming) {
		win, cancel, err := srv.RegisterWindow(key, make([]float64, n), n, nil)
		if err != nil {
			_ = in.ReplySystemException("BAD_PARAM", err.Error())
			return
		}
		defer cancel()
		select {
		case <-win.Done():
			_ = in.Reply(giop.ReplyOK, nil)
		case <-in.Ctx.Done():
		}
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(reg, WithStripes(1))
	defer cli.Close()
	sent := make(chan error, 1)
	go func() {
		_, err := cli.PutWindow(ep, giop.WindowPutHeader{WindowID: key, Last: true}, make([]float64, n))
		sent <- err
	}()
	awaitPending(t, srv, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rh, _, _, err := cli.Invoke(ctx, ep, requestHeader(cli, "arm", "op"), nil)
	if err != nil || rh.Status != giop.ReplyOK {
		t.Fatalf("the request that arms the put's window: %+v, %v", rh, err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	tee.mu.Lock()
	defer tee.mu.Unlock()
	for i, b := range tee.wrote {
		fr := giop.NewFrameReader(bytes.NewReader(b.Bytes()))
		var kinds [2]int // requests, puts
		for {
			f, err := fr.ReadFrame()
			if err != nil {
				break
			}
			switch f.Type {
			case giop.MsgRequest:
				kinds[0]++
			case giop.MsgWindowPut:
				kinds[1]++
			}
		}
		if kinds[0] > 0 && kinds[1] > 0 {
			t.Fatalf("connection %d carried %d requests and %d puts", i, kinds[0], kinds[1])
		}
	}
}

// TestFaultPutWaitEndsWithConnection: a put waiting for a window that
// never registers ends its wait when its connection ends, so the
// server's Close, which waits for every read loop, returns.
func TestFaultPutWaitEndsWithConnection(t *testing.T) {
	cli, srv, ep := newPair(t)
	go cli.PutWindow(ep, giop.WindowPutHeader{WindowID: windowKey(t, 36, 0), Last: true}, make([]float64, 8))
	awaitPending(t, srv, 1)
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hangs on a read loop whose put waits for its window")
	}
	if st := srv.BlockStats(); st.Pending != 0 {
		t.Fatalf("a put still waits after Close: %+v", st)
	}
}

// putAsync ships one put of vals to window id on its own goroutine:
// over inproc the write returns only once the server has read the put,
// so the channel answers only once it has landed or been skimmed.
func putAsync(cli *Client, ep string, id uint64, vals []float64) <-chan error {
	sent := make(chan error, 1)
	go func() {
		_, err := cli.PutWindow(ep, giop.WindowPutHeader{WindowID: id, Last: true}, vals)
		sent <- err
	}()
	return sent
}

// awaitSent fails the test unless the put behind sent has been read
// within a second.
func awaitSent(t *testing.T, sent <-chan error) {
	t.Helper()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("a put is still unread after 1 s")
	}
}

func filled(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestStaleEpochPutSkimmed: a put for an epoch below the armed one —
// a straggler of the binding's previous invocation — is skimmed: it
// neither lands in the armed epoch's destination nor counts toward its
// completion, and it does not wait. Fails when find lands a put in the
// armed window whatever its epoch.
func TestStaleEpochPutSkimmed(t *testing.T) {
	cli, srv, ep := newPair(t)
	const n = 16
	win, cancel, err := srv.RegisterWindow(windowKey(t, 6, 0), make([]float64, n), n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	dst := win.dst
	awaitSent(t, putAsync(cli, ep, windowKey(t, 5, 0), filled(n, -1)))
	if st := srv.BlockStats(); st.Pending != 0 {
		t.Fatalf("a stale put waits: %+v", st)
	}
	select {
	case <-win.Done():
		t.Fatal("a stale put completed the armed epoch")
	default:
	}
	awaitSent(t, putAsync(cli, ep, windowKey(t, 6, 0), filled(n, 6)))
	waitDone(t, win)
	if err := win.Err(); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		if v != 6 {
			t.Fatalf("element %d = %v, want 6", i, v)
		}
	}
	if win.Bytes() != n*8 {
		t.Fatalf("the epoch landed %d bytes, want %d", win.Bytes(), n*8)
	}
}

// TestHigherEpochPutWaitsForItsArming: a put for an epoch above the
// armed one — the binding's next invocation, whose put beat this one's
// end — waits, lands nothing in the armed epoch's destination, and
// lands in its own once that epoch is armed on the same window. Fails
// when find lands a put in the armed window whatever its epoch.
func TestHigherEpochPutWaitsForItsArming(t *testing.T) {
	cli, srv, ep := newPair(t)
	const n = 16
	first := make([]float64, n)
	win, cancel, err := srv.RegisterWindow(windowKey(t, 7, 1), first, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	sent := putAsync(cli, ep, windowKey(t, 8, 1), filled(n, 8))
	awaitPending(t, srv, 1)
	for i, v := range first {
		if v != 0 {
			t.Fatalf("the next epoch's put wrote %v at element %d of the armed one", v, i)
		}
	}
	awaitSent(t, putAsync(cli, ep, windowKey(t, 7, 1), filled(n, 7)))
	waitDone(t, win)
	cancel()
	second := make([]float64, n)
	again, cancel, err := srv.RegisterWindow(windowKey(t, 8, 1), second, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if again != win {
		t.Fatal("the binding's next epoch armed a new window")
	}
	awaitSent(t, sent)
	waitDone(t, again)
	for i := range second {
		if first[i] != 7 || second[i] != 8 {
			t.Fatalf("element %d: epochs hold %v and %v, want 7 and 8", i, first[i], second[i])
		}
	}
}

// TestEndEpochWithoutWindowSkims: ending an epoch of a binding that
// has no window on the server yet — a refused invocation's first —
// ends the puts that wait for it within a second, and those of later
// epochs still wait. Fails when ending an epoch keeps no floor for a
// binding without windows.
func TestEndEpochWithoutWindowSkims(t *testing.T) {
	cli, srv, ep := newPair(t)
	const inv = 0x00AB_0000_0000_0010
	sent := putAsync(cli, ep, windowKey(t, inv, 2), make([]float64, 4))
	later := putAsync(cli, ep, windowKey(t, inv+1, 0), make([]float64, 4))
	awaitPending(t, srv, 2)
	srv.EndEpoch(inv)
	awaitSent(t, sent)
	awaitPending(t, srv, 1)
	dst := make([]float64, 4)
	win, cancel, err := srv.RegisterWindow(windowKey(t, inv+1, 0), dst, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	awaitSent(t, later)
	waitDone(t, win)
}

// TestDropWindowsEndsWaitingPut: dropping a binding's windows — its
// lease expired — fails the epoch armed and skims within a second a put
// that waited on them for that epoch, so its connection reads on. A
// put for a later epoch — a live client's next invocation, whose lease
// lapsed while the put waited — waits on, and lands once its epoch is
// armed on the windows made afresh. Fails when a wait forgets the
// windows it waited on, and when a drop skims every put waiting on them.
func TestDropWindowsEndsWaitingPut(t *testing.T) {
	cli, srv, ep := newPair(t)
	const inv = 0x00CD_0000_0000_0040
	win, _, err := srv.RegisterWindow(windowKey(t, inv, 0), make([]float64, 4), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	sent := putAsync(cli, ep, windowKey(t, inv, 1), make([]float64, 4))
	later := putAsync(cli, ep, windowKey(t, inv+1, 0), filled(4, 1))
	awaitPending(t, srv, 2)
	srv.DropWindows(inv >> 32)
	awaitSent(t, sent)
	waitDone(t, win)
	if win.Err() == nil {
		t.Fatal("the epoch armed when its windows were dropped succeeded")
	}
	win.Cancel() // harmless after the drop
	if st := srv.BlockStats(); st != (BlockRouterStats{Pending: 1}) {
		t.Fatalf("%+v after the drop, want the later epoch's put waiting", st)
	}
	dst := make([]float64, 4)
	again, cancel, err := srv.RegisterWindow(windowKey(t, inv+1, 0), dst, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again == win {
		t.Fatal("the dropped window was armed again")
	}
	awaitSent(t, later)
	waitDone(t, again)
	cancel()
	if err := again.Err(); err != nil || dst[3] != 1 {
		t.Fatalf("the later epoch: err %v, dst %v", err, dst)
	}
	if st := srv.BlockStats(); st != (BlockRouterStats{}) {
		t.Fatalf("%+v after the later epoch", st)
	}
}

// TestEpochWrapLandsPuts: the invocation counter wraps from 2^32-1 to
// 0 without skimming or stranding a binding's puts — each epoch's put,
// early or late, lands in its own arming — while a straggler from before
// the wrap is still skimmed. Fails when epochs compare as plain
// integers.
func TestEpochWrapLandsPuts(t *testing.T) {
	cli, srv, ep := newPair(t)
	ids := NewClient(nil)
	defer ids.Close()
	ids.invCounter.Store(1<<32 - 3)
	const n = 8
	var past []uint64
	for round := 0; round < 4; round++ {
		inv := ids.NewInvocationID()
		key := windowKey(t, inv, 0)
		early := round%2 == 0
		var sent <-chan error
		if early {
			sent = putAsync(cli, ep, key, filled(n, float64(round)))
			awaitPending(t, srv, 1)
		}
		dst := make([]float64, n)
		win, cancel, err := srv.RegisterWindow(key, dst, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !early {
			for _, old := range past {
				awaitSent(t, putAsync(cli, ep, windowKey(t, old, 0), filled(n, -1)))
			}
			sent = putAsync(cli, ep, key, filled(n, float64(round)))
		}
		awaitSent(t, sent)
		waitDone(t, win)
		cancel()
		for i, v := range dst {
			if v != float64(round) {
				t.Fatalf("epoch %#x element %d = %v, want %d", uint32(inv), i, v, round)
			}
		}
		past = append(past, inv)
	}
	if c := uint32(past[len(past)-1]); c != 1 {
		t.Fatalf("the last epoch is %#x: the counter did not wrap", c)
	}
}

// TestArmDisarmAllocatesNothing: re-arming a binding's window and
// disarming it allocates nothing; only its first arming makes the
// window.
func TestArmDisarmAllocatesNothing(t *testing.T) {
	srv := NewServer(nil)
	defer srv.Close()
	dst := make([]float64, 4)
	inv := uint64(0x00EF_0000_0000_0001)
	arm := func() {
		w, _, err := srv.RegisterWindow(inv<<8, dst, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		w.Cancel()
		inv++
	}
	arm()
	if n := testing.AllocsPerRun(100, arm); n != 0 {
		t.Fatalf("an arm and a disarm allocate %v times", n)
	}
}
