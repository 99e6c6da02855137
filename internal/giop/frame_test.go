package giop

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/telemetry"
)

// buffersRecorder implements BuffersWriter and records whether the
// gather path was taken.
type buffersRecorder struct {
	bytes.Buffer
	gathered bool
}

func (r *buffersRecorder) WriteBuffers(v *net.Buffers) (int64, error) {
	r.gathered = true
	return v.WriteTo(&r.Buffer)
}

// TestWriteMessageGatherPath: a writer exposing WriteBuffers must
// receive the frame through it, and the wire bytes must be identical
// to the plain-io.Writer path.
func TestWriteMessageGatherPath(t *testing.T) {
	body := []byte("gathered body bytes")
	var plain bytes.Buffer
	if err := WriteMessage(&plain, cdr.BigEndian, MsgRequest, body); err != nil {
		t.Fatal(err)
	}
	var rec buffersRecorder
	if err := WriteMessage(&rec, cdr.BigEndian, MsgRequest, body); err != nil {
		t.Fatal(err)
	}
	if !rec.gathered {
		t.Fatal("WriteMessage did not use the BuffersWriter fast path")
	}
	if !bytes.Equal(plain.Bytes(), rec.Bytes()) {
		t.Fatalf("gather path wire bytes diverge:\n% x\n% x", plain.Bytes(), rec.Bytes())
	}
}

// TestWriteEncodedBodyLimit: the body length WriteEncoded announces and
// bounds by MaxBodyLen is the whole body — the encoder's own bytes plus
// every spliced block — so a message whose blocks alone pass the limit
// is refused before a byte is written.
func TestWriteEncodedBodyLimit(t *testing.T) {
	blk := make([]float64, 1<<17) // 1 MiB, referenced over and over
	e := AcquireEncoder(cdr.NativeOrder)
	defer e.Release()
	e.PutULong(7)
	for n := 0; n <= MaxBodyLen/(len(blk)*8); n++ {
		e.PutDoublesRef(blk)
	}
	if len(e.Bytes()) > 8 {
		t.Fatalf("encoder holds %d bytes: the blocks were copied, not spliced", len(e.Bytes()))
	}
	var rec buffersRecorder
	if err := WriteEncoded(&rec, MsgRequest, e.Encoder); !errors.Is(err, ErrTooLong) {
		t.Fatalf("oversized gathered body: %v, want ErrTooLong", err)
	}
	if rec.Len() != 0 {
		t.Fatalf("%d bytes written for a refused frame", rec.Len())
	}
}

// TestFrameReaderRoundTrip streams a mixed sequence of frames through
// a FrameReader and checks types, orders and bodies survive.
func TestFrameReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []struct {
		t    MsgType
		o    cdr.ByteOrder
		body []byte
	}{
		{MsgRequest, cdr.BigEndian, []byte("request body")},
		{MsgCancelRequest, cdr.LittleEndian, []byte{1, 2, 3, 4}},
		{MsgReply, cdr.LittleEndian, bytes.Repeat([]byte("r"), 2048)},
		{MsgCloseConnection, cdr.BigEndian, nil},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m.o, m.t, m.body); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	for i, m := range msgs {
		f, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != m.t || f.Order != m.o || !bytes.Equal(f.Body, m.body) {
			t.Fatalf("frame %d: got %v/%v/% x", i, f.Type, f.Order, f.Body)
		}
		f.Release()
	}
	if _, err := fr.ReadFrame(); err != io.EOF {
		t.Fatalf("after stream end: %v", err)
	}
}

// TestPooledEncoderDoubleRelease: releasing an encoder twice must not
// hand the same buffer to two subsequent acquirers.
func TestPooledEncoderDoubleRelease(t *testing.T) {
	e := AcquireEncoder(cdr.BigEndian)
	e.PutULong(1)
	e.Release()
	e.Release() // must be a no-op

	a := AcquireEncoder(cdr.BigEndian)
	b := AcquireEncoder(cdr.BigEndian)
	if a == b {
		t.Fatal("double release put the encoder into the pool twice")
	}
	a.PutULong(0xAAAAAAAA)
	b.PutULong(0xBBBBBBBB)
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two live pooled encoders share a buffer")
	}
	a.Release()
	b.Release()
}

// TestFrameDoubleRelease: a pooled control-frame body released twice
// (directly and through a copy of the frame) must not corrupt later
// frames by entering the pool twice.
func TestFrameDoubleRelease(t *testing.T) {
	var buf bytes.Buffer
	for i := byte(0); i < 3; i++ {
		if err := WriteMessage(&buf, cdr.BigEndian, MsgCancelRequest, []byte{i, i, i, i}); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	f0, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	dup := f0
	f0.Release()
	dup.Release() // second release of the same pooled body: no-op

	// If the body had been pooled twice, these two live frames would
	// alias one buffer and the second read would clobber the first.
	f1, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1.Body, []byte{1, 1, 1, 1}) {
		t.Fatalf("frame 1 body corrupted after double release: % x", f1.Body)
	}
	if !bytes.Equal(f2.Body, []byte{2, 2, 2, 2}) {
		t.Fatalf("frame 2 body corrupted: % x", f2.Body)
	}
	f1.Release()
	f2.Release()
}

// TestReplyBodyValidAfterRelease: a reply body below the recycling
// boundary escapes its read loop as a plain allocation (it is handed to
// a waiting invoker), so Release on its frame must be a no-op and the
// body must stay intact while later frames are read and released.
func TestReplyBodyValidAfterRelease(t *testing.T) {
	var buf bytes.Buffer
	replyBody := []byte("reply payload that outlives the frame")
	if err := WriteMessage(&buf, cdr.BigEndian, MsgReply, replyBody); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := WriteMessage(&buf, cdr.BigEndian, MsgCancelRequest, []byte{9, 9, 9, 9}); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	f, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	body := f.Body
	f.Release()
	for i := 0; i < 4; i++ {
		cf, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		cf.Release()
	}
	if !bytes.Equal(body, replyBody) {
		t.Fatalf("reply body corrupted after release + later reads: % x", body)
	}
}

// TestPooledEncoderConcurrent hammers acquire/encode/write/release
// from many goroutines; run under -race it proves the pooling
// discipline is data-race free and buffers are never shared while
// live.
func TestPooledEncoderConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			pattern := byte(g + 1)
			for i := 0; i < 500; i++ {
				e := AcquireEncoder(cdr.LittleEndian)
				for j := 0; j < 16; j++ {
					e.PutOctet(pattern)
				}
				got := e.Bytes()
				for j, b := range got {
					if b != pattern {
						t.Errorf("goroutine %d: byte %d = %#x, buffer shared while live", g, j, b)
						break
					}
				}
				if err := WriteMessage(io.Discard, cdr.LittleEndian, MsgRequest, got); err != nil {
					t.Error(err)
				}
				e.Release()
			}
		}()
	}
	wg.Wait()
}

// TestFrameReaderPooledBodyOnlyControl: below DefaultReadBufSize only
// control bodies are pooled — oversized control bodies and small
// request/reply bodies bypass the pools (Release is a no-op for them),
// so the read path of every small Request and Reply is unchanged.
func TestFrameReaderPooledBodyOnlyControl(t *testing.T) {
	var buf bytes.Buffer
	big := make([]byte, pooledBodyMax+1)
	if err := WriteMessage(&buf, cdr.BigEndian, MsgError, big); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(&buf, cdr.BigEndian, MsgRequest, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(&buf, cdr.BigEndian, MsgReply, make([]byte, DefaultReadBufSize)); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	for _, what := range []string{"oversized control", "small request", "reply at the boundary"} {
		f, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.buf != nil {
			t.Fatalf("%s body drawn from a pool", what)
		}
	}
}

// TestFrameReaderRecyclesLargeBodies: Request and Reply bodies above
// DefaultReadBufSize come from the size-classed pools — the request
// and reply of one invocation, a few dozen bytes apart, share a class —
// while a large body of any other type is allocated as before. A
// detached body stays valid after the frame is released, and a double
// Release does not put a buffer into its pool twice.
func TestFrameReaderRecyclesLargeBodies(t *testing.T) {
	const n = 8<<20 + 150
	req, rep := bytes.Repeat([]byte{1}, n), bytes.Repeat([]byte{2}, n-40)
	var buf bytes.Buffer
	for _, m := range []struct {
		t    MsgType
		body []byte
	}{{MsgRequest, req}, {MsgReply, rep}, {MsgBlockTransfer, req}} {
		if err := WriteMessage(&buf, cdr.NativeOrder, m.t, m.body); err != nil {
			t.Fatal(err)
		}
	}
	cq, _ := largeClass(len(req))
	if cp, _ := largeClass(len(rep)); cq != cp {
		t.Fatalf("request (%d B) and reply (%d B) fall in different classes", len(req), len(rep))
	}
	fr := NewFrameReader(&buf)
	fq, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if fq.buf == nil || fp.buf == nil {
		t.Fatal("large request/reply body not drawn from the recycler")
	}
	if fb.buf != nil {
		t.Fatal("large block-transfer body drawn from the recycler")
	}
	if _, size := largeClass(n); (cap(fq.Body) != n && cap(fq.Body) != size) || size > n+n/8 {
		t.Fatalf("body capacity %d, class size %d for %d bytes", cap(fq.Body), size, n)
	}
	if !bytes.Equal(fq.Body, req) || !bytes.Equal(fp.Body, rep) {
		t.Fatal("recycled bodies do not hold the frames' bytes")
	}

	held := fp.Detach()
	fp.Release() // the frame no longer owns the body: a no-op
	if !bytes.Equal(fp.Body, rep) {
		t.Fatal("detached body changed when its frame was released")
	}
	held.Release()
	held.Release() // no-op: the buffer enters its pool once
	fq.Release()
	fq.Release()

	a, b := bytes.Repeat([]byte{3}, n), bytes.Repeat([]byte{4}, n-8)
	buf.Reset()
	_ = WriteMessage(&buf, cdr.NativeOrder, MsgRequest, a)
	_ = WriteMessage(&buf, cdr.NativeOrder, MsgReply, b)
	f1, err1 := fr.ReadFrame()
	f2, err2 := fr.ReadFrame()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if &f1.Body[0] == &f2.Body[0] {
		t.Fatal("two live frames share one recycled buffer")
	}
	if !bytes.Equal(f1.Body, a) || !bytes.Equal(f2.Body, b) {
		t.Fatal("live recycled bodies clobbered each other")
	}
	f1.Release()
	f2.Release()
}

// TestFrameReaderTakesBackItsBody: a large body released on another
// goroutine comes back to the FrameReader that read it, for its next
// body of the class, without passing through the sync.Pool (which would
// keep it where a reader on another P cannot draw it); another reader
// never draws it, and a body of another class sends it to its pool.
func TestFrameReaderTakesBackItsBody(t *testing.T) {
	const n = 8<<20 + 150
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := WriteMessage(&buf, cdr.NativeOrder, MsgRequest, bytes.Repeat([]byte{byte(i)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteMessage(&buf, cdr.NativeOrder, MsgRequest, make([]byte, 2*n)); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	f, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	first := &f.Body[0]
	done := make(chan struct{})
	go func() { f.Release(); close(done) }()
	<-done
	if bb := fr.spare.Load(); bb == nil || &bb.b[:1][0] != first {
		t.Fatal("the released body did not go to its reader's spare")
	}
	if f, err = fr.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if &f.Body[0] != first {
		t.Fatal("the reader did not take back the body it read last")
	}
	if f.Body[0] != 1 || f.Body[n-1] != 1 {
		t.Fatal("the body taken back does not hold the frame's bytes")
	}
	f.Release()

	var other bytes.Buffer
	_ = WriteMessage(&other, cdr.NativeOrder, MsgRequest, make([]byte, n))
	g, err := NewFrameReader(&other).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if &g.Body[0] == first {
		t.Fatal("another reader drew this reader's spare")
	}
	g.Release()

	if f, err = fr.ReadFrame(); err != nil || &f.Body[0] != first {
		t.Fatal("the spare was not kept for its reader", err)
	}
	f.Release()
	if f, err = fr.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if &f.Body[0] == first || fr.spare.Load() != nil {
		t.Fatal("a body of another class did not send the spare to its pool")
	}
	f.Release()
}

// TestGetBufferSizes: a miss on an empty pool makes exactly the body's
// length, so a body nobody releases costs what an unpooled one did, and
// a pooled buffer made for a shorter body of the class is never handed
// out for a longer one — it is replaced by one of the class's full size.
// (sync.Pool may drop items, under -race at random, so the assertions
// hold whichever buffer comes back.)
func TestGetBufferSizes(t *testing.T) {
	var pool sync.Pool
	reg := telemetry.NewRegistry()
	gets, misses := reg.Counter("gets"), reg.Counter("misses")
	a := getBuffer(&pool, 100, 200, gets, misses)
	if len(a.b) != 100 || cap(a.b) != 100 {
		t.Fatalf("miss on an empty pool: len %d cap %d, want 100 and 100", len(a.b), cap(a.b))
	}
	a.Release()
	b := getBuffer(&pool, 150, 200, gets, misses)
	if b == a || len(b.b) != 150 || (cap(b.b) != 150 && cap(b.b) != 200) {
		t.Fatalf("150-byte body got len %d cap %d (reused the 100-byte buffer: %v)", len(b.b), cap(b.b), b == a)
	}
	b.Release()
	c := getBuffer(&pool, 120, 200, gets, misses)
	if len(c.b) != 120 || cap(c.b) < 120 {
		t.Fatalf("120-byte body got len %d cap %d", len(c.b), cap(c.b))
	}
	if gets.Value() != 3 || misses.Value() < 2 {
		t.Fatalf("ledger: %d gets, %d misses", gets.Value(), misses.Value())
	}
}

// TestLargeClass pins the class arithmetic: every length above
// DefaultReadBufSize up to MaxBodyLen maps into the pool table, to a
// capacity that holds it with at most an eighth to spare, and lengths
// that share a class share its capacity.
func TestLargeClass(t *testing.T) {
	prevClass, prevSize := -1, 0
	for _, n := range []int{DefaultReadBufSize + 1, DefaultReadBufSize + 8192, DefaultReadBufSize + 8193,
		1 << 17, 1<<17 + 1, 1<<20 - 1, 1 << 20, 1<<20 + 1, 9 << 20, 9<<20 + 1, MaxBodyLen - 1, MaxBodyLen} {
		c, size := largeClass(n)
		if c < 0 || c >= len(largePools) {
			t.Fatalf("largeClass(%d) = %d, outside the %d pools", n, c, len(largePools))
		}
		if size < n || size-n > n/8 {
			t.Fatalf("largeClass(%d): capacity %d", n, size)
		}
		if c < prevClass || (c == prevClass && size != prevSize) {
			t.Fatalf("largeClass(%d) = (%d, %d) after (%d, %d)", n, c, size, prevClass, prevSize)
		}
		prevClass, prevSize = c, size
	}
}
