package giop

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"pardis/internal/cdr"
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

// TestReadBodyInSteps: a body is read into a buffer that grows as its
// bytes arrive. A body delivered whole survives the steps intact in
// exactly its own length; one whose header announces 512 MiB and then
// stops costs what arrived, not what was announced.
func TestReadBodyInSteps(t *testing.T) {
	const n = 17*DefaultReadBufSize + 7 // two steps: n>>4, then n
	body := make([]byte, n)
	for i := range body {
		body[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, cdr.NativeOrder, MsgReply, body); err != nil {
		t.Fatal(err)
	}
	f, err := NewFrameReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Body, body) || cap(f.Body) != n {
		t.Fatalf("stepped body: len %d cap %d, intact %v", len(f.Body), cap(f.Body), bytes.Equal(f.Body, body))
	}

	for _, typ := range []MsgType{MsgRequest, MsgReply} {
		buf.Reset()
		hdr := [HeaderLen]byte{}
		putHeader(&hdr, cdr.NativeOrder, typ, 512<<20)
		buf.Write(hdr[:])
		buf.Write(make([]byte, 1<<20))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewFrameReader(&buf).ReadFrame()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%v: torn body read: %v, want io.ErrUnexpectedEOF", typ, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Fatalf("%v: a 512 MiB announcement with 1 MiB sent allocated %d MiB", typ, grew>>20)
		}
	}
}
