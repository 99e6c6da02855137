// Pooled zero-copy framing. The seed implementation allocated an
// encoder, a 12-byte header slice and a header+body copy per message,
// and paid two raw Read calls (header, then body) per inbound frame.
// This file removes all of that:
//
//   - WriteMessage gathers header and body with net.Buffers (writev on
//     TCP), so the body is never copied into a combined slice; the
//     12-byte header comes from a scratch pool.
//   - FrameReader reads frames through an internal bufio.Reader, so a
//     header+body pair costs at most one raw Read on the connection.
//   - AcquireEncoder hands out pooled cdr.Encoders with an explicit
//     Release discipline, so the request/reply encode path stops
//     allocating a fresh buffer per message.
//   - Control-frame bodies (CancelRequest, LocateRequest,
//     CloseConnection, MessageError) come from a body pool and are
//     returned with Frame.Release; bodies of Request/Reply/
//     BlockTransfer frames escape to their consumers and are therefore
//     always freshly allocated — ownership transfers with the frame.
//
// Pool traffic is accounted in pardis_giop_pool_gets_total and
// pardis_giop_pool_misses_total (labeled by pool), so the hit rate is
// 1 - misses/gets.
package giop

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"pardis/internal/cdr"
	"pardis/internal/telemetry"
)

// BuffersWriter lets a wrapping connection (metering, fault injection)
// forward a gather write to the transport underneath, preserving the
// single-writev path that net.Buffers only takes for raw *net.TCPConn.
type BuffersWriter interface {
	WriteBuffers(v *net.Buffers) (int64, error)
}

var (
	encPoolGets    = telemetry.Default.Counter("pardis_giop_pool_gets_total", "pool", "encoder")
	encPoolMisses  = telemetry.Default.Counter("pardis_giop_pool_misses_total", "pool", "encoder")
	bodyPoolGets   = telemetry.Default.Counter("pardis_giop_pool_gets_total", "pool", "frame_body")
	bodyPoolMisses = telemetry.Default.Counter("pardis_giop_pool_misses_total", "pool", "frame_body")
)

// writeScratch is the per-write header and gather vector, pooled so a
// message write allocates nothing. The vector has room for a third
// segment so WriteMessageTail can gather header, body head and a raw
// payload tail in one writev.
type writeScratch struct {
	hdr  [HeaderLen]byte
	vec  [3][]byte
	bufs net.Buffers // aliases vec for the duration of one write
}

var writePool = sync.Pool{New: func() any { return new(writeScratch) }}

// putHeader fills a PIOP message header.
func putHeader(hdr *[HeaderLen]byte, order cdr.ByteOrder, t MsgType, n uint32) {
	copy(hdr[:], magic[:])
	hdr[4] = VersionMajor
	hdr[5] = VersionMinor
	hdr[6] = byte(order) & 1
	hdr[7] = byte(t)
	if order == cdr.BigEndian {
		hdr[8], hdr[9], hdr[10], hdr[11] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	} else {
		hdr[8], hdr[9], hdr[10], hdr[11] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	}
}

// PooledEncoder is a cdr.Encoder drawn from the package pool by
// AcquireEncoder. Release returns it; after Release the encoder and
// any slice obtained from Bytes() must not be used (the buffer will
// back a later message). A second sequential Release is a safe no-op
// — the pool never receives the encoder twice, so a later frame
// cannot be corrupted by two owners sharing one buffer. An encoder
// keeps whatever capacity its largest message grew it to: the pool is
// emptied by the GC, so idle buffers are not pinned, and a busy
// connection's large requests and replies reuse one buffer instead of
// allocating and zeroing a payload-sized one each.
type PooledEncoder struct {
	*cdr.Encoder
	released atomic.Bool
}

var encPool = sync.Pool{New: func() any {
	encPoolMisses.Inc()
	return &PooledEncoder{Encoder: cdr.NewEncoder(cdr.NativeOrder)}
}}

// AcquireEncoder returns a pooled encoder reset to the given byte
// order at stream offset 0. Callers must Release it after the encoded
// bytes have been written out.
func AcquireEncoder(order cdr.ByteOrder) *PooledEncoder {
	encPoolGets.Inc()
	pe := encPool.Get().(*PooledEncoder)
	pe.released.Store(false)
	pe.ResetTo(order, 0)
	return pe
}

// Release returns the encoder to the pool. Idempotent: double release
// does not hand the buffer out twice.
func (pe *PooledEncoder) Release() {
	if pe.released.Swap(true) {
		return
	}
	encPool.Put(pe)
}

// pooledBodyMax bounds pooled control-frame bodies; larger (or
// escaping) bodies are allocated fresh.
const pooledBodyMax = 1 << 10

// pooledBody is a recyclable control-frame body with a double-release
// guard.
type pooledBody struct {
	b        [pooledBodyMax]byte
	released atomic.Bool
}

var bodyPool = sync.Pool{New: func() any {
	bodyPoolMisses.Inc()
	return new(pooledBody)
}}

// releasableType reports whether a message type's body never escapes
// its read loop, making it safe to draw from the body pool.
func releasableType(t MsgType) bool {
	switch t {
	case MsgCancelRequest, MsgLocateRequest, MsgCloseConnection, MsgError:
		return true
	}
	return false
}

// Release returns the frame's pooled body, if any, for reuse. Safe to
// call more than once (including on copies of the frame: the
// underlying buffer is returned at most once). After Release, Body
// must not be used. Frames whose bodies were not pooled (Request,
// Reply, BlockTransfer — their bodies transfer ownership to the
// consumer) make this a no-op.
func (f *Frame) Release() {
	pb := f.pb
	if pb == nil {
		return
	}
	f.pb = nil
	f.Body = nil
	if pb.released.Swap(true) {
		return
	}
	bodyPool.Put(pb)
}

// DefaultReadBufSize is the FrameReader's internal buffer size: large
// enough that a typical header+body pair arrives in one raw Read.
const DefaultReadBufSize = 64 << 10

// FrameReader reads PIOP frames through an internal buffered reader,
// with a reusable header scratch, so steady-state frame reads cost one
// body allocation (for escaping frame types) and usually one raw Read
// syscall. Not safe for concurrent use; each connection read loop owns
// one.
type FrameReader struct {
	br  *bufio.Reader
	hdr [HeaderLen]byte
	// wp is the window-put preamble scratch for ReadWindowPut.
	wp [WindowPutPayloadBase]byte
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, DefaultReadBufSize)}
}

// ReadFrame reads and validates one PIOP message. Control-frame
// bodies are pooled: callers that finish with such a frame should call
// Frame.Release.
func (fr *FrameReader) ReadFrame() (Frame, error) {
	return readFrame(fr.br, &fr.hdr, true)
}

// FrameHeader is the validated fixed header of one PIOP message. After
// ReadFrameHeader the BodyLen body bytes remain unread on the stream;
// the caller must consume exactly that many — via ReadFrameBody, or
// for MsgWindowPut via ReadWindowPut plus a payload read — before the
// next header read.
type FrameHeader struct {
	Type    MsgType
	Order   cdr.ByteOrder
	Minor   byte
	BodyLen uint32
}

// ReadFrameHeader reads and validates just the 12-octet message
// header, leaving the body on the stream. Read loops that land
// window-put payloads directly into registered destination slices use
// this split form; everyone else should stay on ReadFrame.
func (fr *FrameReader) ReadFrameHeader() (FrameHeader, error) {
	return readFrameHeader(fr.br, &fr.hdr)
}

// ReadFrameBody completes a ReadFrameHeader into a Frame, with the
// same body pooling rules as ReadFrame.
func (fr *FrameReader) ReadFrameBody(h FrameHeader) (Frame, error) {
	return readFrameBody(fr.br, h, true)
}

// readFrameHeader reads and validates one message header using the
// caller's scratch.
func readFrameHeader(r io.Reader, hdr *[HeaderLen]byte) (FrameHeader, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return FrameHeader{}, err
	}
	if [MagicLen]byte(hdr[:MagicLen]) != magic {
		return FrameHeader{}, fmt.Errorf("%w: % x", ErrBadMagic, hdr[:MagicLen])
	}
	if hdr[4] != VersionMajor || hdr[5] > VersionMinor {
		return FrameHeader{}, fmt.Errorf("%w: %d.%d", ErrBadVersion, hdr[4], hdr[5])
	}
	order := cdr.ByteOrder(hdr[6] & 1)
	t := MsgType(hdr[7])
	if t >= msgTypeCount {
		return FrameHeader{}, fmt.Errorf("%w: %d", ErrBadType, hdr[7])
	}
	if t == MsgWindowPut && hdr[5] == 0 {
		// Window puts joined the protocol in 1.1; a 1.0 frame carrying
		// one is stream corruption, not an old peer.
		return FrameHeader{}, fmt.Errorf("%w: WindowPut in a 1.0 frame", ErrBadType)
	}
	var n uint32
	if order == cdr.BigEndian {
		n = uint32(hdr[8])<<24 | uint32(hdr[9])<<16 | uint32(hdr[10])<<8 | uint32(hdr[11])
	} else {
		n = uint32(hdr[11])<<24 | uint32(hdr[10])<<16 | uint32(hdr[9])<<8 | uint32(hdr[8])
	}
	if n > MaxBodyLen {
		return FrameHeader{}, fmt.Errorf("%w: %d bytes", ErrTooLong, n)
	}
	return FrameHeader{Type: t, Order: order, Minor: hdr[5], BodyLen: n}, nil
}

// readFrameBody reads the body announced by h. pooled enables drawing
// control-frame bodies from the body pool.
func readFrameBody(r io.Reader, h FrameHeader, pooled bool) (Frame, error) {
	f := Frame{Type: h.Type, Order: h.Order, Minor: h.Minor}
	n := h.BodyLen
	if n == 0 {
		return f, nil
	}
	if pooled && n <= pooledBodyMax && releasableType(h.Type) {
		bodyPoolGets.Inc()
		pb := bodyPool.Get().(*pooledBody)
		pb.released.Store(false)
		f.pb = pb
		f.Body = pb.b[:n]
	} else {
		f.Body = make([]byte, n)
	}
	if _, err := io.ReadFull(r, f.Body); err != nil {
		f.Release()
		return Frame{}, err
	}
	return f, nil
}

// readFrame reads one frame using the caller's header scratch. pooled
// enables drawing control-frame bodies from the body pool.
func readFrame(r io.Reader, hdr *[HeaderLen]byte, pooled bool) (Frame, error) {
	h, err := readFrameHeader(r, hdr)
	if err != nil {
		return Frame{}, err
	}
	return readFrameBody(r, h, pooled)
}

// ReadWindowPut reads the fixed window-put preamble (header plus its
// alignment padding) of a MsgWindowPut frame whose message header h
// was just read, validating that the announced body length matches the
// put's element count exactly. The Count*8 payload bytes remain on the
// stream for ReadWindowPayload, ReadPayloadBytes or DiscardPayload.
func (fr *FrameReader) ReadWindowPut(h FrameHeader) (WindowPutHeader, error) {
	if h.BodyLen < WindowPutPayloadBase {
		return WindowPutHeader{}, fmt.Errorf("%w: window put body %d bytes", ErrBlockRange, h.BodyLen)
	}
	if _, err := io.ReadFull(fr.br, fr.wp[:]); err != nil {
		return WindowPutHeader{}, err
	}
	wh, err := DecodeWindowPutHeader(cdr.NewDecoder(h.Order, fr.wp[:windowPutHeaderLen]))
	if err != nil {
		return WindowPutHeader{}, err
	}
	if uint64(h.BodyLen) != WindowPutPayloadBase+8*uint64(wh.Count) {
		return WindowPutHeader{}, fmt.Errorf("%w: window put of %d elements in a %d-byte body",
			ErrBlockRange, wh.Count, h.BodyLen)
	}
	return wh, nil
}

// swapPool holds scratch for landing cross-endianness window payloads
// in bounded chunks; the same-order path needs none.
var swapPool = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// ReadWindowPayload lands a window put's element payload directly off
// the read buffer into dst, which must have exactly the put's Count
// elements. Same-endianness payloads move wire → destination slice
// with no intermediate buffer; cross-endianness payloads swap through
// a pooled scratch.
func (fr *FrameReader) ReadWindowPayload(order cdr.ByteOrder, dst []float64) error {
	if len(dst) == 0 {
		return nil
	}
	if order == cdr.NativeOrder {
		_, err := io.ReadFull(fr.br, cdr.Float64Bytes(dst))
		return err
	}
	bp := swapPool.Get().(*[]byte)
	b := *bp
	for len(dst) > 0 {
		n := len(b) / 8
		if n > len(dst) {
			n = len(dst)
		}
		if _, err := io.ReadFull(fr.br, b[:n*8]); err != nil {
			swapPool.Put(bp)
			return err
		}
		cdr.DecodeDoubles(dst[:n], b[:n*8], order)
		dst = dst[n:]
	}
	swapPool.Put(bp)
	return nil
}

// ReadPayloadBytes reads the len(b) remaining body bytes into b — the
// buffered path for a window put that raced its registration.
func (fr *FrameReader) ReadPayloadBytes(b []byte) error {
	_, err := io.ReadFull(fr.br, b)
	return err
}

// DiscardPayload consumes and drops n remaining body bytes, keeping
// the stream framed after a put that cannot be landed or buffered.
func (fr *FrameReader) DiscardPayload(n int) error {
	_, err := fr.br.Discard(n)
	return err
}
