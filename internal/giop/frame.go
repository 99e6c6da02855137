// Pooled zero-copy framing. The seed implementation allocated an
// encoder, a 12-byte header slice and a header+body copy per message,
// and paid two raw Read calls (header, then body) per inbound frame.
// This file removes all of that:
//
//   - WriteMessage and WriteEncoded gather header, body and any element
//     blocks the encoder spliced with net.Buffers (writev on TCP), so
//     no payload is copied into a combined slice; the 12-byte header and
//     the gather vector come from a scratch pool.
//   - FrameReader reads frames through an internal bufio.Reader, so a
//     header+body pair costs at most one raw Read on the connection.
//   - AcquireEncoder hands out pooled cdr.Encoders with an explicit
//     Release discipline, so the request/reply encode path stops
//     allocating a fresh buffer per message.
//   - Frame bodies are recycled where their owner is known: control-
//     frame bodies (CancelRequest, LocateRequest, CloseConnection,
//     MessageError) come from a 1 KiB pool and go back when the read
//     loop is done with them; Request and Reply bodies too big for the
//     FrameReader's buffer come from size-classed pools and go back
//     when their consumer — the one owner the read loop hands them to —
//     releases them. Everything else is allocated per frame.
//
// Pool traffic is accounted in pardis_giop_pool_gets_total and
// pardis_giop_pool_misses_total (labeled by pool), so the hit rate is
// 1 - misses/gets; large bodies handed back are counted in
// pardis_giop_pool_puts_total.
package giop

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
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
	encPoolGets     = telemetry.Default.Counter("pardis_giop_pool_gets_total", "pool", "encoder")
	encPoolMisses   = telemetry.Default.Counter("pardis_giop_pool_misses_total", "pool", "encoder")
	bodyPoolGets    = telemetry.Default.Counter("pardis_giop_pool_gets_total", "pool", "frame_body")
	bodyPoolMisses  = telemetry.Default.Counter("pardis_giop_pool_misses_total", "pool", "frame_body")
	largePoolGets   = telemetry.Default.Counter("pardis_giop_pool_gets_total", "pool", "large_body")
	largePoolMisses = telemetry.Default.Counter("pardis_giop_pool_misses_total", "pool", "large_body")
	largePoolPuts   = telemetry.Default.Counter("pardis_giop_pool_puts_total", "pool", "large_body")
)

// writeScratch is the per-write header and gather vector, pooled so a
// message write allocates nothing. vec starts on the inline array, room
// for header, body head, one block and a tail; a longer gather grows it
// once and the scratch keeps the longer vector.
type writeScratch struct {
	hdr  [HeaderLen]byte
	arr  [4][]byte
	vec  [][]byte
	bufs net.Buffers // aliases vec for the duration of one write
}

var writePool = sync.Pool{New: func() any {
	s := new(writeScratch)
	s.vec = s.arr[:0]
	return s
}}

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
// AcquireEncoder. Release returns it; after Release the encoder, any
// slice obtained from Bytes() and its Splices must not be used (the
// buffer will back a later message). A second sequential Release is a
// safe no-op — the pool never receives the encoder twice, so a later
// frame cannot be corrupted by two owners sharing one buffer.
//
// A pooled encoder splices: in the host's order, PutDoublesRef records
// element blocks by reference, so a message written with WriteEncoded
// carries its bulk payload from the caller's storage straight to the
// socket and the encoder itself only ever holds headers and counts.
// (It keeps whatever capacity its largest message grew it to; the pool
// is emptied by the GC, so idle buffers are not pinned.) Release drops
// the splice references along with the buffer.
type PooledEncoder struct {
	*cdr.Encoder
	splices  []cdr.Splice
	released atomic.Bool
}

var encPool = sync.Pool{New: func() any {
	encPoolMisses.Inc()
	pe := new(PooledEncoder)
	pe.Encoder = cdr.NewSplicingEncoder(cdr.NativeOrder, &pe.splices)
	return pe
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
	b := pe.Bytes()
	poison(b[:cap(b)])
	pe.Reset() // drops the splice references too
	encPool.Put(pe)
}

// Buffer is a frame body drawn from a pool: a control-frame body from
// the 1 KiB pool, or a Request or Reply body larger than
// DefaultReadBufSize from the size-classed large-body pools. It has
// exactly one owner at a time — the read loop, then whoever the loop
// hands the frame to (Frame.Detach) — and goes back to its pool when
// that owner calls Release. A body that is never released is left to
// the garbage collector, which is always safe.
type Buffer struct {
	b    []byte
	pool *sync.Pool
	// home is the spare slot of the FrameReader that read a large body
	// into this buffer, which takes it back first (largeBuffer).
	home     *atomic.Pointer[Buffer]
	released atomic.Bool
}

// Release hands the body back for reuse; afterwards nothing may read
// it. A second Release through the same handle is a no-op, and so is
// Release on a nil *Buffer (a body that was allocated, not pooled).
func (bb *Buffer) Release() {
	if bb == nil || bb.released.Swap(true) {
		return
	}
	poison(bb.b[:cap(bb.b)])
	if bb.pool != &bodyPool {
		largePoolPuts.Inc()
	}
	if bb.home != nil && bb.home.CompareAndSwap(nil, bb) {
		return
	}
	bb.pool.Put(bb)
}

// getBuffer draws a buffer for an n-byte body from pool, whose buffers
// hold bodies of up to size bytes. A miss on an empty pool makes an
// n-byte buffer, so a body its consumer never releases costs exactly
// what an unpooled one did; a pooled buffer too short for this body
// (made for a shorter one) is dropped and replaced by a size-byte one,
// which fits every later body of the pool.
func getBuffer(pool *sync.Pool, n, size int, gets, misses *telemetry.Counter) *Buffer {
	gets.Inc()
	bb, _ := pool.Get().(*Buffer)
	if bb == nil || cap(bb.b) < n {
		misses.Inc()
		c := n
		if bb != nil {
			c = size
		}
		bb = &Buffer{b: make([]byte, c), pool: pool}
	}
	bb.released.Store(false)
	bb.b = bb.b[:n]
	return bb
}

// largeBuffer draws a buffer for an n-byte Request or Reply body for the
// FrameReader whose spare slot is spare: the reader's spare if it holds
// n, else one from n's class pool. Either way the buffer comes back to
// spare when released, if spare is empty then. A sync.Pool keeps a lone
// released buffer in the releasing P's private slot, out of reach of a
// reader on another P; with one large body in flight per centralized
// invocation, every move of the server's read loop to the other P (a
// collection is enough) made a fresh 8 MiB buffer. The spare is in
// reach of its reader wherever either runs. A reader holds at most one
// spare, and it goes with the reader.
func largeBuffer(spare *atomic.Pointer[Buffer], n int) *Buffer {
	c, size := largeClass(n)
	if bb := spare.Swap(nil); bb != nil {
		if bb.pool == &largePools[c] && cap(bb.b) >= n {
			largePoolGets.Inc()
			bb.released.Store(false)
			bb.b = bb.b[:n]
			return bb
		}
		bb.pool.Put(bb)
	}
	bb := getBuffer(&largePools[c], n, size, largePoolGets, largePoolMisses)
	bb.home = spare
	return bb
}

// pooledBodyMax bounds pooled control-frame bodies; larger ones are
// allocated fresh.
const pooledBodyMax = 1 << 10

var bodyPool sync.Pool

// releasableType reports whether a message type's body never escapes
// its read loop, making it safe to draw from the body pool.
func releasableType(t MsgType) bool {
	switch t {
	case MsgCancelRequest, MsgLocateRequest, MsgCloseConnection, MsgError:
		return true
	}
	return false
}

// Large Request and Reply bodies come from largePools: eight size
// classes per power of two above DefaultReadBufSize, each holding
// buffers of one capacity (a class is an eighth of its power of two
// wide). Rounding to a class, not to the exact length, is what makes
// them recycle: the request and the reply of one invocation differ by
// a few dozen bytes and must share a buffer class.
const (
	largeClassesPerDoubling = 8
	largeMinShift           = 16 // DefaultReadBufSize == 1<<largeMinShift
	largeMaxShift           = 30 // MaxBodyLen == 1<<largeMaxShift
)

var largePools [(largeMaxShift - largeMinShift) * largeClassesPerDoubling]sync.Pool

// largeClass returns the pool index and buffer capacity for an n-byte
// body, DefaultReadBufSize < n <= MaxBodyLen.
func largeClass(n int) (class, size int) {
	k := bits.Len(uint(n-1)) - 1 // 1<<k < n <= 1<<(k+1)
	step := (1 << k) / largeClassesPerDoubling
	sub := (n - 1 - 1<<k) / step
	return (k-largeMinShift)*largeClassesPerDoubling + sub, 1<<k + (sub+1)*step
}

// Release returns the frame's pooled body, if any, for reuse. Safe to
// call more than once on one Frame value. After Release, Body must not
// be used. Frames whose bodies were not pooled — or whose body was
// Detached by its consumer — make this a no-op.
func (f *Frame) Release() {
	if f.buf == nil {
		return
	}
	bb := f.buf
	f.buf = nil
	f.Body = nil
	bb.Release()
}

// Detach transfers ownership of the frame's pooled body to the caller,
// who must Release it once nothing reads Body any more — or never, and
// leave it to the garbage collector. Body stays valid until then. Nil
// when the body was not pooled (Release on it is a no-op).
func (f *Frame) Detach() *Buffer {
	bb := f.buf
	f.buf = nil
	return bb
}

// DefaultReadBufSize is the FrameReader's internal buffer size: large
// enough that a typical header+body pair arrives in one raw Read. It is
// also the boundary above which Request and Reply bodies are recycled.
const DefaultReadBufSize = 64 << 10

// FrameReader reads PIOP frames through an internal buffered reader,
// with a reusable header scratch, so steady-state frame reads cost one
// body allocation (for frame types whose bodies are not recycled) and
// usually one raw Read syscall. Not safe for concurrent use; each
// connection read loop owns one.
type FrameReader struct {
	br  *bufio.Reader
	hdr [HeaderLen]byte
	// spare is the large body this reader read last, once released.
	spare atomic.Pointer[Buffer]
	// wp is the window-put preamble scratch for ReadWindowPut.
	wp [WindowPutPayloadBase]byte
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, DefaultReadBufSize)}
}

// ReadFrame reads and validates one PIOP message. Control-frame bodies
// and large Request/Reply bodies are pooled: the caller that finishes
// with such a frame calls Frame.Release, or Detaches the body and hands
// it on with the rest of the frame.
func (fr *FrameReader) ReadFrame() (Frame, error) {
	return readFrame(fr.br, &fr.hdr, &fr.spare)
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
// same body recycling rules as ReadFrame.
func (fr *FrameReader) ReadFrameBody(h FrameHeader) (Frame, error) {
	return readFrameBody(fr.br, h, &fr.spare)
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

// readFrameBody reads the body announced by h. spare, the reading
// FrameReader's, enables drawing control-frame and large Request/Reply
// bodies from the pools; nil reads every body fresh.
func readFrameBody(r io.Reader, h FrameHeader, spare *atomic.Pointer[Buffer]) (Frame, error) {
	pooled := spare != nil
	f := Frame{Type: h.Type, Order: h.Order, Minor: h.Minor}
	n := int(h.BodyLen)
	if n == 0 {
		return f, nil
	}
	switch {
	case pooled && n <= pooledBodyMax && releasableType(h.Type):
		f.buf = getBuffer(&bodyPool, n, pooledBodyMax, bodyPoolGets, bodyPoolMisses)
		f.Body = f.buf.b
	case pooled && n > DefaultReadBufSize && (h.Type == MsgRequest || h.Type == MsgReply):
		f.buf = largeBuffer(spare, n)
		f.Body = f.buf.b
	default:
		f.Body = make([]byte, n)
	}
	if _, err := io.ReadFull(r, f.Body); err != nil {
		// A torn body is left to the GC, not recycled: the connection is
		// dying, and recycling capacity a peer announced but never sent
		// would let it park arbitrary amounts of memory in the pools.
		return Frame{}, err
	}
	return f, nil
}

// readFrame reads one frame using the caller's header scratch. spare
// enables body recycling (see readFrameBody).
func readFrame(r io.Reader, hdr *[HeaderLen]byte, spare *atomic.Pointer[Buffer]) (Frame, error) {
	h, err := readFrameHeader(r, hdr)
	if err != nil {
		return Frame{}, err
	}
	return readFrameBody(r, h, spare)
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

// Peek returns the next n body bytes without consuming them; they are
// valid until the next read. n must not exceed DefaultReadBufSize or
// the bytes the current body has left. A reply landing parses the
// body's prefix this way before it reads the elements, with
// ReadWindowPayload, straight into their destination.
func (fr *FrameReader) Peek(n int) ([]byte, error) {
	return fr.br.Peek(n)
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
