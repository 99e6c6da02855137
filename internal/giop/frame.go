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
//   - A frame body is allocated per frame and read in growing steps, so
//     an announced length costs only the bytes that actually arrive. The
//     bulk bodies skip it: a read loop lands their elements off the
//     buffered reader straight into their destination (Peek,
//     ReadWindowPayload).
//
// Pool traffic is accounted in pardis_giop_pool_gets_total and
// pardis_giop_pool_misses_total (labeled by pool: encoder), so the hit
// rate is 1 - misses/gets.
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
	encPoolGets   = telemetry.Default.Counter("pardis_giop_pool_gets_total", "pool", "encoder")
	encPoolMisses = telemetry.Default.Counter("pardis_giop_pool_misses_total", "pool", "encoder")
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

// Release clears Body. Frame bodies are plain allocations, so there is
// nothing to hand back; it is kept for the benchmark harness, which
// still calls it.
func (f *Frame) Release() { f.Body = nil }

// DefaultReadBufSize is the FrameReader's internal buffer size: large
// enough that a typical header+body pair arrives in one raw Read. It is
// also the smallest first step of a body read in steps (readBody).
const DefaultReadBufSize = 64 << 10

// FrameReader reads PIOP frames through an internal buffered reader,
// with a reusable header scratch, so steady-state frame reads cost one
// body allocation and usually one raw Read syscall. Not safe for
// concurrent use; each connection read loop owns one.
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

// ReadFrame reads and validates one PIOP message; the body is the
// caller's.
func (fr *FrameReader) ReadFrame() (Frame, error) {
	return readFrame(fr.br, &fr.hdr)
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

// ReadFrameBody completes a ReadFrameHeader into a Frame; the body is
// the caller's.
func (fr *FrameReader) ReadFrameBody(h FrameHeader) (Frame, error) {
	return readFrameBody(fr.br, h)
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
	if hdr[4] != VersionMajor || hdr[5] != VersionMinor {
		return FrameHeader{}, fmt.Errorf("%w: %d.%d", ErrBadVersion, hdr[4], hdr[5])
	}
	order := cdr.ByteOrder(hdr[6] & 1)
	t := MsgType(hdr[7])
	if !t.known() {
		return FrameHeader{}, fmt.Errorf("%w: %d", ErrBadType, hdr[7])
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

// readFrameBody reads the body announced by h.
func readFrameBody(r io.Reader, h FrameHeader) (Frame, error) {
	f := Frame{Type: h.Type, Order: h.Order, Minor: h.Minor}
	if h.BodyLen == 0 {
		return f, nil
	}
	b, err := readBody(r, int(h.BodyLen))
	if err != nil {
		return Frame{}, err
	}
	f.Body = b
	return f, nil
}

// bodyStepShift sets the steps a body is read in: each buffer is
// 1<<bodyStepShift times the size of the one before it.
const bodyStepShift = 4

// readBody reads an n-byte body into a buffer of exactly n bytes. The
// buffer grows as the bytes arrive, through the sizes n>>4j, ...,
// n>>4, n, starting at the first of them that is at least
// DefaultReadBufSize (or at n, for a body that fits one step). A header
// announcing up to MaxBodyLen therefore costs what its peer actually
// sends, not what it announced: reading a body that stops short
// allocates less than 1 MiB plus 256/15 (about 17) times the bytes that
// arrived. Growing to n from below in ×16 steps, rather than doubling
// up from the first step, keeps what a body that does arrive pays for
// its steps to a fifteenth of its length: one extra 512 KiB step for an
// 8 MiB body.
func readBody(r io.Reader, n int) ([]byte, error) {
	shift := 0
	for n>>(shift+bodyStepShift) >= DefaultReadBufSize {
		shift += bodyStepShift
	}
	b := make([]byte, n>>shift)
	have := 0
	for {
		if _, err := io.ReadFull(r, b[have:]); err != nil {
			if err == io.EOF && have > 0 {
				err = io.ErrUnexpectedEOF // torn mid-body, as one ReadFull reports it
			}
			return nil, err
		}
		if shift == 0 {
			return b, nil
		}
		shift -= bodyStepShift
		have = len(b)
		grown := make([]byte, n>>shift)
		copy(grown, b)
		b = grown
	}
}

// readFrame reads one frame using the caller's header scratch.
func readFrame(r io.Reader, hdr *[HeaderLen]byte) (Frame, error) {
	h, err := readFrameHeader(r, hdr)
	if err != nil {
		return Frame{}, err
	}
	return readFrameBody(r, h)
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
// the bytes the current body has left. A landing — of a reply, or of a
// request the server read loop leaves parked — parses the body's prefix
// this way before it reads the elements, with ReadWindowPayload,
// straight into their destination.
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
