// Package cdr implements the Common Data Representation used on the
// PARDIS wire, closely following the CORBA 2.0 CDR rules: primitive
// values are aligned to their natural boundary relative to the start of
// the stream, the sender chooses the byte order and announces it in the
// message header, and composite values are laid out field by field with
// no padding beyond alignment.
//
// The package provides an Encoder that appends values to a growable
// buffer and a Decoder that consumes them, plus encapsulation helpers
// (a CDR stream nested inside an octet sequence, carrying its own byte
// order flag) used by object references and typed headers.
package cdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ByteOrder identifies the endianness of a CDR stream. CDR is
// receiver-makes-right: the sender writes in its native order and flags
// it, and the receiver swaps only if needed.
type ByteOrder byte

const (
	// BigEndian is the network-canonical order.
	BigEndian ByteOrder = 0
	// LittleEndian is the order flagged by a 1 octet in headers.
	LittleEndian ByteOrder = 1
)

func (o ByteOrder) String() string {
	if o == BigEndian {
		return "big-endian"
	}
	return "little-endian"
}

// Errors reported by the decoder. They are wrapped with positional
// context; use errors.Is to test for them.
var (
	ErrTruncated  = errors.New("cdr: truncated stream")
	ErrBadString  = errors.New("cdr: malformed string")
	ErrBadBoolean = errors.New("cdr: boolean octet not 0 or 1")
	ErrTooLarge   = errors.New("cdr: length exceeds stream bounds")
)

// Encoder appends CDR-encoded values to an internal buffer. The zero
// value is not usable; construct with NewEncoder.
type Encoder struct {
	buf   []byte
	order ByteOrder
	// base is the stream offset of buf[0]; alignment is computed
	// relative to the logical start of the stream, which matters when
	// an encoder continues a partially written message.
	base int
}

// NewEncoder returns an Encoder writing in the given byte order.
func NewEncoder(order ByteOrder) *Encoder {
	return &Encoder{order: order, buf: make([]byte, 0, 64)}
}

// NewEncoderAt returns an Encoder whose first byte sits at stream
// offset base. Alignment padding is computed against that offset.
func NewEncoderAt(order ByteOrder, base int) *Encoder {
	return &Encoder{order: order, buf: make([]byte, 0, 64), base: base}
}

// Order reports the byte order the encoder writes in.
func (e *Encoder) Order() ByteOrder { return e.order }

// Bytes returns the encoded stream. The slice aliases the encoder's
// internal buffer; it is valid until the next Write call.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far (excluding base).
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the buffer contents, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// ResetTo discards the buffer contents and re-targets the encoder to a
// byte order and stream base, retaining capacity — how pooled encoders
// are recycled across messages.
func (e *Encoder) ResetTo(order ByteOrder, base int) {
	e.buf = e.buf[:0]
	e.order = order
	e.base = base
}

// Reserve makes room for n more bytes, so that a value marshaled piece
// by piece grows the buffer once instead of once per piece.
func (e *Encoder) Reserve(n int) { e.buf = slices.Grow(e.buf, n) }

// grow extends the buffer by n zero bytes and returns the extension.
// The append(make) form is recognized by the compiler and does not
// allocate a temporary.
func (e *Encoder) grow(n int) []byte {
	off := len(e.buf)
	e.buf = append(e.buf, make([]byte, n)...)
	return e.buf[off:]
}

// extend extends the buffer by n bytes and returns the extension with
// whatever the spare capacity held — a recycled encoder's previous
// message, typically. Only for callers that overwrite all n bytes
// before returning: the bulk element writers, for which grow's zeroing
// pass over a payload-sized region is pure waste.
func (e *Encoder) extend(n int) []byte {
	off := len(e.buf)
	e.buf = slices.Grow(e.buf, n)[:off+n]
	return e.buf[off:]
}

// align pads the buffer with zero octets so the next write lands on a
// multiple of n relative to the stream start.
func (e *Encoder) align(n int) {
	pos := e.base + len(e.buf)
	if r := pos % n; r != 0 {
		for i := 0; i < n-r; i++ {
			e.buf = append(e.buf, 0)
		}
	}
}

func (e *Encoder) put16(v uint16) {
	e.align(2)
	if e.order == BigEndian {
		e.buf = append(e.buf, byte(v>>8), byte(v))
	} else {
		e.buf = append(e.buf, byte(v), byte(v>>8))
	}
}

func (e *Encoder) put32(v uint32) {
	e.align(4)
	if e.order == BigEndian {
		e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	} else {
		e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
}

func (e *Encoder) put64(v uint64) {
	e.align(8)
	if e.order == BigEndian {
		e.buf = append(e.buf,
			byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	} else {
		e.buf = append(e.buf,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
}

// PutOctet appends a single octet.
func (e *Encoder) PutOctet(v byte) { e.buf = append(e.buf, v) }

// PutBoolean appends a boolean as a 0/1 octet.
func (e *Encoder) PutBoolean(v bool) {
	if v {
		e.PutOctet(1)
	} else {
		e.PutOctet(0)
	}
}

// PutChar appends an IDL char (one octet, ISO 8859-1).
func (e *Encoder) PutChar(v byte) { e.PutOctet(v) }

// PutShort appends an IDL short (16-bit signed).
func (e *Encoder) PutShort(v int16) { e.put16(uint16(v)) }

// PutUShort appends an IDL unsigned short.
func (e *Encoder) PutUShort(v uint16) { e.put16(v) }

// PutLong appends an IDL long (32-bit signed).
func (e *Encoder) PutLong(v int32) { e.put32(uint32(v)) }

// PutULong appends an IDL unsigned long.
func (e *Encoder) PutULong(v uint32) { e.put32(v) }

// PutLongLong appends an IDL long long (64-bit signed).
func (e *Encoder) PutLongLong(v int64) { e.put64(uint64(v)) }

// PutULongLong appends an IDL unsigned long long.
func (e *Encoder) PutULongLong(v uint64) { e.put64(v) }

// PutFloat appends an IDL float (IEEE 754 single).
func (e *Encoder) PutFloat(v float32) { e.put32(math.Float32bits(v)) }

// PutDouble appends an IDL double (IEEE 754 double).
func (e *Encoder) PutDouble(v float64) { e.put64(math.Float64bits(v)) }

// PutString appends an IDL string: ulong byte count including the
// terminating NUL, the bytes, then the NUL.
func (e *Encoder) PutString(s string) {
	e.PutULong(uint32(len(s) + 1))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, 0)
}

// PutOctets appends raw octets with no length prefix and no alignment.
func (e *Encoder) PutOctets(p []byte) { e.buf = append(e.buf, p...) }

// PutOctetSeq appends a sequence<octet>: ulong count then the bytes.
func (e *Encoder) PutOctetSeq(p []byte) {
	e.PutULong(uint32(len(p)))
	e.buf = append(e.buf, p...)
}

// PutDoubleSeq appends a sequence<double>: ulong count then each
// element. When the stream order matches the host order the element
// data moves as one memcpy; otherwise a byte-swapping bulk loop runs
// over a single pre-grown region.
func (e *Encoder) PutDoubleSeq(v []float64) {
	e.PutULong(uint32(len(v)))
	if len(v) == 0 {
		return
	}
	e.align(8)
	b := e.extend(len(v) * 8)
	switch e.order {
	case NativeOrder:
		copy(b, f64Bytes(v))
	case BigEndian:
		for i, x := range v {
			binary.BigEndian.PutUint64(b[i*8:], math.Float64bits(x))
		}
	default:
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(x))
		}
	}
}

// PutDoubles appends raw element data for len(v) doubles — 8-aligned,
// no count prefix — the payload form of a window put, whose element
// count travels in the message header instead of the body.
func (e *Encoder) PutDoubles(v []float64) {
	if len(v) == 0 {
		return
	}
	e.align(8)
	b := e.extend(len(v) * 8)
	switch e.order {
	case NativeOrder:
		copy(b, f64Bytes(v))
	case BigEndian:
		for i, x := range v {
			binary.BigEndian.PutUint64(b[i*8:], math.Float64bits(x))
		}
	default:
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(x))
		}
	}
}

// DecodeDoubles fills dst from exactly len(dst)*8 bytes of raw element
// data in the given order (the payload form written by PutDoubles). A
// same-endianness stream moves as one memcpy.
func DecodeDoubles(dst []float64, b []byte, order ByteOrder) {
	if len(dst) == 0 {
		return
	}
	switch order {
	case NativeOrder:
		copy(f64Bytes(dst), b)
	case BigEndian:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.BigEndian.Uint64(b[i*8:]))
		}
	default:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
	}
}

// PutLongSeq appends a sequence<long> through the bulk ulong path.
func (e *Encoder) PutLongSeq(v []int32) {
	if len(v) == 0 {
		e.PutULong(0)
		return
	}
	e.putULongSeqBody(i32AsU32(v))
}

// PutULongSeq appends a sequence<unsigned long>: ulong count then the
// elements, laid out in one pre-grown region like PutDoubleSeq.
func (e *Encoder) PutULongSeq(v []uint32) {
	if len(v) == 0 {
		e.PutULong(0)
		return
	}
	e.putULongSeqBody(v)
}

func (e *Encoder) putULongSeqBody(v []uint32) {
	e.PutULong(uint32(len(v)))
	e.align(4) // count leaves us 4-aligned; explicit for clarity
	b := e.extend(len(v) * 4)
	switch e.order {
	case NativeOrder:
		copy(b, u32Bytes(v))
	case BigEndian:
		for i, x := range v {
			binary.BigEndian.PutUint32(b[i*4:], x)
		}
	default:
		for i, x := range v {
			binary.LittleEndian.PutUint32(b[i*4:], x)
		}
	}
}

// PutStringSeq appends a sequence<string>. The total wire size
// (per-element count, bytes, NUL, alignment) is computed up front so
// the buffer grows once for the whole sequence.
func (e *Encoder) PutStringSeq(v []string) {
	e.PutULong(uint32(len(v)))
	if len(v) == 0 {
		return
	}
	start := e.base + len(e.buf)
	total := 0
	for _, s := range v {
		if r := (start + total) % 4; r != 0 {
			total += 4 - r
		}
		total += 4 + len(s) + 1
	}
	b := e.grow(total) // zeroed, so padding and NULs are pre-written
	o := 0
	for _, s := range v {
		if r := (start + o) % 4; r != 0 {
			o += 4 - r
		}
		if e.order == BigEndian {
			binary.BigEndian.PutUint32(b[o:], uint32(len(s)+1))
		} else {
			binary.LittleEndian.PutUint32(b[o:], uint32(len(s)+1))
		}
		o += 4
		o += copy(b[o:], s)
		o++ // the NUL terminator, already zero
	}
}

// PutEncapsulation appends the body as a CDR encapsulation: a
// sequence<octet> whose first octet is the byte-order flag of the
// nested stream.
func (e *Encoder) PutEncapsulation(order ByteOrder, encode func(*Encoder)) {
	inner := NewEncoderAt(order, 1) // flag octet occupies offset 0
	encode(inner)
	e.PutULong(uint32(1 + inner.Len()))
	e.PutOctet(byte(order))
	e.PutOctets(inner.Bytes())
}

// Decoder consumes CDR-encoded values from a byte slice.
type Decoder struct {
	buf   []byte
	pos   int
	order ByteOrder
	base  int
}

// NewDecoder returns a Decoder reading buf in the given byte order.
func NewDecoder(order ByteOrder, buf []byte) *Decoder {
	return &Decoder{order: order, buf: buf}
}

// NewDecoderAt returns a Decoder whose buf[0] sits at stream offset
// base, so alignment skips match the encoder's.
func NewDecoderAt(order ByteOrder, buf []byte, base int) *Decoder {
	return &Decoder{order: order, buf: buf, base: base}
}

// Order reports the byte order the decoder assumes.
func (d *Decoder) Order() ByteOrder { return d.order }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Pos returns the current read offset within the buffer.
func (d *Decoder) Pos() int { return d.pos }

func (d *Decoder) align(n int) {
	pos := d.base + d.pos
	if r := pos % n; r != 0 {
		d.pos += n - r
	}
}

func (d *Decoder) need(n int) error {
	if d.pos+n > len(d.buf) {
		return fmt.Errorf("%w: need %d bytes at offset %d, have %d",
			ErrTruncated, n, d.pos, len(d.buf)-d.pos)
	}
	return nil
}

func (d *Decoder) get16() (uint16, error) {
	d.align(2)
	if err := d.need(2); err != nil {
		return 0, err
	}
	b := d.buf[d.pos:]
	d.pos += 2
	if d.order == BigEndian {
		return uint16(b[0])<<8 | uint16(b[1]), nil
	}
	return uint16(b[1])<<8 | uint16(b[0]), nil
}

func (d *Decoder) get32() (uint32, error) {
	d.align(4)
	if err := d.need(4); err != nil {
		return 0, err
	}
	b := d.buf[d.pos:]
	d.pos += 4
	if d.order == BigEndian {
		return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
	}
	return uint32(b[3])<<24 | uint32(b[2])<<16 | uint32(b[1])<<8 | uint32(b[0]), nil
}

func (d *Decoder) get64() (uint64, error) {
	d.align(8)
	if err := d.need(8); err != nil {
		return 0, err
	}
	b := d.buf[d.pos:]
	d.pos += 8
	if d.order == BigEndian {
		return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
			uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7]), nil
	}
	return uint64(b[7])<<56 | uint64(b[6])<<48 | uint64(b[5])<<40 | uint64(b[4])<<32 |
		uint64(b[3])<<24 | uint64(b[2])<<16 | uint64(b[1])<<8 | uint64(b[0]), nil
}

// Octet reads one octet.
func (d *Decoder) Octet() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.pos]
	d.pos++
	return v, nil
}

// Boolean reads a boolean octet, rejecting values other than 0 and 1.
func (d *Decoder) Boolean() (bool, error) {
	v, err := d.Octet()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("%w: got %d", ErrBadBoolean, v)
	}
}

// Char reads an IDL char.
func (d *Decoder) Char() (byte, error) { return d.Octet() }

// Short reads an IDL short.
func (d *Decoder) Short() (int16, error) {
	v, err := d.get16()
	return int16(v), err
}

// UShort reads an IDL unsigned short.
func (d *Decoder) UShort() (uint16, error) { return d.get16() }

// Long reads an IDL long.
func (d *Decoder) Long() (int32, error) {
	v, err := d.get32()
	return int32(v), err
}

// ULong reads an IDL unsigned long.
func (d *Decoder) ULong() (uint32, error) { return d.get32() }

// LongLong reads an IDL long long.
func (d *Decoder) LongLong() (int64, error) {
	v, err := d.get64()
	return int64(v), err
}

// ULongLong reads an IDL unsigned long long.
func (d *Decoder) ULongLong() (uint64, error) { return d.get64() }

// Float reads an IDL float.
func (d *Decoder) Float() (float32, error) {
	v, err := d.get32()
	return math.Float32frombits(v), err
}

// Double reads an IDL double.
func (d *Decoder) Double() (float64, error) {
	v, err := d.get64()
	return math.Float64frombits(v), err
}

// String reads an IDL string and validates its NUL terminator.
func (d *Decoder) String() (string, error) {
	n, err := d.ULong()
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", fmt.Errorf("%w: zero-length count (must include NUL)", ErrBadString)
	}
	if uint64(n) > uint64(d.Remaining()) {
		return "", fmt.Errorf("%w: string of %d bytes", ErrTooLarge, n)
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	if b[n-1] != 0 {
		return "", fmt.Errorf("%w: missing NUL terminator", ErrBadString)
	}
	return string(b[:n-1]), nil
}

// Octets reads n raw octets with no alignment. The returned slice
// aliases the decoder's buffer.
func (d *Decoder) Octets(n int) ([]byte, error) {
	if err := d.need(n); err != nil {
		return nil, err
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

// OctetSeq reads a sequence<octet>. The returned slice aliases the
// decoder's buffer.
func (d *Decoder) OctetSeq() ([]byte, error) {
	n, err := d.ULong()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(d.Remaining()) {
		return nil, fmt.Errorf("%w: octet sequence of %d", ErrTooLarge, n)
	}
	return d.Octets(int(n))
}

// DoubleSeq reads a sequence<double>.
func (d *Decoder) DoubleSeq() ([]float64, error) { return d.DoubleSeqInto(nil) }

// DoubleSeqInto reads a sequence<double> into dst, reusing its storage
// when the capacity suffices (the bulk decoder for hot paths that
// decode into a caller-owned buffer instead of allocating per call).
// It returns the filled slice, whose length is the wire element count;
// a same-endianness stream moves as one memcpy.
func (d *Decoder) DoubleSeqInto(dst []float64) ([]float64, error) {
	raw, err := d.DoubleSeqRaw()
	if err != nil {
		return nil, err
	}
	n := len(raw) / 8
	if n == 0 {
		if dst != nil {
			return dst[:0], nil
		}
		return nil, nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float64, n)
	}
	DecodeDoubles(dst, raw, d.order)
	return dst, nil
}

// DoubleSeqRaw reads a sequence<double> without decoding it: the
// returned slice is the element data (len/8 doubles in the decoder's
// byte order), aliasing the decoder's buffer, for callers that
// DecodeDoubles it piecewise into destinations of their own.
func (d *Decoder) DoubleSeqRaw() ([]byte, error) {
	n, err := d.ULong()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if uint64(n) > uint64(d.Remaining())/8+1 {
		return nil, fmt.Errorf("%w: double sequence of %d", ErrTooLarge, n)
	}
	d.align(8)
	return d.Octets(int(n) * 8)
}

// LongSeq reads a sequence<long>.
func (d *Decoder) LongSeq() ([]int32, error) { return d.LongSeqInto(nil) }

// LongSeqInto reads a sequence<long> into dst, reusing its storage
// when the capacity suffices (see DoubleSeqInto).
func (d *Decoder) LongSeqInto(dst []int32) ([]int32, error) {
	n, err := d.ulongSeqHeader("long")
	if err != nil {
		return nil, err
	}
	if n == 0 {
		if dst != nil {
			return dst[:0], nil
		}
		return nil, nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]int32, n)
	}
	d.ulongSeqBody(i32AsU32(dst))
	return dst, nil
}

// ULongSeq reads a sequence<unsigned long>.
func (d *Decoder) ULongSeq() ([]uint32, error) { return d.ULongSeqInto(nil) }

// ULongSeqInto reads a sequence<unsigned long> into dst, reusing its
// storage when the capacity suffices (see DoubleSeqInto).
func (d *Decoder) ULongSeqInto(dst []uint32) ([]uint32, error) {
	n, err := d.ulongSeqHeader("ulong")
	if err != nil {
		return nil, err
	}
	if n == 0 {
		if dst != nil {
			return dst[:0], nil
		}
		return nil, nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]uint32, n)
	}
	d.ulongSeqBody(dst)
	return dst, nil
}

// ulongSeqHeader reads and bounds-checks a 32-bit-element sequence
// count, leaving the decoder positioned at the first element.
func (d *Decoder) ulongSeqHeader(kind string) (int, error) {
	n, err := d.ULong()
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	if uint64(n) > uint64(d.Remaining())/4+1 {
		return 0, fmt.Errorf("%w: %s sequence of %d", ErrTooLarge, kind, n)
	}
	d.align(4)
	if err := d.need(int(n) * 4); err != nil {
		return 0, err
	}
	return int(n), nil
}

// ulongSeqBody bulk-decodes len(dst) contiguous ulongs; bounds were
// established by ulongSeqHeader.
func (d *Decoder) ulongSeqBody(dst []uint32) {
	b := d.buf[d.pos : d.pos+len(dst)*4]
	switch d.order {
	case NativeOrder:
		copy(u32Bytes(dst), b)
	case BigEndian:
		for i := range dst {
			dst[i] = binary.BigEndian.Uint32(b[i*4:])
		}
	default:
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(b[i*4:])
		}
	}
	d.pos += len(dst) * 4
}

// StringSeq reads a sequence<string>.
func (d *Decoder) StringSeq() ([]string, error) {
	n, err := d.ULong()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(d.Remaining()) {
		return nil, fmt.Errorf("%w: string sequence of %d", ErrTooLarge, n)
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = d.String(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Encapsulation reads a CDR encapsulation and returns a Decoder for
// its body, using the byte-order flag carried in the first octet.
func (d *Decoder) Encapsulation() (*Decoder, error) {
	body, err := d.OctetSeq()
	if err != nil {
		return nil, err
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("%w: empty encapsulation", ErrTruncated)
	}
	flag := body[0]
	if flag > 1 {
		return nil, fmt.Errorf("cdr: bad encapsulation byte-order flag %d", flag)
	}
	return NewDecoderAt(ByteOrder(flag), body[1:], 1), nil
}
