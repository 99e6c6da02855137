package giop

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/telemetry"
)

// FuzzGatherEquivalence: the gather writer must put on the wire exactly
// what a copying encoder framed by WriteMessage does. The script drives
// an interleaving of Put* calls and referenced double blocks (empty
// ones included) into a pooled encoder, which splices the blocks when
// it writes the host's order, and into a plain one, which copies them;
// the frames must match byte for byte through a gathering
// (BuffersWriter) connection and through a plain io.Writer alike.
func FuzzGatherEquivalence(f *testing.F) {
	f.Add([]byte{6, 3, 'k', 'e', 'y', 1, 7, 0, 4, 2, 9, 0, 9, 0, 1, 2, 1}, true)
	f.Add([]byte{9, 3, 9, 0, 9, 5, 4, 1, 9, 2, 3, 1, 2, 3, 7, 2, 'a', 'b'}, false)
	f.Add([]byte{9, 1, 9, 1, 9, 1, 8, 3, 1, 2, 3, 0, 5}, true)
	f.Fuzz(func(t *testing.T, script []byte, native bool) {
		order := cdr.NativeOrder
		if !native {
			order = 1 - order
		}
		copying := cdr.NewEncoder(order)
		gatherScript(copying, script)
		var want bytes.Buffer
		if err := WriteMessage(&want, order, MsgRequest, copying.Bytes()); err != nil {
			t.Fatal(err)
		}

		pe := AcquireEncoder(order)
		defer pe.Release()
		gatherScript(pe.Encoder, script)
		if !native && len(pe.Splices()) > 0 {
			t.Fatal("a foreign-order encoder spliced instead of swapping")
		}
		var gather buffersRecorder
		if err := WriteEncoded(&gather, MsgRequest, pe.Encoder); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gather.Bytes(), want.Bytes()) {
			t.Fatalf("gathered frame (%d splices) diverges:\n got % x\nwant % x",
				len(pe.Splices()), gather.Bytes(), want.Bytes())
		}
		var plain bytes.Buffer
		if err := WriteEncoded(struct{ io.Writer }{&plain}, MsgRequest, pe.Encoder); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.Bytes(), want.Bytes()) {
			t.Fatal("per-segment write of a gathered frame diverges")
		}
	})
}

// gatherScript interprets data as Put* calls on e: one opcode octet,
// then the operands it wants (an exhausted script reads as zeros).
// Opcode 9 references a block of doubles with PutDoublesRef.
func gatherScript(e *cdr.Encoder, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	doubles := func() []float64 {
		v := make([]float64, next()%24)
		for i := range v {
			v[i] = float64(next()) - 0.5
		}
		return v
	}
	for len(data) > 0 {
		switch next() % 10 {
		case 0:
			e.PutOctet(next())
		case 1:
			e.PutUShort(uint16(next()) << 4)
		case 2:
			e.PutULong(uint32(next()) << 9)
		case 3:
			e.PutULongLong(uint64(next()) << 33)
		case 4:
			e.PutDouble(float64(next()) / 3)
		case 5:
			e.PutBoolean(next()&1 == 1)
		case 6:
			e.PutString(string(bytes.Repeat([]byte{'s'}, int(next()%11))))
		case 7:
			e.PutOctetSeq(bytes.Repeat([]byte{next()}, int(next()%13)))
		case 8:
			e.PutDoubleSeq(doubles())
		case 9:
			e.PutDoublesRef(doubles())
		}
	}
}

// FuzzReadMessage: the wire reader must never panic or over-allocate
// on hostile frames.
func FuzzReadMessage(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteMessage(&buf, 0, MsgRequest, []byte("seed body"))
	f.Add(buf.Bytes())
	f.Add([]byte("PIOP"))
	f.Add([]byte{'P', 'I', 'O', 'P', 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, frame []byte) {
		typ, order, body, err := ReadMessage(bytes.NewReader(frame))
		if err != nil {
			return
		}
		// A frame that parses must re-frame identically.
		var out bytes.Buffer
		if err := WriteMessage(&out, order, typ, body); err != nil {
			t.Fatalf("re-frame failed: %v", err)
		}
	})
}

// FuzzFrameReader: the buffered frame reader must agree with the
// unbuffered ReadMessage on every input — same accept/reject verdict,
// same frame contents — and never panic, whatever the spare holds.
func FuzzFrameReader(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteMessage(&buf, 0, MsgRequest, []byte("seed body"))
	_ = WriteMessage(&buf, 1, MsgCancelRequest, []byte{1, 2, 3, 4})
	f.Add(buf.Bytes())
	f.Add([]byte("PIOP"))
	f.Add([]byte{'P', 'I', 'O', 'P', 1, 1, 0, 2, 0, 0, 0, 4, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := NewFrameReader(bytes.NewReader(stream))
		typ, order, body, refErr := ReadMessage(bytes.NewReader(stream))
		got, err := fr.ReadFrame()
		if (err == nil) != (refErr == nil) {
			t.Fatalf("verdicts diverge: FrameReader=%v ReadMessage=%v", err, refErr)
		}
		if err != nil {
			return
		}
		if got.Type != typ || got.Order != order || !bytes.Equal(got.Body, body) {
			t.Fatalf("frame diverges: %v/%v/% x vs %v/%v/% x",
				got.Type, got.Order, got.Body, typ, order, body)
		}
		got.Release()
	})
}

// FuzzRequestHeader: a RequestHeader round-trips through Encode in
// either byte order and at any stream offset mod 8, consuming exactly
// the bytes it encoded. The same header in the retired 1.0 layout (no
// trace or deadline bytes) must fail to decode, and DecodeRequestHeaderV
// refuses minor 0 outright. Arbitrary bytes decode without panicking,
// and whatever decodes re-encodes to a header that decodes the same —
// the server's read loop decodes large requests' headers straight from
// its peek window.
func FuzzRequestHeader(f *testing.F) {
	f.Add(uint32(7), uint64(42), true, "objects/diffusion", "diffusion", int32(0), int32(2),
		uint64(0xfeed), uint64(0xbeef), true, uint64(1500000), true, uint8(0), []byte{})
	f.Add(uint32(0), uint64(0), false, "", "", int32(-1), int32(1),
		uint64(0), uint64(0), false, uint64(1<<62), false, uint8(5), []byte{0, 0, 0, 1})
	f.Add(uint32(1<<31), ^uint64(0), true, "k", "op", int32(3), int32(4),
		^uint64(0), uint64(1), false, ^uint64(0), true, uint8(3),
		[]byte{1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 'k', 0})
	// A complete 1.0 header (little-endian, offset 0) as raw input: it
	// must not decode as a current header.
	f.Add(uint32(2), uint64(9), true, "k", "op", int32(0), int32(1),
		uint64(0), uint64(0), false, uint64(0), true, uint8(0),
		[]byte{2, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
			2, 0, 0, 0, 'k', 0, 0, 0, 3, 0, 0, 0, 'o', 'p', 0, 0, 0, 0, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, reqID uint32, inv uint64, resp bool, key, op string, rank, count int32,
		traceID, spanID uint64, sampled bool, deadline uint64, little bool, base uint8, raw []byte) {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		off := int(base % 8)
		h := RequestHeader{
			RequestID: reqID, InvocationID: inv, ResponseExpected: resp,
			ObjectKey: key, Operation: op, ThreadRank: rank, ThreadCount: count,
			Trace:          telemetry.TraceContext{TraceID: traceID, SpanID: spanID, Sampled: sampled},
			DeadlineMicros: deadline,
		}
		e := cdr.NewEncoderAt(order, off)
		h.Encode(e)
		d := cdr.NewDecoderAt(order, e.Bytes(), off)
		got, err := DecodeRequestHeader(d)
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("decoded %+v, encoded %+v", got, h)
		}
		if d.Remaining() != 0 {
			t.Fatalf("%d of %d bytes left undecoded", d.Remaining(), e.Len())
		}
		if _, err := DecodeRequestHeaderV(cdr.NewDecoderAt(order, e.Bytes(), off), 0); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("minor 0 accepted: %v", err)
		}
		old := cdr.NewEncoderAt(order, off)
		encodeV10(old, h)
		if got, err := DecodeRequestHeader(cdr.NewDecoderAt(order, old.Bytes(), off)); err == nil {
			t.Fatalf("1.0 layout decoded as %+v", got)
		}

		h, err = DecodeRequestHeader(cdr.NewDecoderAt(order, raw, off))
		if err != nil {
			return
		}
		e = cdr.NewEncoderAt(order, off)
		h.Encode(e)
		again, err := DecodeRequestHeader(cdr.NewDecoderAt(order, e.Bytes(), off))
		if err != nil || again != h {
			t.Fatalf("%+v re-encoded decodes as %+v (%v)", h, again, err)
		}
	})
}
