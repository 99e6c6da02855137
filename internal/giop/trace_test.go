package giop

import (
	"bytes"
	"errors"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/telemetry"
)

// TestTraceContextRoundTrip: the 1.1 request header carries the trace
// identity through framing in both byte orders.
func TestTraceContextRoundTrip(t *testing.T) {
	h := RequestHeader{
		RequestID:        7,
		InvocationID:     42,
		ResponseExpected: true,
		ObjectKey:        "objects/x",
		Operation:        "solve",
		ThreadRank:       -1,
		ThreadCount:      1,
		Trace: telemetry.TraceContext{
			TraceID: 0x0123456789ABCDEF,
			SpanID:  0xFEDCBA9876543210,
			Sampled: true,
		},
	}
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		e := cdr.NewEncoder(order)
		h.Encode(e)
		e.PutLong(99) // body data after the header must still align
		var buf bytes.Buffer
		if err := WriteMessage(&buf, order, MsgRequest, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		f, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if f.Minor != VersionMinor {
			t.Fatalf("frame minor = %d, want %d", f.Minor, VersionMinor)
		}
		d := cdr.NewDecoder(f.Order, f.Body)
		got, err := DecodeRequestHeaderV(d, f.Minor)
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, h)
		}
		if v, _ := d.Long(); v != 99 {
			t.Fatalf("body after traced header = %d", v)
		}
	}
}

// encodeV10 appends h in the retired PIOP 1.0 layout: the header ends
// right after ThreadCount, with no trace or deadline bytes.
func encodeV10(e *cdr.Encoder, h RequestHeader) {
	e.PutULong(h.RequestID)
	e.PutULongLong(h.InvocationID)
	e.PutBoolean(h.ResponseExpected)
	e.PutString(h.ObjectKey)
	e.PutString(h.Operation)
	e.PutLong(h.ThreadRank)
	e.PutLong(h.ThreadCount)
}

// TestOldHeaderWithoutTraceBytes: a request framed by a 1.0 peer (minor
// version byte 0, header without trace bytes) is refused at the frame
// header with ErrBadVersion by every reader, in both byte orders.
func TestOldHeaderWithoutTraceBytes(t *testing.T) {
	h := RequestHeader{
		RequestID:        3,
		InvocationID:     11,
		ResponseExpected: true,
		ObjectKey:        "objects/y",
		Operation:        "old",
		ThreadRank:       0,
		ThreadCount:      2,
	}
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		e := cdr.NewEncoder(order)
		encodeV10(e, h)
		e.PutLong(1234)
		var buf bytes.Buffer
		if err := WriteMessage(&buf, order, MsgRequest, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		frame[5] = 0 // frame it exactly as a 1.0 peer would
		if _, err := ReadFrame(bytes.NewReader(frame)); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("%v: ReadFrame of a 1.0 frame: %v, want ErrBadVersion", order, err)
		}
		fr := NewFrameReader(bytes.NewReader(frame))
		if _, err := fr.ReadFrameHeader(); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("%v: ReadFrameHeader of a 1.0 frame: %v, want ErrBadVersion", order, err)
		}
	}
}

// TestUntracedHeaderCostsZeros: an untraced 1.1 request carries a zero
// trace context, and decoding reports it invalid (so servers skip span
// creation entirely).
func TestUntracedHeaderCostsZeros(t *testing.T) {
	h := RequestHeader{RequestID: 1, ObjectKey: "k", Operation: "op", ThreadCount: 1}
	e := cdr.NewEncoder(cdr.BigEndian)
	h.Encode(e)
	got, err := DecodeRequestHeader(cdr.NewDecoder(cdr.BigEndian, e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace.Valid() {
		t.Fatalf("zero trace decoded as valid: %+v", got.Trace)
	}
}
