package giop

import (
	"bytes"
	"errors"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/telemetry"
)

// TestDeadlineHeaderRoundTrip: the 1.1 request header carries the
// remaining-deadline budget through framing in both byte orders, with
// the trace fields in front of it and body data after it.
func TestDeadlineHeaderRoundTrip(t *testing.T) {
	h := RequestHeader{
		RequestID:        9,
		InvocationID:     1 << 40,
		ResponseExpected: true,
		ObjectKey:        "objects/z",
		Operation:        "solve",
		ThreadRank:       2,
		ThreadCount:      4,
		Trace: telemetry.TraceContext{
			TraceID: 0xA5A5A5A5A5A5A5A5,
			SpanID:  0x5A5A5A5A5A5A5A5A,
			Sampled: true,
		},
		DeadlineMicros: 1_500_000, // 1.5s of budget left
	}
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		e := cdr.NewEncoder(order)
		h.Encode(e)
		e.PutLong(77)
		var buf bytes.Buffer
		if err := WriteMessage(&buf, order, MsgRequest, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		f, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		d := cdr.NewDecoder(f.Order, f.Body)
		got, err := DecodeRequestHeaderV(d, f.Minor)
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, h)
		}
		if got.DeadlineMicros != 1_500_000 {
			t.Fatalf("DeadlineMicros = %d", got.DeadlineMicros)
		}
		if v, _ := d.Long(); v != 77 {
			t.Fatalf("body after deadline header = %d", v)
		}
	}
}

// TestOldHeaderWithoutDeadlineBytes: DecodeRequestHeaderV knows only
// the current layout. Asked to decode under minor 0 it refuses with
// ErrBadVersion, whether the body holds a 1.0 header (no trace or
// deadline bytes) or a current one, and under VersionMinor it decodes
// the current header.
func TestOldHeaderWithoutDeadlineBytes(t *testing.T) {
	h := RequestHeader{
		RequestID:        4,
		InvocationID:     21,
		ResponseExpected: true,
		ObjectKey:        "objects/w",
		Operation:        "legacy",
		ThreadRank:       -1,
		ThreadCount:      1,
		DeadlineMicros:   1500,
	}
	old := cdr.NewEncoder(cdr.BigEndian)
	encodeV10(old, h)
	old.PutLong(55)
	cur := cdr.NewEncoder(cdr.BigEndian)
	h.Encode(cur)
	for name, body := range map[string][]byte{"1.0 layout": old.Bytes(), "1.1 layout": cur.Bytes()} {
		if _, err := DecodeRequestHeaderV(cdr.NewDecoder(cdr.BigEndian, body), 0); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("%s under minor 0: %v, want ErrBadVersion", name, err)
		}
	}
	got, err := DecodeRequestHeaderV(cdr.NewDecoder(cdr.BigEndian, cur.Bytes()), VersionMinor)
	if err != nil || got != h {
		t.Fatalf("current header: %+v, %v; want %+v", got, err, h)
	}
}
