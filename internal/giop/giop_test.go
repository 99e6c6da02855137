package giop

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"pardis/internal/cdr"
)

func TestMessageRoundTrip(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		var buf bytes.Buffer
		body := []byte{1, 2, 3, 4, 5}
		if err := WriteMessage(&buf, order, MsgRequest, body); err != nil {
			t.Fatal(err)
		}
		typ, gotOrder, gotBody, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != MsgRequest || gotOrder != order || !bytes.Equal(gotBody, body) {
			t.Fatalf("%v: got %v %v %v", order, typ, gotOrder, gotBody)
		}
	}
}

func TestEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, cdr.BigEndian, MsgCloseConnection, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != HeaderLen {
		t.Fatalf("frame length = %d", buf.Len())
	}
	typ, _, body, err := ReadMessage(&buf)
	if err != nil || typ != MsgCloseConnection || len(body) != 0 {
		t.Fatalf("read: %v %v %v", typ, body, err)
	}
}

func TestMultipleMessagesOnStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteMessage(&buf, cdr.LittleEndian, MsgReply, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		_, _, body, err := ReadMessage(&buf)
		if err != nil || body[0] != byte(i) {
			t.Fatalf("message %d: %v %v", i, body, err)
		}
	}
}

func TestBadMagic(t *testing.T) {
	frame := make([]byte, HeaderLen)
	copy(frame, "NOPE")
	_, _, _, err := ReadMessage(bytes.NewReader(frame))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadVersion(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteMessage(&buf, cdr.BigEndian, MsgRequest, nil)
	frame := buf.Bytes()
	frame[4] = 9
	_, _, _, err := ReadMessage(bytes.NewReader(frame))
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v", err)
	}
}

// TestBadType: a type past the table and the two reserved Locate
// slots (3, 4) are refused by every reader and by the writer.
func TestBadType(t *testing.T) {
	for _, typ := range []byte{3, 4, byte(msgTypeCount), 200} {
		var buf bytes.Buffer
		_ = WriteMessage(&buf, cdr.BigEndian, MsgRequest, nil)
		frame := buf.Bytes()
		frame[7] = typ
		if _, _, _, err := ReadMessage(bytes.NewReader(frame)); !errors.Is(err, ErrBadType) {
			t.Fatalf("type %d: ReadMessage err = %v", typ, err)
		}
		if _, err := NewFrameReader(bytes.NewReader(frame)).ReadFrame(); !errors.Is(err, ErrBadType) {
			t.Fatalf("type %d: ReadFrame err = %v", typ, err)
		}
		if _, err := NewFrameReader(bytes.NewReader(frame)).ReadFrameHeader(); !errors.Is(err, ErrBadType) {
			t.Fatalf("type %d: ReadFrameHeader err = %v", typ, err)
		}
		if err := WriteMessage(io.Discard, cdr.BigEndian, MsgType(typ), nil); !errors.Is(err, ErrBadType) {
			t.Fatalf("type %d: WriteMessage err = %v", typ, err)
		}
	}
}

// TestWireValues pins the number every surviving message type and
// reply status carries on the wire: retiring a message or status must
// leave the others where they were.
func TestWireValues(t *testing.T) {
	for _, c := range []struct {
		got  uint32
		want uint32
		name string
	}{
		{uint32(MsgRequest), 0, "MsgRequest"},
		{uint32(MsgReply), 1, "MsgReply"},
		{uint32(MsgCancelRequest), 2, "MsgCancelRequest"},
		{uint32(MsgCloseConnection), 5, "MsgCloseConnection"},
		{uint32(MsgError), 6, "MsgError"},
		{uint32(MsgBlockTransfer), 7, "MsgBlockTransfer"},
		{uint32(MsgWindowPut), 8, "MsgWindowPut"},
		{uint32(ReplyOK), 0, "ReplyOK"},
		{uint32(ReplyUserException), 1, "ReplyUserException"},
		{uint32(ReplySystemException), 2, "ReplySystemException"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d on the wire, want %d", c.name, c.got, c.want)
		}
	}
}

func TestOversizeLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteMessage(&buf, cdr.BigEndian, MsgRequest, nil)
	frame := buf.Bytes()
	frame[8], frame[9], frame[10], frame[11] = 0xFF, 0xFF, 0xFF, 0xFF
	_, _, _, err := ReadMessage(bytes.NewReader(frame))
	if !errors.Is(err, ErrTooLong) {
		t.Fatalf("err = %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteMessage(&buf, cdr.BigEndian, MsgRequest, []byte("full body"))
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, _, _, err := ReadMessage(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("cut=%d: no error", cut)
		}
	}
}

func TestRequestHeaderRoundTrip(t *testing.T) {
	h := RequestHeader{
		RequestID:        77,
		InvocationID:     0xDEADBEEF12345678,
		ResponseExpected: true,
		ObjectKey:        "objects/diffusion/0",
		Operation:        "diffusion",
		ThreadRank:       2,
		ThreadCount:      4,
	}
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		e := cdr.NewEncoder(order)
		h.Encode(e)
		e.PutLong(1234) // trailing body data must still align
		d := cdr.NewDecoder(order, e.Bytes())
		got, err := DecodeRequestHeader(d)
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("round trip: %+v != %+v", got, h)
		}
		if v, _ := d.Long(); v != 1234 {
			t.Fatalf("body after header = %d", v)
		}
	}
}

func TestReplyHeaderRoundTrip(t *testing.T) {
	for _, st := range []ReplyStatus{ReplyOK, ReplyUserException, ReplySystemException} {
		h := ReplyHeader{RequestID: 5, Status: st}
		e := cdr.NewEncoder(cdr.BigEndian)
		h.Encode(e)
		got, err := DecodeReplyHeader(cdr.NewDecoder(cdr.BigEndian, e.Bytes()))
		if err != nil || got != h {
			t.Fatalf("%v: %+v %v", st, got, err)
		}
	}
}

func TestCancelHeaderRoundTrip(t *testing.T) {
	h := CancelRequestHeader{RequestID: 1 << 31}
	e := cdr.NewEncoder(cdr.BigEndian)
	h.Encode(e)
	got, err := DecodeCancelRequestHeader(cdr.NewDecoder(cdr.BigEndian, e.Bytes()))
	if err != nil || got != h {
		t.Fatalf("cancel: %+v %v", got, err)
	}
}

func TestBlockTransferHeaderRoundTrip(t *testing.T) {
	h := BlockTransferHeader{
		InvocationID: 3,
		ArgIndex:     1,
		FromThread:   2,
		ToThread:     5,
		DstOff:       16384,
		Count:        16384,
		Last:         true,
	}
	e := cdr.NewEncoder(cdr.LittleEndian)
	h.Encode(e)
	got, err := DecodeBlockTransferHeader(cdr.NewDecoder(cdr.LittleEndian, e.Bytes()))
	if err != nil || got != h {
		t.Fatalf("block transfer: %+v %v", got, err)
	}
}

func TestSystemExceptionRoundTrip(t *testing.T) {
	ex := &SystemException{Code: "OBJECT_NOT_EXIST", Detail: "no such key"}
	e := cdr.NewEncoder(cdr.BigEndian)
	ex.Encode(e)
	got, err := DecodeSystemException(cdr.NewDecoder(cdr.BigEndian, e.Bytes()))
	if err != nil || got.Code != ex.Code || got.Detail != ex.Detail {
		t.Fatalf("exception: %+v %v", got, err)
	}
	if got.Error() == "" {
		t.Fatal("empty error text")
	}
}

// Property: arbitrary request headers and bodies survive framing in
// both byte orders.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(id uint32, oneway bool, key, op string, rank, count int32, body []byte, le bool) bool {
		key = stripNUL(key)
		op = stripNUL(op)
		order := cdr.BigEndian
		if le {
			order = cdr.LittleEndian
		}
		h := RequestHeader{
			RequestID:        id,
			ResponseExpected: !oneway,
			ObjectKey:        key,
			Operation:        op,
			ThreadRank:       rank,
			ThreadCount:      count,
		}
		e := cdr.NewEncoder(order)
		h.Encode(e)
		e.PutOctetSeq(body)
		var buf bytes.Buffer
		if err := WriteMessage(&buf, order, MsgRequest, e.Bytes()); err != nil {
			return false
		}
		typ, gotOrder, raw, err := ReadMessage(&buf)
		if err != nil || typ != MsgRequest || gotOrder != order {
			return false
		}
		d := cdr.NewDecoder(gotOrder, raw)
		got, err := DecodeRequestHeader(d)
		if err != nil || got != h {
			return false
		}
		gotBody, err := d.OctetSeq()
		return err == nil && bytes.Equal(gotBody, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func stripNUL(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == 0 {
			return s[:i]
		}
	}
	return s
}
