package orb

import (
	"bytes"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
)

// putFrame encodes one MsgWindowPut frame in order: the message header
// announcing bodyLen, the put preamble for h, then payload as given —
// so a test can make the three disagree.
func putFrame(order cdr.ByteOrder, h giop.WindowPutHeader, bodyLen uint32, payload []byte) []byte {
	frame := []byte{'P', 'I', 'O', 'P', giop.VersionMajor, giop.VersionMinor, byte(order) & 1, byte(giop.MsgWindowPut)}
	if order == cdr.BigEndian {
		frame = append(frame, byte(bodyLen>>24), byte(bodyLen>>16), byte(bodyLen>>8), byte(bodyLen))
	} else {
		frame = append(frame, byte(bodyLen), byte(bodyLen>>8), byte(bodyLen>>16), byte(bodyLen>>24))
	}
	e := cdr.NewEncoder(order)
	h.Encode(e)
	return append(append(frame, e.Bytes()...), payload...)
}

// streamConn is a connection whose inbound side is a fixed byte stream;
// whatever the server writes back is dropped.
type streamConn struct {
	*bytes.Reader
}

func (streamConn) Write(b []byte) (int, error)      { return len(b), nil }
func (streamConn) Close() error                     { return nil }
func (streamConn) LocalAddr() net.Addr              { return nil }
func (streamConn) RemoteAddr() net.Addr             { return nil }
func (streamConn) SetDeadline(time.Time) error      { return nil }
func (streamConn) SetReadDeadline(time.Time) error  { return nil }
func (streamConn) SetWriteDeadline(time.Time) error { return nil }

const (
	fuzzBudget   = 4 << 10 // the server's pending byte budget
	fuzzWindowN  = 64      // elements in the registered window
	fuzzGuardN   = 8       // guard elements past its end
	fuzzGuard    = -7.25
	fuzzRegID    = 0x1100
	fuzzUnregID  = 0x2200
	fuzzProbeID  = 0x3300
	fuzzProbeLen = 4
)

// FuzzWindowPut drives a server connection's read loop with one forged
// window put followed by a well-formed probe put. The server has one
// registered window whose destination is followed by guard elements,
// a probe window, and no registration for the unregistered ID. The read
// loop must not panic, must never write a guard element, and must keep
// the parked bytes within the pending budget; when the forged put is
// well formed — its body length, count and payload agree, and it either
// targets the registered window (in range or not) or fits the budget —
// the stream must stay framed and the probe must land.
func FuzzWindowPut(f *testing.F) {
	native, foreign := cdr.NativeOrder, cdr.BigEndian
	if native == cdr.BigEndian {
		foreign = cdr.LittleEndian
	}
	put := func(order cdr.ByteOrder, registered bool, dstOff, count uint32, bodyLen uint32) {
		e := cdr.NewEncoder(order)
		for i := uint32(0); i < count; i++ {
			e.PutDouble(float64(i) + 0.5)
		}
		f.Add(order == cdr.LittleEndian, registered, dstOff, count, bodyLen, e.Bytes())
	}
	base := uint32(giop.WindowPutPayloadBase)
	put(native, true, 0, 4, base+32)                         // in range
	put(native, true, fuzzWindowN-2, 4, base+32)             // DstOff past the end
	put(native, true, 0, 4, base+24)                         // Count disagrees with BodyLen
	put(foreign, true, 8, 16, base+128)                      // foreign byte order
	put(native, false, 0, 16, base+128)                      // parked early put
	put(native, false, 0, fuzzBudget/8+1, base+fuzzBudget+8) // over budget

	f.Fuzz(func(t *testing.T, little, registered bool, dstOff, count, bodyLen uint32, payload []byte) {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		id := uint64(fuzzUnregID)
		if registered {
			id = fuzzRegID
		}
		// The stream never carries more payload than the body announces,
		// so the read loop only ever parses the put and the probe.
		if room := int64(bodyLen) - int64(giop.WindowPutPayloadBase); int64(len(payload)) > room {
			payload = payload[:max(room, 0)]
		}
		stream := putFrame(order, giop.WindowPutHeader{WindowID: id, DstOff: dstOff, Count: count, Last: true}, bodyLen, payload)
		probe := []float64{1, 2, 3, 4}
		pe := cdr.NewEncoder(cdr.NativeOrder)
		pe.PutDoubles(probe)
		stream = append(stream, putFrame(cdr.NativeOrder,
			giop.WindowPutHeader{WindowID: fuzzProbeID, Count: fuzzProbeLen, Last: true},
			uint32(giop.WindowPutPayloadBase+8*fuzzProbeLen), pe.Bytes())...)

		srv := NewServer(nil, WithPendingPolicy(PendingPolicy{MaxBytes: fuzzBudget}))
		defer srv.Close()
		backing := make([]float64, fuzzWindowN+fuzzGuardN)
		for i := range backing {
			backing[i] = fuzzGuard
		}
		dst := backing[:fuzzWindowN:fuzzWindowN]
		_, cancelReg, err := srv.RegisterWindow(fuzzRegID, dst, fuzzWindowN, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cancelReg()
		probeDst := make([]float64, fuzzProbeLen)
		probeWin, cancelProbe, err := srv.RegisterWindow(fuzzProbeID, probeDst, fuzzProbeLen, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cancelProbe()

		sc := newServerConn(srv, streamConn{bytes.NewReader(stream)}, "fuzz")
		sc.readLoop()

		for i, v := range backing[fuzzWindowN:] {
			if v != fuzzGuard {
				t.Fatalf("guard element %d overwritten with %v", i, v)
			}
		}
		if st := srv.BlockStats(); st.PendingBytes > fuzzBudget {
			t.Fatalf("%d bytes parked, budget %d", st.PendingBytes, fuzzBudget)
		}
		n := 8 * uint64(count)
		wellFormed := uint64(bodyLen) == uint64(giop.WindowPutPayloadBase)+n &&
			uint64(len(payload)) == n && (registered || n <= fuzzBudget)
		if !wellFormed {
			return
		}
		select {
		case <-probeWin.Done():
		default:
			t.Fatal("a well-formed put tore the stream: the probe put after it never landed")
		}
		if err := probeWin.Err(); err != nil {
			t.Fatal(err)
		}
		for i, v := range probeDst {
			if v != probe[i] {
				t.Fatalf("probe element %d = %v, want %v", i, v, probe[i])
			}
		}
		if registered && uint64(dstOff)+uint64(count) <= fuzzWindowN {
			want := make([]float64, count)
			cdr.DecodeDoubles(want, payload, order)
			for i, v := range dst[dstOff : dstOff+count] {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("element %d = %v, want %v", int(dstOff)+i, v, want[i])
				}
			}
		}
	})
}

// replyConn is a streamConn that keeps what the server writes back.
type replyConn struct {
	streamConn
	mu  sync.Mutex
	out bytes.Buffer
}

func (c *replyConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Write(b)
}

// replied reports whether the bytes written back hold an OK reply to id.
func (c *replyConn) replied(id uint32) bool {
	c.mu.Lock()
	out := bytes.NewReader(c.out.Bytes())
	c.mu.Unlock()
	fr := giop.NewFrameReader(out)
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return false
		}
		if f.Type != giop.MsgReply {
			continue
		}
		if rh, err := giop.DecodeReplyHeader(cdr.NewDecoder(f.Order, f.Body)); err == nil &&
			rh.RequestID == id && rh.Status == giop.ReplyOK {
			return true
		}
	}
}

const (
	fuzzProbeKey = "probe"
	fuzzProbeReq = 0x7e57
	// fuzzAllocSlack is what a read loop may allocate beyond eighteen
	// times the bytes it was sent (a stepped body read allocates less
	// than 1 MiB plus 256/15 times what arrived): its reader's buffer, a
	// first body step, and the decoding and dispatch of a request or two.
	fuzzAllocSlack = 2 << 20
)

// requestBody encodes a request header for key in order, as the body of
// a MsgRequest frame.
func requestBody(order cdr.ByteOrder, id uint32, key string) []byte {
	e := cdr.NewEncoder(order)
	(&giop.RequestHeader{RequestID: id, ResponseExpected: true, ObjectKey: key,
		Operation: "ping", ThreadRank: -1, ThreadCount: 1}).Encode(e)
	return e.Bytes()
}

// FuzzRequestFrame drives a server connection's read loop with one
// forged Request frame, whose header announces protocol minor version
// minor and bodyLen bytes of which body follows, and then a well-formed
// probe request. The read loop must not panic and must allocate no more
// than eighteen times the bytes it was sent plus a constant, whatever
// length the forged header announced. A frame of any minor but the
// current one ends the connection before the probe is read; when the
// forged frame is current, complete and its request header decodes,
// the stream must stay framed and the probe must be answered.
func FuzzRequestFrame(f *testing.F) {
	native, foreign := cdr.NativeOrder, cdr.BigEndian
	if native == cdr.BigEndian {
		foreign = cdr.LittleEndian
	}
	req := requestBody(native, 1, "elsewhere")
	cur := byte(giop.VersionMinor)
	f.Add(native == cdr.LittleEndian, cur, uint32(len(req)), req)             // in range
	f.Add(native == cdr.LittleEndian, cur, uint32(giop.MaxBodyLen), []byte{}) // 1 GiB announced, absent
	f.Add(native == cdr.LittleEndian, cur, uint32(len(req)+100), req)         // shorter than announced
	freq := requestBody(foreign, 2, fuzzProbeKey)
	f.Add(foreign == cdr.LittleEndian, cur, uint32(len(freq)), freq)  // foreign byte order
	f.Add(native == cdr.LittleEndian, byte(0), uint32(len(req)), req) // a 1.0 peer's frame

	f.Fuzz(func(t *testing.T, little bool, minor byte, bodyLen uint32, body []byte) {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		if uint64(len(body)) > uint64(bodyLen) {
			body = body[:bodyLen]
		}
		stream := append(announce(order, giop.MsgRequest, bodyLen), body...)
		stream[5] = minor
		var probe bytes.Buffer
		if err := giop.WriteMessage(&probe, cdr.NativeOrder, giop.MsgRequest,
			requestBody(cdr.NativeOrder, fuzzProbeReq, fuzzProbeKey)); err != nil {
			t.Fatal(err)
		}
		stream = append(stream, probe.Bytes()...)

		srv := NewServer(nil)
		defer srv.Close()
		answered := make(chan struct{}, 2)
		srv.Handle(fuzzProbeKey, func(in *Incoming) {
			if in.Reply(giop.ReplyOK, nil) == nil {
				answered <- struct{}{}
			}
		})
		conn := &replyConn{streamConn: streamConn{bytes.NewReader(stream)}}
		sc := newServerConn(srv, conn, "fuzz")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sc.readLoop()
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, 18*uint64(len(stream))+fuzzAllocSlack; grew > bound {
			t.Fatalf("a %d-byte stream announcing %d body bytes allocated %d bytes, bound %d",
				len(stream), bodyLen, grew, bound)
		}

		if minor != giop.VersionMinor {
			if conn.replied(fuzzProbeReq) {
				t.Fatalf("the probe behind a minor-%d frame was answered", minor)
			}
			return
		}
		if uint64(len(body)) != uint64(bodyLen) {
			return
		}
		if _, err := giop.DecodeRequestHeader(cdr.NewDecoder(order, body)); err != nil {
			return
		}
		deadline := time.After(5 * time.Second)
		for !conn.replied(fuzzProbeReq) {
			select {
			case <-answered:
			case <-deadline:
				t.Fatal("a well-formed request tore the stream: the probe after it was never answered")
			}
		}
	})
}
