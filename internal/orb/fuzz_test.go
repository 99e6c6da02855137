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
	fuzzWindowN  = 64 // elements in each fuzzed window
	fuzzGuardN   = 8  // guard elements past its end
	fuzzGuard    = -7.25
	fuzzRegID    = 0x1100 // three windows of one binding (prefix 0), each for its own
	fuzzUnregID  = 0x2201 // argument, so arming the probe's epoch 0x33 neither lands
	fuzzProbeID  = 0x3302 // nor skims a put for epoch 0x11 or 0x22
	fuzzProbeLen = 4
)

// How the harness ends the wait of a put for the unregistered ID.
const (
	fuzzEndRegister = iota // the window registers, and the put lands
	fuzzEndEpoch           // the epoch ends, and the put is skimmed
	fuzzEndClose           // the connection ends
	fuzzEnds
)

// guarded returns a window destination of fuzzWindowN elements followed
// by fuzzGuardN guard elements in the same backing array.
func guarded() (dst, backing []float64) {
	backing = make([]float64, fuzzWindowN+fuzzGuardN)
	for i := range backing {
		backing[i] = fuzzGuard
	}
	return backing[:fuzzWindowN:fuzzWindowN], backing
}

// FuzzWindowPut drives a server connection's read loop with one forged
// window put followed by a well-formed probe put. The server has one
// registered window whose destination is followed by guard elements and
// a probe window; the unregistered ID's window registers only when the
// harness says so. The read loop must not panic and must never write a
// guard element. A put for the unregistered ID waits: while it does, it
// has allocated nothing for its payload and the probe behind it has not
// landed; the harness then ends the wait by registering the window,
// retiring the ID or closing the connection, and the read loop must
// return. When the forged put is well formed — its body length, count
// and payload agree — and the connection was not closed, the stream must
// stay framed and the probe must land, and an in-range put must land
// exactly in its window.
func FuzzWindowPut(f *testing.F) {
	native, foreign := cdr.NativeOrder, cdr.BigEndian
	if native == cdr.BigEndian {
		foreign = cdr.LittleEndian
	}
	put := func(order cdr.ByteOrder, registered bool, end uint8, dstOff, count uint32, bodyLen uint32) {
		e := cdr.NewEncoder(order)
		for i := uint32(0); i < count && i < fuzzWindowN; i++ {
			e.PutDouble(float64(i) + 0.5)
		}
		f.Add(order == cdr.LittleEndian, registered, end, dstOff, count, bodyLen, e.Bytes())
	}
	base := uint32(giop.WindowPutPayloadBase)
	put(native, true, 0, 0, 4, base+32)                           // in range
	put(native, true, 0, fuzzWindowN-2, 4, base+32)               // DstOff past the end
	put(native, true, 0, 0, 4, base+24)                           // Count disagrees with BodyLen
	put(foreign, true, 0, 8, 16, base+128)                        // foreign byte order
	put(native, false, fuzzEndRegister, 0, 16, base+128)          // waits, then lands
	put(foreign, false, fuzzEndRegister, 8, 16, base+128)         // waits, then lands, foreign order
	put(native, false, fuzzEndEpoch, 0, 16, base+128)             // its epoch ends
	put(native, false, fuzzEndClose, 0, 16, base+128)             // the connection ends
	put(native, false, fuzzEndRegister, 0, 1<<17, base+8*(1<<17)) // a 1 MiB put waits, its payload unsent

	f.Fuzz(func(t *testing.T, little, registered bool, end uint8, dstOff, count, bodyLen uint32, payload []byte) {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		end %= fuzzEnds
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

		srv := NewServer(nil)
		defer srv.Close()
		regDst, regBacking := guarded()
		_, cancelReg, err := srv.RegisterWindow(fuzzRegID, regDst, fuzzWindowN, nil)
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
		lateDst, lateBacking := guarded()

		var before, waiting runtime.MemStats
		runtime.ReadMemStats(&before)
		sc := newServerConn(srv, streamConn{bytes.NewReader(stream)}, "fuzz")
		loopDone := make(chan struct{})
		go func() {
			defer close(loopDone)
			sc.readLoop()
		}()
		waited := false
	await:
		for {
			select {
			case <-loopDone:
				break await
			default:
			}
			if srv.BlockStats().Pending == 1 {
				waited = true
				break
			}
			time.Sleep(10 * time.Microsecond)
		}
		if waited {
			if registered {
				t.Fatal("a put for a registered window waits")
			}
			n := 8 * uint64(count)
			if n >= 1<<20 {
				runtime.ReadMemStats(&waiting)
				if grew := waiting.TotalAlloc - before.TotalAlloc; grew >= n/2 {
					t.Fatalf("a waiting put of %d bytes allocated %d", n, grew)
				}
			}
			select {
			case <-probeWin.Done():
				t.Fatal("the probe behind a waiting put landed")
			default:
			}
			switch end {
			case fuzzEndRegister:
				_, cancelLate, err := srv.RegisterWindow(fuzzUnregID, lateDst, fuzzWindowN, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer cancelLate()
			case fuzzEndEpoch:
				srv.EndEpoch(fuzzUnregID >> 8)
			case fuzzEndClose:
				sc.close()
			}
		}
		select {
		case <-loopDone:
		case <-time.After(10 * time.Second):
			sc.close()
			t.Fatalf("the read loop did not return after its wait ended (%d)", end)
		}

		for _, backing := range [][]float64{regBacking, lateBacking} {
			for i, v := range backing[fuzzWindowN:] {
				if v != fuzzGuard {
					t.Fatalf("guard element %d overwritten with %v", i, v)
				}
			}
		}
		n := 8 * uint64(count)
		wellFormed := uint64(bodyLen) == uint64(giop.WindowPutPayloadBase)+n && uint64(len(payload)) == n
		if !wellFormed || (waited && end == fuzzEndClose) {
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
		dst := regDst
		if !registered {
			if end != fuzzEndRegister {
				return
			}
			dst = lateDst
		}
		if uint64(dstOff)+uint64(count) <= fuzzWindowN {
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
	// fuzzLandingKey is installed with HandleLanding: a request to it is
	// parked, whatever its size, and its handler skims it.
	fuzzLandingKey = "landing"
	fuzzProbeReq   = 0x7e57
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
// the stream must stay framed and the probe must be answered. A typ of
// 3 or 4 forges the frame as a retired Locate message instead of a
// Request (any other typ leaves it a Request); like a foreign minor, it
// ends the connection before the probe is read.
func FuzzRequestFrame(f *testing.F) {
	native, foreign := cdr.NativeOrder, cdr.BigEndian
	if native == cdr.BigEndian {
		foreign = cdr.LittleEndian
	}
	req := requestBody(native, 1, "elsewhere")
	cur := byte(giop.VersionMinor)
	f.Add(native == cdr.LittleEndian, cur, byte(0), uint32(len(req)), req)             // in range
	f.Add(native == cdr.LittleEndian, cur, byte(0), uint32(giop.MaxBodyLen), []byte{}) // 1 GiB announced, absent
	f.Add(native == cdr.LittleEndian, cur, byte(0), uint32(len(req)+100), req)         // shorter than announced
	freq := requestBody(foreign, 2, fuzzProbeKey)
	f.Add(foreign == cdr.LittleEndian, cur, byte(0), uint32(len(freq)), freq)  // foreign byte order
	f.Add(native == cdr.LittleEndian, byte(0), byte(0), uint32(len(req)), req) // a 1.0 peer's frame
	lreq := append(requestBody(native, 3, fuzzLandingKey), make([]byte, 64)...)
	f.Add(native == cdr.LittleEndian, cur, byte(0), uint32(len(lreq)), lreq) // small, parked
	f.Add(native == cdr.LittleEndian, cur, byte(3), uint32(len(req)), req)   // a LocateRequest
	f.Add(native == cdr.LittleEndian, cur, byte(4), uint32(len(req)), req)   // a LocateReply

	f.Fuzz(func(t *testing.T, little bool, minor, typ byte, bodyLen uint32, body []byte) {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		if uint64(len(body)) > uint64(bodyLen) {
			body = body[:bodyLen]
		}
		retired := typ == 3 || typ == 4
		stream := append(announce(order, giop.MsgRequest, bodyLen), body...)
		stream[5] = minor
		if retired {
			stream[7] = typ
		}
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
		srv.HandleLanding(fuzzLandingKey, func(in *Incoming) {
			in.Release()
			_ = in.Reply(giop.ReplyOK, nil)
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

		if retired {
			if conn.replied(fuzzProbeReq) {
				t.Fatalf("the probe behind a type-%d frame was answered", typ)
			}
			return
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
