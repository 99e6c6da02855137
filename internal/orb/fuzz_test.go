package orb

import (
	"bytes"
	"context"
	"math"
	"net"
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

		sc := &serverConn{srv: srv, raw: streamConn{bytes.NewReader(stream)},
			endpoint: "fuzz", inflight: make(map[uint32]context.CancelFunc)}
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
