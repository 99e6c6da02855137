package spmd

import (
	"bytes"
	"errors"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/giop"
	"pardis/internal/orb"
)

// landingFixture is a communicator's Pending for an operation with
// out-arguments of every shape — an inout one split over three client
// threads (one of them empty), an in one the reply skips, an empty out
// one and a two-block out one — whose lent blocks are windows into one
// backing array with guard elements around every block.
type landingFixture struct {
	p       *Pending
	backing []float64
}

const landingGuard = -7.25

func newLandingFixture(t testing.TB) *landingFixture {
	f := &landingFixture{}
	args := []struct {
		mode   ArgMode
		counts []int
	}{{InOut, []int{2, 0, 3}}, {In, []int{4}}, {Out, []int{0}}, {Out, []int{1, 3}}}
	spec := &CallSpec{Operation: "fuzz"}
	lent := make([][][]float64, len(args))
	for _, a := range args {
		for _, c := range a.counts {
			f.backing = append(f.backing, make([]float64, c+1)...)
		}
	}
	f.backing = append(f.backing, 0)
	for i := range f.backing {
		f.backing[i] = landingGuard
	}
	off := 1
	for i, a := range args {
		n := 0
		for _, c := range a.counts {
			lent[i] = append(lent[i], f.backing[off:off+c:off+c])
			off += c + 1
			n += c
		}
		seq, err := dseq.NewDoubles(n, dist.Block(), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		spec.Args = append(spec.Args, DistArg{Mode: a.mode, Seq: seq})
	}
	f.p = &Pending{b: &Binding{method: Centralized}, spec: spec, lent: lent}
	return f
}

// guardsIntact reports whether every element outside the lent blocks
// still holds the guard value.
func (f *landingFixture) guardsIntact() bool {
	inside := make(map[*float64]bool)
	for _, blocks := range f.p.lent {
		for _, blk := range blocks {
			for i := range blk {
				inside[&blk[i]] = true
			}
		}
	}
	for i := range f.backing {
		if !inside[&f.backing[i]] && f.backing[i] != landingGuard {
			return false
		}
	}
	return true
}

// landingReply encodes a reply body for the fixture's operation:
// ReplyHeader, the scalar encapsulation, then the out-arguments given.
func landingReply(order cdr.ByteOrder, outs ...[]float64) []byte {
	e := cdr.NewEncoder(order)
	(&giop.ReplyHeader{RequestID: 1, Status: giop.ReplyOK}).Encode(e)
	legacyReply(3, outs...)(e)
	return e.Bytes()
}

// forgedReply is a reply whose one out-argument claims the inout
// argument's full length, 5, in a body that ends before its elements.
func forgedReply() []byte {
	// ReplyHeader (8), encapsulation (4+8), out count (4), then the
	// length and the padding to the elements.
	return append(landingReply(cdr.BigEndian, ramp(5))[:24], 0, 0, 0, 5, 0, 0, 0, 0)
}

// FuzzReplyLanding feeds arbitrary reply bodies, whole or cut short on
// the stream, through a FrameReader into a Pending with fixed lent
// blocks. The lander must not panic nor write outside the blocks; when
// the whole body is there it must consume exactly its length — landed
// or rejected — and when the stream ends inside it, it must fail.
func FuzzReplyLanding(f *testing.F) {
	valid := landingReply(cdr.BigEndian, ramp(5), nil, ramp(4))
	f.Add(valid, false, uint32(len(valid)))
	f.Add(landingReply(cdr.LittleEndian, ramp(5), nil, ramp(4)), true, uint32(1<<31))
	f.Add(landingReply(cdr.BigEndian, ramp(5), nil, ramp(3)), false, uint32(1<<31)) // short
	f.Add(forgedReply(), false, uint32(1<<31))
	f.Add(valid, false, uint32(len(valid)-3)) // the stream ends in the elements

	trailer := []byte("next frame")
	f.Fuzz(func(t *testing.T, body []byte, little bool, streamLen uint32) {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		whole := int(streamLen) >= len(body)
		stream := append(append([]byte(nil), body...), trailer...)
		if !whole {
			stream = stream[:streamLen]
		}
		fx := newLandingFixture(t)
		fr := giop.NewFrameReader(bytes.NewReader(stream))
		env, err := fx.p.LandReply(fr, giop.FrameHeader{Type: giop.MsgReply, Order: order, BodyLen: uint32(len(body))})
		if !fx.guardsIntact() {
			t.Fatal("landing wrote outside the lent blocks")
		}
		streamErr := errors.Is(err, orb.ErrConnectionLost) || errors.Is(err, orb.ErrLandingTorn)
		if !whole {
			if err == nil {
				t.Fatalf("a body cut at %d of %d bytes landed", streamLen, len(body))
			}
			return
		}
		if streamErr {
			t.Fatalf("whole body: stream error %v", err)
		}
		if next, perr := fr.Peek(len(trailer)); perr != nil || !bytes.Equal(next, trailer) {
			t.Fatalf("landing (err %v) did not consume exactly the %d-byte body", err, len(body))
		}
		if err == nil {
			if _, derr := cdr.NewDecoder(cdr.BigEndian, env).Boolean(); derr != nil {
				t.Fatalf("landed without a status envelope: %v", derr)
			}
		} else if !errors.Is(err, ErrRemote) {
			t.Fatalf("rejection %v is not ErrRemote", err)
		}
	})
}

// TestReplyLandingSeeds pins what the fuzz seeds must do: the valid
// reply lands every out-argument in place, in either byte order, and
// the short and forged ones are rejected, the forged one before any
// element lands.
func TestReplyLandingSeeds(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		fx := newLandingFixture(t)
		body := landingReply(order, ramp(5), nil, ramp(4))
		fr := giop.NewFrameReader(bytes.NewReader(body))
		env, err := fx.p.LandReply(fr, giop.FrameHeader{Type: giop.MsgReply, Order: order, BodyLen: uint32(len(body))})
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		d := cdr.NewDecoder(cdr.BigEndian, env)
		if ok, _ := d.Boolean(); !ok {
			t.Fatalf("%v: envelope not OK", order)
		}
		enc, err := d.Encapsulation()
		if err != nil {
			t.Fatal(err)
		}
		if v, err := enc.Long(); err != nil || v != 3 {
			t.Fatalf("%v: scalar %d (%v)", order, v, err)
		}
		for i, want := range [][]float64{ramp(5), nil, nil, ramp(4)} {
			var got []float64
			for _, blk := range fx.p.lent[i] {
				got = append(got, blk...)
			}
			if fx.p.spec.Args[i].Mode == In {
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%v: arg %d landed %d elements", order, i, len(got))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%v: arg %d [%d] = %v", order, i, j, got[j])
				}
			}
		}
	}
	for name, body := range map[string][]byte{
		"short":  landingReply(cdr.BigEndian, ramp(5), nil, ramp(3)),
		"forged": forgedReply(),
	} {
		fx := newLandingFixture(t)
		fr := giop.NewFrameReader(bytes.NewReader(body))
		_, err := fx.p.LandReply(fr, giop.FrameHeader{Type: giop.MsgReply, Order: cdr.BigEndian, BodyLen: uint32(len(body))})
		if !errors.Is(err, ErrRemote) {
			t.Fatalf("%s: %v, want ErrRemote", name, err)
		}
		if name == "forged" {
			for _, v := range fx.p.lent[0][0] {
				if v != landingGuard {
					t.Fatalf("forged: element landed before the length was checked against the body")
				}
			}
		}
	}
}
