package spmd

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/giop"
	"pardis/internal/orb"
	"pardis/internal/rts"
	"pardis/internal/transport"
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

// requestFixture is a real two-thread object exporting diffusion and
// pair over a connection whose dials are counted, with every rank's
// argument blocks reseeded before each request as windows into a
// guarded backing array.
type requestFixture struct {
	obj     *testObject
	clients map[cdr.ByteOrder]*orb.Client
	dials   *transport.Faulty
	backing [][]float64 // rank r's block window for argument k is backing[2r+k]'s
}

// fuzzReqN is the well-formed length of the forged requests: their
// bodies are larger than the read buffer, and are parked and, shape
// permitting, land. fuzzSmallN is the length of the forged requests
// whose bodies fit the read buffer, which are parked whole.
const (
	fuzzReqN     = giop.DefaultReadBufSize/8 + 512
	fuzzSmallN   = 256
	fuzzReqGuard = 64 // guard elements around each rank's block window
)

func newRequestFixture(tb testing.TB) *requestFixture {
	inproc := transport.NewInproc()
	dials := transport.NewFaulty(inproc, transport.FaultPlan{})
	reg := transport.NewRegistry()
	reg.Register(cutDialTransport{listen: inproc, dial: dials})
	ops := func(th rts.Thread) map[string]*Op { return withPair(diffusionOps(th)) }
	f := &requestFixture{obj: startObject(tb, reg, 2, false, ops), dials: dials,
		clients: make(map[cdr.ByteOrder]*orb.Client)}
	tb.Cleanup(f.obj.close)
	// A client per byte order, each with its connection open.
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		cli := orb.NewClient(reg, orb.WithByteOrder(order), orb.WithStripes(1))
		tb.Cleanup(func() { cli.Close() })
		rh, d, err := invokeRaw(context.Background(), cli, f.obj.ref, "diffusion", legacyInvocation(1, InOut, 8, ramp(8)))
		if err := checkDiffusion(rh, d, err, 8, 1); err != nil {
			tb.Fatal(err)
		}
		f.clients[order] = cli
	}
	for range 2 * len(f.obj.threadObjects()) {
		f.backing = append(f.backing, make([]float64, fuzzReqN+2*fuzzReqGuard))
	}
	return f
}

// window is the block window of a backing array: capacity fuzzReqN/2 +
// guard elements, with fuzzReqGuard guard elements on either side.
func window(b []float64) []float64 {
	w := b[fuzzReqGuard : len(b)-fuzzReqGuard]
	return w[: len(w)/2+fuzzReqGuard : len(w)/2+fuzzReqGuard]
}

// seed hands every rank a fresh block window per argument.
func (f *requestFixture) seed() {
	for _, b := range f.backing {
		for i := range b {
			b[i] = landingGuard
		}
	}
	for r, o := range f.obj.threadObjects() {
		o.argBlocks = [][]float64{window(f.backing[2*r]), window(f.backing[2*r+1])}
	}
}

// guardsIntact reports whether the elements before each block window
// and past its capacity still hold the guard value.
func (f *requestFixture) guardsIntact() bool {
	for _, b := range f.backing {
		w := len(b) - 2*fuzzReqGuard
		for i, v := range b {
			if (i < fuzzReqGuard || i >= fuzzReqGuard+w/2+fuzzReqGuard) && v != landingGuard {
				return false
			}
		}
	}
	return true
}

// The shapes of a forged request (forgedRequest), each body but the
// first and the last inside the read buffer.
const (
	shapeLarge     = iota // centralized, about fuzzReqN elements
	shapeSmall            // centralized, about fuzzSmallN elements
	shapeNoArgs           // centralized, no argument
	shapeNoData           // centralized, the argument without inline data, as Out-only
	shapeMultiPort        // the small argument behind a multi-port method octet
	shapePair             // centralized, two arguments (the second an in one) of about fuzzReqN/2 elements
	shapeCount
)

// forgedRequest marshals an invocation of shape in order: each argument
// declares mode (the second one: In) and length, its client layout is
// one thread of clientLen, and its inline data announces count elements
// of which have follow, after every argument's metadata; then extra
// trailing bytes.
func forgedRequest(shape int, mode byte, length, clientLen, count, have, extra int) func(*cdr.Encoder) {
	return func(e *cdr.Encoder) {
		method := Centralized
		if shape == shapeMultiPort {
			method = MultiPort
		}
		e.PutOctet(byte(method))
		e.PutEncapsulation(cdr.BigEndian, func(ie *cdr.Encoder) { ie.PutLong(1) })
		modes := []byte{mode}
		switch shape {
		case shapeNoArgs:
			modes = nil
		case shapePair:
			modes = append(modes, byte(In))
		}
		e.PutULong(uint32(len(modes)))
		for _, m := range modes {
			e.PutOctet(m)
			e.PutULong(uint32(length))
			e.PutULongSeq([]uint32{uint32(clientLen)})
			e.PutStringSeq(nil)
			e.PutBoolean(shape != shapeNoData)
			if shape != shapeNoData {
				e.PutULong(uint32(count))
			}
		}
		if shape != shapeNoData {
			for range modes {
				e.PutDoubles(ramp(have))
			}
		}
		e.PutOctets(make([]byte, extra))
	}
}

// landBoth takes the body of a request to op, marshaled by body after a
// request header in order, both ways the communicator can: parked, its
// metadata decoded from the read buffer's prefix and its elements landed
// off a reader, and read whole, decoded after a whole read. When the
// prefix lets it land, both must reach the same verdict and, when that
// lets the request through, fill the blocks of every argument alike,
// the landing consuming exactly the body.
func landBoth(t *testing.T, o *Object, order cdr.ByteOrder, op string, body func(*cdr.Encoder)) {
	t.Helper()
	e := cdr.NewEncoder(order)
	(&giop.RequestHeader{RequestID: 1, ResponseExpected: true, ObjectKey: "fuzz", Operation: op}).Encode(e)
	base := len(e.Bytes())
	body(e)
	b := e.Bytes()
	landed, err := decodeInvocation(order, b[base:min(len(b), giop.DefaultReadBufSize)], base)
	if err != nil || landed.Method != Centralized {
		return // read whole, the one way left
	}
	whole, err := decodeInvocation(order, b[base:], base)
	if err != nil {
		t.Fatalf("a prefix that decodes for landing does not decode whole: %v", err)
	}
	spec := o.cfg.Ops[op].Spec
	code, detail := o.refuse(landed, op, spec, len(b))
	if wcode, wdetail := o.refuse(whole, op, spec, len(b)); wcode != code || wdetail != detail {
		t.Fatalf("verdicts differ: landing %q %q, whole %q %q", code, detail, wcode, wdetail)
	}
	if code != "" {
		return
	}
	fill := func(w *invocationWire) [][][]float64 {
		blocks := make([][][]float64, len(w.Args))
		for i, a := range w.Args {
			if a.Mode != Out && w.Method == Centralized {
				blocks[i] = [][]float64{make([]float64, a.Length/2), make([]float64, a.Length-a.Length/2)}
			}
		}
		return blocks
	}
	want := fill(whole)
	(&requestLanding{w: whole, blocks: want}).decode(&orb.Incoming{Order: order, Body: b[base:], BodyBase: base})
	got := fill(landed)
	fr := giop.NewFrameReader(bytes.NewReader(append(b, 0xEE)))
	if err := (&requestLanding{w: landed, blocks: got}).LandRequest(fr, giop.FrameHeader{Order: order, BodyLen: uint32(len(b))}); err != nil {
		t.Fatalf("landing a body that fits: %v", err)
	}
	if next, err := fr.Peek(1); err != nil || next[0] != 0xEE {
		t.Fatalf("the landing did not consume exactly the body: next %x (%v)", next, err)
	}
	for i := range want {
		for k := range want[i] {
			for j, v := range want[i][k] {
				if math.Float64bits(got[i][k][j]) != math.Float64bits(v) {
					t.Fatalf("argument %d block %d [%d]: landed %v, decoded whole %v", i, k, j, got[i][k][j], v)
				}
			}
		}
	}
}

// FuzzRequestLanding drives a real exported object with forged
// requests shaped to land — a length, client layout or element count
// off by a little, the wrong mode, fewer elements than announced (a
// length beyond the body), trailing bytes, either byte order; a body
// larger than the read buffer or inside it, with no argument, with no
// inline data, behind a multi-port method octet, or with two inline
// arguments — each followed by a well-formed probe on the same
// connection. The object must not panic; the forged request is
// answered, a refused one with a system exception, without losing the
// connection; no write lands outside the threads' blocks; and the probe
// returns the right elements. The same body, taken apart both ways the
// communicator can, landed and read whole, must get the same verdict
// and the same blocks (landBoth).
func FuzzRequestLanding(f *testing.F) {
	f.Add(byte(InOut), int16(0), int16(0), int16(0), int16(0), uint8(0), false, uint8(shapeLarge))     // well formed
	f.Add(byte(InOut), int16(0), int16(0), int16(0), int16(0), uint8(3), true, uint8(shapeLarge))      // foreign order for one host or the other
	f.Add(byte(InOut), int16(-8), int16(-8), int16(0), int16(0), uint8(0), false, uint8(shapeLarge))   // length and layout short of the data
	f.Add(byte(InOut), int16(9), int16(9), int16(9), int16(0), uint8(0), true, uint8(shapeLarge))      // elements beyond the body
	f.Add(byte(InOut), int16(0), int16(0), int16(-40), int16(-40), uint8(0), false, uint8(shapeLarge)) // inline data short of the length
	f.Add(byte(In), int16(0), int16(0), int16(0), int16(0), uint8(0), false, uint8(shapeLarge))        // mode mismatch
	f.Add(byte(InOut), int16(0), int16(5), int16(0), int16(0), uint8(0), false, uint8(shapeLarge))     // client layout disagrees
	f.Add(byte(7), int16(0), int16(0), int16(0), int16(0), uint8(0), true, uint8(shapeLarge))          // no such mode
	f.Add(byte(InOut), int16(0), int16(0), int16(0), int16(0), uint8(0), false, uint8(shapeSmall))     // well formed, inside the read buffer
	f.Add(byte(InOut), int16(9), int16(9), int16(9), int16(0), uint8(0), true, uint8(shapeSmall))      // elements beyond a small body
	f.Add(byte(InOut), int16(0), int16(0), int16(0), int16(0), uint8(5), false, uint8(shapeNoArgs))    // zero arguments
	f.Add(byte(Out), int16(0), int16(0), int16(0), int16(0), uint8(0), false, uint8(shapeNoData))      // Out-only
	f.Add(byte(InOut), int16(0), int16(0), int16(0), int16(0), uint8(0), true, uint8(shapeMultiPort))  // a multi-port prefix
	f.Add(byte(InOut), int16(0), int16(0), int16(0), int16(0), uint8(0), false, uint8(shapePair))      // two inline arguments
	f.Add(byte(InOut), int16(0), int16(0), int16(0), int16(0), uint8(7), true, uint8(shapePair))       // two, foreign order for one host or the other
	f.Add(byte(InOut), int16(0), int16(0), int16(0), int16(-3), uint8(0), false, uint8(shapePair))     // the first argument's elements short: the second's shift
	f.Add(byte(InOut), int16(3), int16(3), int16(3), int16(0), uint8(0), true, uint8(shapePair))       // the second argument's elements beyond the body
	f.Add(byte(Out), int16(0), int16(0), int16(0), int16(0), uint8(0), false, uint8(shapePair))        // an Out argument with inline data ahead of an in one
	fx := newRequestFixture(f)
	f.Fuzz(func(t *testing.T, mode byte, dLength, dClient, dCount, dHave int16, extra uint8, little bool, shape uint8) {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		// Keep each count near its shape's length — every body but the
		// large and the two-argument ones inside the read buffer, those
		// above it — and the client's connection to itself.
		sh := int(shape) % shapeCount
		base, op := fuzzSmallN, "diffusion"
		switch sh {
		case shapeLarge:
			base = fuzzReqN
		case shapePair:
			base, op = fuzzReqN/2, "pair"
		}
		clamp := func(d int16) int { return base + int(d)%256 }
		body := forgedRequest(sh, mode, clamp(dLength), clamp(dClient), clamp(dCount), clamp(dHave), int(extra))
		landBoth(t, fx.obj.threadObjects()[0], order, op, body)
		cli := fx.clients[order]
		dials := fx.dials.Stats().Dials
		fx.seed()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rh, _, err := invokeRaw(ctx, cli, fx.obj.ref, op, body)
		if err != nil {
			t.Fatalf("forged request: %v", err)
		}
		if rh.Status != giop.ReplyOK && rh.Status != giop.ReplySystemException {
			t.Fatalf("forged request answered %v", rh.Status)
		}
		if !fx.guardsIntact() {
			t.Fatal("a forged request landed outside the threads' blocks")
		}
		rh, d, err := invokeRaw(ctx, cli, fx.obj.ref, "diffusion", legacyInvocation(1, InOut, fuzzReqN, ramp(fuzzReqN)))
		if err := checkDiffusion(rh, d, err, fuzzReqN, 1); err != nil {
			t.Fatalf("probe after the forged request: %v", err)
		}
		if fx.dials.Stats().Dials != dials {
			t.Fatal("a forged request cost the connection")
		}
	})
}
