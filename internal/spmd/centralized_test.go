package spmd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/mp"
	"pardis/internal/orb"
	"pardis/internal/rts"
	"pardis/internal/transport"
)

// The raw peers below speak the centralized wire the way a peer built
// before marshal-in-place does — the whole sequence through
// PutDoubleSeq / DoubleSeq — so every test that pairs one with a real
// Binding or Object also proves old and new peers interoperate.

// legacyInvocation marshals a centralized one-argument invocation body
// with the argument's elements as one gathered sequence. data == nil
// omits the inline data altogether.
func legacyInvocation(steps int32, mode ArgMode, length int, data []float64) func(*cdr.Encoder) {
	return func(e *cdr.Encoder) {
		e.PutOctet(byte(Centralized))
		e.PutEncapsulation(cdr.BigEndian, func(ie *cdr.Encoder) { ie.PutLong(steps) })
		e.PutULong(1)
		e.PutOctet(byte(mode))
		e.PutULong(uint32(length))
		e.PutULongSeq([]uint32{uint32(length)})
		e.PutStringSeq(nil)
		e.PutBoolean(data != nil)
		if data != nil {
			e.PutDoubleSeq(data)
		}
	}
}

// legacyReply marshals a reply body: the scalar result and the
// out-arguments, each as one gathered sequence.
func legacyReply(steps int32, outs ...[]float64) func(*cdr.Encoder) {
	return func(e *cdr.Encoder) {
		e.PutEncapsulation(cdr.BigEndian, func(ie *cdr.Encoder) { ie.PutLong(steps) })
		e.PutULong(uint32(len(outs)))
		for _, o := range outs {
			e.PutDoubleSeq(o)
		}
	}
}

// rawInvoke sends one request from a bare ORB client to an object's
// communicator, bounded by a deadline so a wedged object fails the
// test instead of hanging it.
func rawInvoke(t *testing.T, cli *orb.Client, ref *ior.Ref, body func(*cdr.Encoder)) (giop.ReplyHeader, *cdr.Decoder) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rh, order, raw, err := cli.Invoke(ctx, ref.Endpoints[0], giop.RequestHeader{
		InvocationID:     cli.NewInvocationID(),
		ResponseExpected: true,
		ObjectKey:        ref.Key,
		Operation:        "diffusion",
		ThreadCount:      1,
	}, body)
	if err != nil {
		t.Fatalf("raw invocation: %v (a timeout here means the object is wedged)", err)
	}
	return rh, cdr.NewDecoderAt(order, raw, 8)
}

// ramp returns n doubles 0,1,2,...
func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i)
	}
	return v
}

// fakeObject is a bare ORB server standing in for a one-thread SPMD
// object exporting the one operation op: it answers describe itself and
// hands every invocation to serve.
func fakeObject(t *testing.T, reg *transport.Registry, op string, spec OpSpec, serve orb.Handler, opts ...orb.ServerOption) *ior.Ref {
	t.Helper()
	srv := orb.NewServer(reg, opts...)
	t.Cleanup(func() { srv.Close() })
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	ref := &ior.Ref{TypeID: "IDL:test_object:1.0", Key: "objects/fake", Threads: 1, Endpoints: []string{ep}}
	srv.Handle(ref.Key, func(in *orb.Incoming) {
		if in.Header.Operation == DescribeOperation {
			w := describeWire{Threads: 1, Ops: map[string]*OpSpec{op: &spec}}
			_ = in.Reply(giop.ReplyOK, w.encode)
			return
		}
		serve(in)
	})
	return ref
}

// everyRank runs fn on an n-thread centralized client bound to ref and
// fails the test if any rank is still inside fn after the deadline —
// the signature of a thread left behind in a collective.
func everyRank(t *testing.T, reg *transport.Registry, n int, ref *ior.Ref, fn func(b *Binding, th rts.Thread) error) {
	t.Helper()
	done := make(chan error, 1)
	w := mp.MustWorld(n)
	defer w.Close()
	go func() {
		var wg sync.WaitGroup
		errs := make([]error, n)
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(th rts.Thread) {
				defer wg.Done()
				b, err := Bind(context.Background(), BindConfig{Thread: th, Registry: reg, Method: Centralized}, ref)
				if err != nil {
					errs[th.Rank()] = err
					return
				}
				defer b.Close()
				errs[th.Rank()] = fn(b, th)
			}(rts.NewMessagePassing(w.Rank(r)))
		}
		wg.Wait()
		done <- errors.Join(errs...)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("a client thread is stranded in a collective")
	}
}

// TestFaultCentralizedShortInlineData: a request whose inline data is
// shorter than the declared length, or missing, must be refused with
// BAD_PARAM by the communicator before the collective is engaged —
// found by thread 0 alone after the control broadcast, it would strand
// the other threads in the scatter and wedge the object until Close.
// The object must serve the next well-formed invocation.
func TestFaultCentralizedShortInlineData(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 3, false, diffusionOps)
	defer obj.close()
	cli := orb.NewClient(reg)
	defer cli.Close()

	for name, data := range map[string][]float64{"short": ramp(250), "missing": nil} {
		rh, d := rawInvoke(t, cli, obj.ref, legacyInvocation(1, InOut, 300, data))
		if rh.Status != giop.ReplySystemException {
			t.Fatalf("%s inline data: reply status %v, want a system exception", name, rh.Status)
		}
		if ex, err := giop.DecodeSystemException(d); err != nil || ex.Code != "BAD_PARAM" {
			t.Fatalf("%s inline data: exception %+v (%v), want BAD_PARAM", name, ex, err)
		}
	}

	rh, d := rawInvoke(t, cli, obj.ref, legacyInvocation(1, InOut, 300, ramp(300)))
	if rh.Status != giop.ReplyOK {
		t.Fatalf("well-formed invocation after the refusals: status %v", rh.Status)
	}
	if _, err := d.Encapsulation(); err != nil {
		t.Fatal(err)
	}
	if n, err := d.ULong(); err != nil || n != 1 {
		t.Fatalf("out-argument count %d (%v)", n, err)
	}
	out, err := d.DoubleSeq()
	if err != nil || len(out) != 300 {
		t.Fatalf("out argument: %d elements (%v)", len(out), err)
	}
	for i, v := range out {
		if v != float64(2*i) {
			t.Fatalf("out[%d] = %v, want %v", i, v, 2*i)
		}
	}
}

// TestFaultCentralizedShortReply: a reply that lacks the out-argument,
// carries it short, or announces it whole but ends before its elements
// do, is seen by the communicator alone, which rejects it before any
// element lands; every client thread must fail the invocation alike
// (none stranded in the scatter), the connection must survive, and the
// binding must carry the next invocation. Once with a payload inside
// the connection's read buffer and once with one several times its size.
func TestFaultCentralizedShortReply(t *testing.T) {
	for _, n := range []int{300, 4 * giop.DefaultReadBufSize / 8} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			inproc := transport.NewInproc()
			dials := transport.NewFaulty(inproc, transport.FaultPlan{})
			reg := transport.NewRegistry()
			reg.Register(cutDialTransport{listen: inproc, dial: dials})
			var mu sync.Mutex
			calls := 0
			ref := fakeObject(t, reg, "diffusion", diffusionOps(nil)["diffusion"].Spec, func(in *orb.Incoming) {
				mu.Lock()
				calls++
				k := calls
				mu.Unlock()
				switch k {
				case 1:
					_ = in.Reply(giop.ReplyOK, legacyReply(1))
				case 2:
					_ = in.Reply(giop.ReplyOK, legacyReply(1, ramp(n-50)))
				case 3:
					// One out-argument announced at its full length n, in a
					// body that ends one element early.
					_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) {
						e.PutEncapsulation(cdr.BigEndian, func(ie *cdr.Encoder) { ie.PutLong(1) })
						e.PutULong(1)
						e.PutULong(uint32(n))
						e.PutDoubles(ramp(n - 1))
					})
				default:
					_ = in.Reply(giop.ReplyOK, legacyReply(1, ramp(n)))
				}
			})
			everyRank(t, reg, 3, ref, func(b *Binding, th rts.Thread) error {
				seq, err := dseq.NewDoubles(n, dist.Block(), th.Size(), th.Rank())
				if err != nil {
					return err
				}
				seq.FillIndexed(func(int) float64 { return -1 })
				spec := &CallSpec{
					Operation: "diffusion",
					Scalars:   func(e *cdr.Encoder) { e.PutLong(1) },
					Args:      []DistArg{{Mode: InOut, Seq: seq}},
				}
				for _, what := range []string{"missing", "short", "truncated"} {
					err := b.Invoke(context.Background(), spec)
					if !errors.Is(err, ErrRemote) {
						return fmt.Errorf("rank %d: reply with %s out argument: %v", th.Rank(), what, err)
					}
					for i, v := range seq.LocalData() {
						if v != -1 {
							return fmt.Errorf("rank %d: [%d] = %v after the %s reply was rejected", th.Rank(), i, v, what)
						}
					}
				}
				if err := b.Invoke(context.Background(), spec); err != nil {
					return fmt.Errorf("rank %d: well-formed reply after the bad ones: %v", th.Rank(), err)
				}
				for i, v := range seq.LocalData() {
					if v != float64(seq.Lo()+i) {
						return fmt.Errorf("rank %d: [%d] = %v", th.Rank(), i, v)
					}
				}
				return nil
			})
			if st := dials.Stats(); st.Dials != 1 {
				t.Fatalf("%d dials: a rejected reply cost the connection", st.Dials)
			}
		})
	}
}

// TestCentralizedCrossEndian runs the centralized round trip with the
// raw peer pinned to each byte order in turn, so that on any host one of
// the two crosses a byte-order boundary: a foreign-order client into a
// real object, and a real binding against a foreign-order server. Either
// communicator must land the message's elements off the connection
// straight into its threads' blocks — through the swap scratch, in
// several rounds, since the payload is larger than the connection's
// read buffer; the object must not read the request whole. Each raw peer
// speaks both the gathered encoding and the marshal-in-place one, whose
// blocks a foreign-order pooled encoder must copy and swap instead of
// splicing. The server's operation has several out-arguments, one of
// them empty (no alignment pad on the wire), and an in-argument between
// them that the reply skips.
func TestCentralizedCrossEndian(t *testing.T) {
	const n = giop.DefaultReadBufSize/8 + 301
	for _, order := range []cdr.ByteOrder{cdr.LittleEndian, cdr.BigEndian} {
		t.Run(order.String()+" client", func(t *testing.T) {
			reg := newReg()
			obj := startObject(t, reg, 3, false, diffusionOps)
			defer obj.close()
			cli := orb.NewClient(reg, orb.WithByteOrder(order))
			defer cli.Close()
			in := ramp(n)
			inPlace := &invocationWire{Method: Centralized, Args: []*argWire{{
				Mode: InOut, Length: n, ClientCounts: []int{n},
				Blocks: [][]float64{in[:100], nil, in[100:]},
			}}}
			inPlace.Scalars = []byte{byte(cdr.BigEndian), 0, 0, 0, 0, 0, 0, 2}
			comm := obj.threadObjects()[0]
			g0 := comm.readWhole.Load()
			for _, body := range []func(*cdr.Encoder){legacyInvocation(2, InOut, n, in), inPlace.encode} {
				rh, d := rawInvoke(t, cli, obj.ref, body)
				if rh.Status != giop.ReplyOK {
					t.Fatalf("status %v", rh.Status)
				}
				enc, err := d.Encapsulation()
				if err != nil {
					t.Fatal(err)
				}
				if steps, err := enc.Long(); err != nil || steps != 2 {
					t.Fatalf("scalar reply %d (%v)", steps, err)
				}
				if _, err := d.ULong(); err != nil {
					t.Fatal(err)
				}
				out, err := d.DoubleSeq()
				if err != nil || len(out) != n {
					t.Fatalf("out argument: %d elements (%v)", len(out), err)
				}
				for i, v := range out {
					if v != float64(4*i) {
						t.Fatalf("out[%d] = %v, want %v", i, v, 4*i)
					}
				}
			}
			if g := comm.readWhole.Load() - g0; g != 0 {
				t.Fatalf("%d requests read whole; want both landed", g)
			}
		})
		t.Run(order.String()+" server", func(t *testing.T) {
			// scale: inout a (a *= 4), in b, out c (empty), out d (d = 3b).
			const m = 77
			spec := OpSpec{Args: []ArgSpec{{Mode: InOut}, {Mode: In}, {Mode: Out}, {Mode: Out}}}
			reg := newReg()
			var mu sync.Mutex
			calls := 0 // odd calls answer gathered, even ones in place
			ref := fakeObject(t, reg, "scale", spec, func(in *orb.Incoming) {
				w := new(invocationWire)
				err := w.decode(in.Order, in.Body, in.BodyBase)
				if err != nil || len(w.Args) != 4 {
					_ = in.ReplySystemException("MARSHAL", fmt.Sprint(err))
					return
				}
				a := make([]float64, w.Args[0].Length)
				d := make([]float64, w.Args[1].Length)
				(&requestLanding{w: w, blocks: [][][]float64{{a}, {d}, nil, nil}}).decode(in)
				for i := range a {
					a[i] *= 4
				}
				for i := range d {
					d[i] *= 3
				}
				mu.Lock()
				calls++
				legacy := calls%2 == 1
				mu.Unlock()
				if legacy {
					_ = in.Reply(giop.ReplyOK, legacyReply(2, a, nil, d))
					return
				}
				r := &replyWire{Scalars: []byte{0, 0, 0, 0, 0, 0, 2},
					Args: [][][]float64{{a[:7], nil, a[7:]}, {nil}, {d[:m-1], d[m-1:]}}}
				_ = in.Reply(giop.ReplyOK, r.encode)
			}, orb.WithServerByteOrder(order))
			everyRank(t, reg, 3, ref, func(b *Binding, th rts.Thread) error {
				seqs := make([]*dseq.Doubles, 4)
				for i, l := range []int{n, m, 0, m} {
					var err error
					if seqs[i], err = dseq.NewDoubles(l, dist.Block(), th.Size(), th.Rank()); err != nil {
						return err
					}
				}
				for k := 0; k < 2; k++ {
					for i := range seqs[0].LocalData() {
						seqs[0].LocalData()[i] = float64(seqs[0].Lo() + i)
					}
					for i := range seqs[1].LocalData() {
						seqs[1].LocalData()[i] = float64(seqs[1].Lo() + i)
					}
					seqs[3].FillIndexed(func(int) float64 { return -1 })
					var steps int32
					err := b.Invoke(context.Background(), &CallSpec{
						Operation: "scale",
						Args: []DistArg{{Mode: InOut, Seq: seqs[0]}, {Mode: In, Seq: seqs[1]},
							{Mode: Out, Seq: seqs[2]}, {Mode: Out, Seq: seqs[3]}},
						DecodeReply: func(d *cdr.Decoder) (err error) {
							steps, err = d.Long()
							return err
						},
					})
					if err != nil {
						return err
					}
					if steps != 2 {
						return fmt.Errorf("rank %d: scalar reply %d", th.Rank(), steps)
					}
					for _, c := range []struct {
						seq   *dseq.Doubles
						scale float64
					}{{seqs[0], 4}, {seqs[3], 3}} {
						for i, v := range c.seq.LocalData() {
							if want := c.scale * float64(c.seq.Lo()+i); v != want {
								return fmt.Errorf("rank %d, call %d: [%d] = %v, want %v", th.Rank(), k, c.seq.Lo()+i, v, want)
							}
						}
					}
				}
				return nil
			})
		})
	}
}

// TestCentralizedRequestWireUnchanged: marshaling from lent blocks must
// emit, on every attempt, exactly the bytes the gathered sequence
// marshaled to — empty blocks and both byte orders included — and so
// must the frames the gather writer puts on the wire, request and
// reply: header, encoded head, the spliced blocks and the encoded tail,
// seen by a metered connection as one writev, byte for byte what a
// copying encoder framed with WriteMessage emits, wherever in the
// stream the blocks start.
func TestCentralizedRequestWireUnchanged(t *testing.T) {
	full := ramp(11)
	blocks := [][]float64{full[:4], nil, full[4:]}
	w := &invocationWire{
		Method:  Centralized,
		Scalars: []byte{byte(cdr.BigEndian), 0, 0, 0, 0, 0, 0, 7},
		Args: []*argWire{{
			Mode: InOut, Length: 11, ClientCounts: []int{4, 0, 7},
			Blocks: blocks,
		}},
	}
	reply := &replyWire{
		Scalars: []byte{0, 0, 0, 0, 0, 0, 7},
		Args:    [][][]float64{blocks, {nil, {}, full[:1]}, {full[9:], full[:9]}},
	}
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		want := cdr.NewEncoderAt(order, 5)
		want.PutOctet(byte(Centralized))
		want.PutOctetSeq(w.Scalars)
		want.PutULong(1)
		want.PutOctet(byte(InOut))
		want.PutULong(11)
		want.PutULongSeq([]uint32{4, 0, 7})
		want.PutStringSeq(nil)
		want.PutBoolean(true)
		want.PutDoubleSeq(full)
		for attempt := 1; attempt <= 2; attempt++ {
			got := cdr.NewEncoderAt(order, 5)
			w.encode(got)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%v, attempt %d: request body differs from the gathered encoding", order, attempt)
			}
		}

		// The frames as sent: every object key length from 0 to 7 moves
		// the invocation body to another stream offset mod 8.
		for pad := 0; pad < 8; pad++ {
			hdr := giop.RequestHeader{RequestID: 3, InvocationID: 9, ResponseExpected: true,
				ObjectKey: strings.Repeat("k", pad), Operation: "diffusion", ThreadCount: 2}
			rh := giop.ReplyHeader{RequestID: uint32(pad), Status: giop.ReplyOK}
			for name, msg := range map[string]struct {
				t      giop.MsgType
				encode func(*cdr.Encoder)
			}{
				"request": {giop.MsgRequest, func(e *cdr.Encoder) { hdr.Encode(e); w.encode(e) }},
				"reply":   {giop.MsgReply, func(e *cdr.Encoder) { rh.Encode(e); reply.encode(e) }},
			} {
				copying := cdr.NewEncoder(order)
				msg.encode(copying)
				var wantFrame bytes.Buffer
				if err := giop.WriteMessage(&wantFrame, order, msg.t, copying.Bytes()); err != nil {
					t.Fatal(err)
				}
				for attempt := 1; attempt <= 2; attempt++ {
					pe := giop.AcquireEncoder(order)
					msg.encode(pe.Encoder)
					spliced := len(pe.Splices())
					var conn wireRecorder
					err := giop.WriteEncoded(&conn, msg.t, pe.Encoder)
					pe.Release()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(conn.Bytes(), wantFrame.Bytes()) {
						t.Fatalf("%v %s, key %d, attempt %d: gathered frame differs from the copying encoder's\n got % x\nwant % x",
							order, name, pad, attempt, conn.Bytes(), wantFrame.Bytes())
					}
					if conn.writes != 1 {
						t.Fatalf("%v %s: %d writes for one frame", order, name, conn.writes)
					}
					if (order == cdr.NativeOrder) != (spliced > 0) {
						t.Fatalf("%v %s: %d blocks spliced (host order %v)", order, name, spliced, cdr.NativeOrder)
					}
				}
			}
		}
	}
}

// pairInvocation marshals a centralized invocation of an operation with
// two arguments of the given length, inout first and in second, each
// with its inline data.
func pairInvocation(length int, first, second []float64) func(*cdr.Encoder) {
	w := &invocationWire{Method: Centralized, Scalars: []byte{byte(cdr.BigEndian), 0, 0, 0, 0, 0, 0, 1},
		Args: []*argWire{
			{Mode: InOut, Length: length, ClientCounts: []int{length}, Blocks: [][]float64{first}},
			{Mode: In, Length: length, ClientCounts: []int{length}, Blocks: [][]float64{second}},
		}}
	return w.encode
}

// withPair adds to ops the operation pairInvocation calls, "pair"
// (inout a, in b; a += b).
func withPair(ops map[string]*Op) map[string]*Op {
	ops["pair"] = &Op{
		Spec: OpSpec{Args: []ArgSpec{{Mode: InOut}, {Mode: In}}},
		Handler: func(call *Call) error {
			a, b := call.Args[0].LocalData(), call.Args[1].LocalData()
			for i := range a {
				a[i] += b[i]
			}
			return nil
		},
	}
	return ops
}

// TestShedRequestsReleasedOnce: the communicator answers a large
// request before the collective is engaged — MARSHAL for an undecodable
// invocation, BAD_PARAM for inline data of the wrong length, TIMEOUT for
// a queued request whose deadline passed — or dispatches it, and the
// connection carries on, whether the request was read whole (its prefix
// does not parse) or parked to land (a refused one's body skimmed off
// the connection). Requests with one inline argument or two take the
// same path.
func TestShedRequestsReleasedOnce(t *testing.T) {
	hang, hanging := make(chan struct{}), make(chan struct{}, 3)
	ops := func(th rts.Thread) map[string]*Op {
		ops := withPair(diffusionOps(th))
		ops["hang"] = &Op{Spec: ops["diffusion"].Spec, Handler: func(*Call) error {
			hanging <- struct{}{}
			<-hang
			return nil
		}}
		return ops
	}
	reg := newReg()
	obj := startObject(t, reg, 3, false, ops)
	defer obj.close()
	cli := orb.NewClient(reg)
	defer cli.Close()
	const n = giop.DefaultReadBufSize / 8 * 2
	comm := obj.threadObjects()[0]
	invoke := func(ctx context.Context, op string, body func(*cdr.Encoder)) (giop.ReplyHeader, cdr.ByteOrder, []byte, error) {
		return cli.Invoke(ctx, obj.ref.Endpoints[0], giop.RequestHeader{
			InvocationID: cli.NewInvocationID(), ResponseExpected: true,
			ObjectKey: obj.ref.Key, Operation: op, ThreadCount: 1,
		}, body)
	}
	wantException := func(what, code string, rh giop.ReplyHeader, order cdr.ByteOrder, raw []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		ex, derr := giop.DecodeSystemException(cdr.NewDecoderAt(order, raw, 8))
		if rh.Status != giop.ReplySystemException || derr != nil || ex.Code != code {
			t.Fatalf("%s: status %v, exception %+v (%v), want %s", what, rh.Status, ex, derr, code)
		}
	}
	wantOK := func(what string, rh giop.ReplyHeader, err error) {
		t.Helper()
		if err != nil || rh.Status != giop.ReplyOK {
			t.Fatalf("%s: %v %v", what, rh.Status, err)
		}
	}

	g0 := comm.readWhole.Load()
	rh, order, raw, err := invoke(context.Background(), "diffusion", func(e *cdr.Encoder) {
		e.PutOctet(byte(Centralized))
		e.PutOctetSeq(make([]byte, 2*giop.DefaultReadBufSize))
		e.PutULong(1 << 30) // more arguments than bytes left
	})
	wantException("undecodable invocation", "MARSHAL", rh, order, raw, err)
	rh, order, raw, err = invoke(context.Background(), "pair", pairInvocation(300, ramp(n), ramp(300)))
	wantException("inline data of the wrong length", "BAD_PARAM", rh, order, raw, err)

	// Park the collective in a hung dispatch, queue a request behind it
	// that gives up first, then let the dispatch finish: the communicator
	// pops an expired request and sheds it.
	hung := make(chan error, 1)
	go func() {
		_, _, _, err := invoke(context.Background(), "hang", legacyInvocation(1, InOut, 8, ramp(8)))
		hung <- err
	}()
	<-hanging
	shed0 := shedExpiredSPMD.Value()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, _, _, err = invoke(ctx, "pair", pairInvocation(n, ramp(n), ramp(n)))
	cancel()
	if !errors.Is(err, orb.ErrCanceled) {
		t.Fatalf("queued invocation: %v, want it to give up", err)
	}
	// The server rebased the deadline on arrival, a hair after the
	// client stamped it; give its clock that hair before unparking.
	time.Sleep(20 * time.Millisecond)
	close(hang)
	if err := <-hung; err != nil {
		t.Fatal(err)
	}
	for shedExpiredSPMD.Value() == shed0 { // popped and shed
		time.Sleep(time.Millisecond)
	}
	rh, _, _, err = invoke(context.Background(), "pair", pairInvocation(n, ramp(n), ramp(n)))
	wantOK("dispatched invocation", rh, err)

	// The same refusal and dispatch for one-argument requests.
	rh, order, raw, err = invoke(context.Background(), "diffusion", legacyInvocation(1, InOut, 300, ramp(n)))
	wantException("landing inline data of the wrong length", "BAD_PARAM", rh, order, raw, err)
	rh, _, _, err = invoke(context.Background(), "diffusion", legacyInvocation(1, InOut, n, ramp(n)))
	wantOK("landed invocation", rh, err)

	// One request read whole, the undecodable one; every other landed.
	if g := comm.readWhole.Load() - g0; g != 1 {
		t.Fatalf("%d requests read whole; want 1", g)
	}
}

// TestFaultCentralizedRetryReencodes cuts the communicator's connection
// in the middle of the request body, tearing the frame: the retry must
// marshal the whole request again from the lent blocks — on a fresh
// connection the server sees nothing of the first attempt — and the
// invocation must complete with the right result on every thread.
func TestFaultCentralizedRetryReencodes(t *testing.T) {
	inproc := transport.NewInproc()
	okReg := transport.NewRegistry()
	okReg.Register(inproc)
	// Every dial is doomed 8 KiB in: past the describe exchange, inside
	// the 32 KiB request body.
	cut := transport.NewFaulty(inproc, transport.FaultPlan{Seed: 3, Cut: 1, CutAfter: 8 << 10, Truncate: 1})
	cutReg := transport.NewRegistry()
	cutReg.Register(cutDialTransport{listen: inproc, dial: cut})

	obj := startObject(t, okReg, 4, false, diffusionOps)
	defer obj.close()
	err := mp.Run(2, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		b, err := Bind(context.Background(), BindConfig{Thread: th, Registry: cutReg, Method: Centralized}, obj.ref)
		if err != nil {
			return err
		}
		defer b.Close()
		// Bound: the doomed connection is open. Whatever is dialed from
		// now on — the retry — is healthy.
		if th.Rank() == 0 {
			cut.SetPlan(transport.FaultPlan{})
		}
		if err := th.Barrier(); err != nil {
			return err
		}
		return invokeDiffusion(b, th, 4096, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := cut.Stats(); st.CutConns != 1 || st.Dials != 2 {
		t.Fatalf("want one cut connection and one redial, got %+v", st)
	}
}

// TestFaultCentralizedReplyCutMidLanding cuts the object's connection
// half-way through the elements of its reply, while the client
// communicator lands them in the lent blocks: the invocation must fail
// on every thread, and must not be retried — the inout blocks hold part
// of the out-data now, which a retry would send as in-data — so the
// object sees the one request.
func TestFaultCentralizedReplyCutMidLanding(t *testing.T) {
	const n = 1 << 16 // a 512 KiB reply
	inproc := transport.NewInproc()
	h := &handoff{}
	cut := transport.NewFaulty(h, transport.FaultPlan{Seed: 5, Cut: 1, CutAfter: 256 << 10, Truncate: 1})
	reg := transport.NewRegistry()
	reg.Register(&cutAcceptTransport{Inproc: inproc, h: h, cut: cut})
	var requests atomic.Int32
	obj := startObject(t, reg, 2, false, func(th rts.Thread) map[string]*Op {
		ops := diffusionOps(th)
		serve := ops["diffusion"].Handler
		ops["diffusion"].Handler = func(call *Call) error {
			if th.Rank() == 0 {
				requests.Add(1)
			}
			return serve(call)
		}
		return ops
	})
	defer obj.close()
	everyRank(t, reg, 2, obj.ref, func(b *Binding, th rts.Thread) error {
		err := invokeDiffusion(b, th, n, 1)
		if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), orb.ErrLandingTorn.Error()) {
			return fmt.Errorf("rank %d: invocation cut mid-landing: %v", th.Rank(), err)
		}
		return nil
	})
	if st := cut.Stats(); st.CutConns != 1 {
		t.Fatalf("want the reply's connection cut, got %+v", st)
	}
	if got := requests.Load(); got != 1 {
		t.Fatalf("object served %d requests, want 1: a torn landing was retried", got)
	}
}

// cutAcceptTransport serves "inproc" endpoints whose accepted
// connections pass through a fault-injecting wrapper, so what it cuts
// are the server's own writes — its replies.
type cutAcceptTransport struct {
	*transport.Inproc
	h   *handoff
	cut *transport.Faulty // over h
}

func (c *cutAcceptTransport) Listen(a string) (transport.Listener, error) {
	l, err := c.Inproc.Listen(a)
	if err != nil {
		return nil, err
	}
	return cutAcceptListener{Listener: l, t: c}, nil
}

type cutAcceptListener struct {
	transport.Listener
	t *cutAcceptTransport
}

func (l cutAcceptListener) Accept() (transport.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.h.through(conn, l.t.cut)
}

// handoff is the transport under a Faulty that wraps accepted
// connections: its Dial returns the connection being handed through.
type handoff struct {
	mu   sync.Mutex
	conn transport.Conn
}

func (h *handoff) through(conn transport.Conn, f *transport.Faulty) (transport.Conn, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.conn = conn
	return f.Dial("")
}

func (h *handoff) Scheme() string { return "inproc" }
func (h *handoff) Listen(string) (transport.Listener, error) {
	return nil, errors.New("handoff: no listener")
}
func (h *handoff) Dial(string) (transport.Conn, error) { return h.conn, nil }

// TestCentralizedCancelMidInvoke gives up on invocations at every stage
// of the request — while it is being marshaled, written, or served, and
// while its reply is landing in the lent blocks — and rewrites the
// argument the moment Invoke returns. The blocks are lent to the
// communicator's invoke goroutine and the reply lands in them on the
// connection's read goroutine, so under -race this fails unless Wait
// joined the one and the landing on the other had stopped before the
// blocks were handed back.
func TestCentralizedCancelMidInvoke(t *testing.T) {
	t.Run("landing", func(t *testing.T) {
		// The client's read loop copies the reply's elements into a block
		// slowly, so the invocation is given up in the middle of landing.
		st := &slowReadTransport{Inproc: transport.NewInproc(), slowed: make(chan struct{})}
		reg := transport.NewRegistry()
		reg.Register(st)
		obj := startObject(t, reg, 2, false, diffusionOps)
		defer obj.close()
		everyRank(t, reg, 2, obj.ref, func(b *Binding, th rts.Thread) error {
			seq, err := dseq.NewDoubles(1<<18, dist.Block(), th.Size(), th.Rank())
			if err != nil {
				return err
			}
			if th.Rank() == 0 {
				st.armed.Store(true)
			}
			if err := th.Barrier(); err != nil {
				return err
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				<-st.slowed
				cancel()
			}()
			err = b.Invoke(ctx, &CallSpec{Operation: "diffusion",
				Scalars: func(e *cdr.Encoder) { e.PutLong(1) },
				Args:    []DistArg{{Mode: InOut, Seq: seq}}})
			cancel()
			if err == nil {
				return fmt.Errorf("rank %d: invocation abandoned mid-landing succeeded", th.Rank())
			}
			seq.FillIndexed(func(int) float64 { return -1 })
			return nil
		})
	})

	hang := make(chan struct{})
	ops := func(th rts.Thread) map[string]*Op {
		ops := diffusionOps(th)
		ops["hang"] = &Op{
			Spec:    ops["diffusion"].Spec,
			Handler: func(*Call) error { <-hang; return nil },
		}
		return ops
	}
	reg := newReg()
	obj := startObject(t, reg, 2, false, ops)
	defer obj.close()
	defer close(hang)
	everyRank(t, reg, 2, obj.ref, func(b *Binding, th rts.Thread) error {
		seq, err := dseq.NewDoubles(1<<18, dist.Block(), th.Size(), th.Rank())
		if err != nil {
			return err
		}
		for _, patience := range []time.Duration{0, 50 * time.Microsecond, time.Millisecond, 20 * time.Millisecond} {
			ctx, cancel := context.WithTimeout(context.Background(), patience)
			err := b.Invoke(ctx, &CallSpec{Operation: "hang", Args: []DistArg{{Mode: InOut, Seq: seq}}})
			cancel()
			if err == nil {
				return fmt.Errorf("rank %d: hung invocation succeeded", th.Rank())
			}
			seq.FillIndexed(func(int) float64 { return float64(patience) })
		}
		// The serve loop is parked in the hung handlers for good; the
		// binding itself must be intact, which the next start phase's
		// collectives prove.
		p, err := b.InvokeAsync(context.Background(), &CallSpec{Operation: "hang", Args: []DistArg{{Mode: InOut, Seq: seq}}})
		if err != nil {
			return err
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := p.Wait(ctx); err == nil {
			return fmt.Errorf("rank %d: cancelled wait succeeded", th.Rank())
		}
		seq.FillIndexed(func(int) float64 { return -1 })
		return nil
	})
}

// slowReadTransport serves "inproc" endpoints whose dialed connections,
// once armed, make the first Read larger than the FrameReader's buffer —
// a reply landing straight into a block — copy what it received into
// the caller's buffer 64 KiB at a time, a millisecond apart, closing
// slowed after the first piece. The
// copy runs to its end even if the connection is closed meanwhile, as
// a kernel copy already under way would.
type slowReadTransport struct {
	*transport.Inproc
	armed  atomic.Bool
	slowed chan struct{}
}

func (s *slowReadTransport) Dial(a string) (transport.Conn, error) {
	conn, err := s.Inproc.Dial(a)
	if err != nil {
		return nil, err
	}
	return slowReadConn{Conn: conn, s: s}, nil
}

type slowReadConn struct {
	transport.Conn
	s *slowReadTransport
}

func (c slowReadConn) Read(p []byte) (int, error) {
	if len(p) <= giop.DefaultReadBufSize || !c.s.armed.CompareAndSwap(true, false) {
		return c.Conn.Read(p)
	}
	tmp := make([]byte, len(p))
	n, err := c.Conn.Read(tmp)
	for off := 0; off < n; off += 64 << 10 {
		copy(p[off:n], tmp[off:min(off+64<<10, n)])
		if off == 0 {
			close(c.s.slowed)
		}
		time.Sleep(time.Millisecond)
	}
	return n, err
}
