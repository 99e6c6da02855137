package spmd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
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
// object exporting diffusionOps: it answers describe itself and hands
// every invocation to serve.
func fakeObject(t *testing.T, reg *transport.Registry, serve orb.Handler, opts ...orb.ServerOption) *ior.Ref {
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
			spec := diffusionOps(nil)["diffusion"].Spec
			w := describeWire{Threads: 1, Ops: map[string]*OpSpec{"diffusion": &spec}}
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
// or carries it short, is seen by the communicator alone; every client
// thread must fail the invocation alike (none stranded in the scatter)
// and the binding must carry the next invocation.
func TestFaultCentralizedShortReply(t *testing.T) {
	reg := newReg()
	var mu sync.Mutex
	calls := 0
	ref := fakeObject(t, reg, func(in *orb.Incoming) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		switch n {
		case 1:
			_ = in.Reply(giop.ReplyOK, legacyReply(1))
		case 2:
			_ = in.Reply(giop.ReplyOK, legacyReply(1, ramp(250)))
		default:
			_ = in.Reply(giop.ReplyOK, legacyReply(1, ramp(300)))
		}
	})
	everyRank(t, reg, 3, ref, func(b *Binding, th rts.Thread) error {
		seq, err := dseq.NewDoubles(300, dist.Block(), th.Size(), th.Rank())
		if err != nil {
			return err
		}
		spec := &CallSpec{
			Operation: "diffusion",
			Scalars:   func(e *cdr.Encoder) { e.PutLong(1) },
			Args:      []DistArg{{Mode: InOut, Seq: seq}},
		}
		for _, what := range []string{"missing", "short"} {
			err := b.Invoke(context.Background(), spec)
			if !errors.Is(err, ErrRemote) {
				return fmt.Errorf("rank %d: reply with %s out argument: %v", th.Rank(), what, err)
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
}

// TestCentralizedCrossEndian runs the centralized round trip with the
// raw peer pinned to each byte order in turn, so that on any host one of
// the two crosses a byte-order boundary: a foreign-order client into a
// real object, whose communicator must unmarshal the frame straight
// into its threads' blocks, and a real binding against a foreign-order
// server, whose reply the client communicator must unmarshal into its
// threads' blocks.
func TestCentralizedCrossEndian(t *testing.T) {
	const n = 301
	for _, order := range []cdr.ByteOrder{cdr.LittleEndian, cdr.BigEndian} {
		t.Run(order.String()+" client", func(t *testing.T) {
			reg := newReg()
			obj := startObject(t, reg, 3, false, diffusionOps)
			defer obj.close()
			cli := orb.NewClient(reg, orb.WithByteOrder(order))
			defer cli.Close()
			rh, d := rawInvoke(t, cli, obj.ref, legacyInvocation(2, InOut, n, ramp(n)))
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
		})
		t.Run(order.String()+" server", func(t *testing.T) {
			reg := newReg()
			ref := fakeObject(t, reg, func(in *orb.Incoming) {
				w, err := decodeInvocationWire(in.Decoder())
				if err != nil || len(w.Args) != 1 {
					_ = in.ReplySystemException("MARSHAL", fmt.Sprint(err))
					return
				}
				out := make([]float64, w.Args[0].Length)
				cdr.DecodeDoubles(out, w.Args[0].Raw, in.Order)
				for i := range out {
					out[i] *= 4
				}
				_ = in.Reply(giop.ReplyOK, legacyReply(2, out))
			}, orb.WithServerByteOrder(order))
			everyRank(t, reg, 3, ref, func(b *Binding, th rts.Thread) error {
				return invokeDiffusion(b, th, n, 2)
			})
		})
	}
}

// TestCentralizedRequestWireUnchanged: marshaling from lent blocks must
// emit, on every attempt, exactly the bytes the gathered sequence
// marshaled to — empty blocks and both byte orders included.
func TestCentralizedRequestWireUnchanged(t *testing.T) {
	full := ramp(11)
	w := &invocationWire{
		Method:  Centralized,
		Scalars: []byte{byte(cdr.BigEndian), 0, 0, 0, 0, 0, 0, 7},
		Args: []*argWire{{
			Mode: InOut, Length: 11, ClientCounts: []int{4, 0, 7},
			Blocks: [][]float64{full[:4], nil, full[4:]},
		}},
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

// TestCentralizedCancelMidInvoke gives up on invocations at every stage
// of the request — while it is being marshaled, written, or served —
// and rewrites the argument the moment Invoke returns. The blocks are
// lent to the communicator's invoke goroutine, so under -race this
// fails unless Wait joined that goroutine before handing them back.
func TestCentralizedCancelMidInvoke(t *testing.T) {
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
			seq.Fill(float64(patience))
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
		seq.Fill(-1)
		return nil
	})
}
