package spmd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/ior"
	"pardis/internal/mp"
	"pardis/internal/orb"
	"pardis/internal/rts"
	"pardis/internal/transport"
)

// testObject describes a server fixture: an SPMD object with m
// computing threads exporting the given operations.
type testObject struct {
	ref    *ior.Ref
	close  func()
	donech chan error

	mu   sync.Mutex
	objs []*Object
}

// threadObjects returns the per-thread Object handles (for stats
// assertions after the serve loops exit).
func (o *testObject) threadObjects() []*Object {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*Object(nil), o.objs...)
}

// noLeak is the "no leak" assertion for one block router once its
// invocations have completed: no registered window or sink and no
// parked early put. (A multi-port invocation registers windows, so a
// check of Sinks alone cannot fail.)
func noLeak(st orb.BlockRouterStats) error {
	if st.Pending != 0 {
		return fmt.Errorf("block router not empty: %+v", st)
	}
	return noWindows(st)
}

// noWindows is the assertion that still holds after an invocation was
// cut short: every registration is gone. Puts that were in flight when
// it unwound may stay parked until the ORB's pending-TTL sweep reclaims
// them, so Pending is not an invariant there.
func noWindows(st orb.BlockRouterStats) error {
	if st.Windows != 0 || st.Sinks != 0 {
		return fmt.Errorf("block router holds registrations: %+v", st)
	}
	return nil
}

// noLeak applies check (noLeak or noWindows) to every exported server
// thread.
func (o *testObject) noLeak(check func(orb.BlockRouterStats) error) error {
	for rank, obj := range o.threadObjects() {
		if obj == nil {
			continue
		}
		if err := check(obj.BlockStats()); err != nil {
			return fmt.Errorf("server thread %d: %w", rank, err)
		}
	}
	return nil
}

// startObject launches an m-thread SPMD object serving ops until the
// returned close function runs. Each server thread loops Serve.
func startObject(t *testing.T, reg *transport.Registry, m int, multiPort bool,
	ops func(th rts.Thread) map[string]*Op) *testObject {
	t.Helper()
	return startObjectCfg(t, reg, m, multiPort, ops, nil)
}

// startObjectCfg is startObject with a per-thread config hook (e.g.
// data-plane knobs).
func startObjectCfg(t *testing.T, reg *transport.Registry, m int, multiPort bool,
	ops func(th rts.Thread) map[string]*Op, mutate func(*ObjectConfig)) *testObject {
	t.Helper()
	w := mp.MustWorld(m)
	refs := make(chan *ior.Ref, 1)
	to := &testObject{donech: make(chan error, m), objs: make([]*Object, m)}
	for r := 0; r < m; r++ {
		go func(rank int) {
			th := rts.NewMessagePassing(w.Rank(rank))
			cfg := ObjectConfig{
				Thread:         th,
				Registry:       reg,
				ListenEndpoint: "inproc:*",
				Key:            "objects/test",
				TypeID:         "IDL:test_object:1.0",
				MultiPort:      multiPort,
				Ops:            ops(th),
			}
			if mutate != nil {
				mutate(&cfg)
			}
			obj, err := Export(cfg)
			if err != nil {
				to.donech <- err
				return
			}
			to.mu.Lock()
			to.objs[rank] = obj
			to.mu.Unlock()
			if rank == 0 {
				refs <- obj.Ref()
			}
			to.donech <- obj.Serve(context.Background())
		}(r)
	}
	to.ref = <-refs
	to.close = func() {
		to.mu.Lock()
		for _, o := range to.objs {
			if o != nil {
				o.Close()
			}
		}
		to.mu.Unlock()
		w.Close()
	}
	return to
}

// diffusionOps returns the paper's diffusion interface: one in scalar
// (timesteps) and one inout distributed array. The "diffusion" here
// multiplies each element by 2^timesteps so correctness is easy to
// verify from any distribution.
func diffusionOps(th rts.Thread) map[string]*Op {
	return map[string]*Op{
		"diffusion": {
			Spec: OpSpec{Args: []ArgSpec{{Mode: InOut, Dist: dist.Block()}}},
			Handler: func(call *Call) error {
				steps, err := call.Scalars.Long()
				if err != nil {
					return err
				}
				local := call.Args[0].LocalData()
				for s := int32(0); s < steps; s++ {
					for i := range local {
						local[i] *= 2
					}
				}
				call.Reply().PutLong(steps)
				return nil
			},
		},
	}
}

// runClient drives fn on an n-thread SPMD client bound to ref.
func runClient(t *testing.T, reg *transport.Registry, n int, method TransferMethod,
	ref *ior.Ref, fn func(b *Binding, th rts.Thread) error) {
	t.Helper()
	err := mp.Run(n, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		b, err := Bind(context.Background(), BindConfig{
			Thread:         th,
			Registry:       reg,
			Method:         method,
			ListenEndpoint: "inproc:*",
		}, ref)
		if err != nil {
			return err
		}
		defer b.Close()
		return fn(b, th)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func newReg() *transport.Registry {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	reg.Register(transport.TCP{})
	return reg
}

// invokeDiffusion performs the paper's example invocation and checks
// the result on every client thread.
func invokeDiffusion(b *Binding, th rts.Thread, length int, steps int32) error {
	seq, err := dseq.NewDoubles(length, dist.Block(), th.Size(), th.Rank())
	if err != nil {
		return err
	}
	for i := range seq.LocalData() {
		seq.LocalData()[i] = float64(seq.Lo() + i)
	}
	var echoed int32
	err = b.Invoke(context.Background(), &CallSpec{
		Operation: "diffusion",
		Scalars:   func(e *cdr.Encoder) { e.PutLong(steps) },
		Args:      []DistArg{{Mode: InOut, Seq: seq}},
		DecodeReply: func(d *cdr.Decoder) error {
			v, err := d.Long()
			echoed = v
			return err
		},
	})
	if err != nil {
		return err
	}
	if echoed != steps {
		return fmt.Errorf("scalar reply = %d, want %d", echoed, steps)
	}
	scale := 1.0
	for s := int32(0); s < steps; s++ {
		scale *= 2
	}
	for i, v := range seq.LocalData() {
		want := float64(seq.Lo()+i) * scale
		if v != want {
			return fmt.Errorf("thread %d: [%d] = %v, want %v", th.Rank(), i, v, want)
		}
	}
	return nil
}

func TestDiffusionCentralized(t *testing.T) {
	for _, cfg := range []struct{ n, m int }{{1, 1}, {1, 4}, {2, 2}, {4, 2}, {3, 5}} {
		t.Run(fmt.Sprintf("n%d_m%d", cfg.n, cfg.m), func(t *testing.T) {
			reg := newReg()
			obj := startObject(t, reg, cfg.m, false, diffusionOps)
			defer obj.close()
			runClient(t, reg, cfg.n, Centralized, obj.ref, func(b *Binding, th rts.Thread) error {
				return invokeDiffusion(b, th, 1000, 3)
			})
		})
	}
}

func TestDiffusionMultiPort(t *testing.T) {
	for _, cfg := range []struct{ n, m int }{{1, 1}, {1, 4}, {2, 2}, {4, 2}, {3, 5}, {4, 8}} {
		t.Run(fmt.Sprintf("n%d_m%d", cfg.n, cfg.m), func(t *testing.T) {
			reg := newReg()
			obj := startObject(t, reg, cfg.m, true, diffusionOps)
			defer obj.close()
			runClient(t, reg, cfg.n, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
				return invokeDiffusion(b, th, 1000, 3)
			})
		})
	}
}

func TestBothMethodsAgreeBitForBit(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 4, true, diffusionOps)
	defer obj.close()
	results := make(map[TransferMethod][]float64)
	var mu sync.Mutex
	for _, method := range []TransferMethod{Centralized, MultiPort} {
		runClient(t, reg, 3, method, obj.ref, func(b *Binding, th rts.Thread) error {
			seq, err := dseq.NewDoubles(257, dist.Block(), th.Size(), th.Rank())
			if err != nil {
				return err
			}
			for i := range seq.LocalData() {
				seq.LocalData()[i] = float64(seq.Lo()+i) * 0.5
			}
			if err := b.Invoke(context.Background(), &CallSpec{
				Operation: "diffusion",
				Scalars:   func(e *cdr.Encoder) { e.PutLong(2) },
				Args:      []DistArg{{Mode: InOut, Seq: seq}},
			}); err != nil {
				return err
			}
			full, err := dseq.GatherDoubles(seq, th, 0)
			if err != nil {
				return err
			}
			if th.Rank() == 0 {
				mu.Lock()
				results[method] = full
				mu.Unlock()
			}
			return nil
		})
	}
	c, m := results[Centralized], results[MultiPort]
	if len(c) != 257 || len(m) != 257 {
		t.Fatalf("lengths %d %d", len(c), len(m))
	}
	for i := range c {
		if c[i] != m[i] {
			t.Fatalf("methods disagree at %d: %v vs %v", i, c[i], m[i])
		}
	}
}

func TestServerSideProportions(t *testing.T) {
	// §2.2: server fixes Distribution(Proportions(2,4,2,4)) before
	// registering; the client still sees a plain BLOCK sequence.
	prop, _ := dist.Proportions(2, 4, 2, 4)
	ops := func(th rts.Thread) map[string]*Op {
		return map[string]*Op{
			"scale": {
				Spec: OpSpec{Args: []ArgSpec{{Mode: InOut, Dist: prop}}},
				Handler: func(call *Call) error {
					// Verify this thread's share matches the
					// proportions layout.
					want := prop.MustApply(call.Args[0].Len(), call.Thread.Size()).Count(call.Thread.Rank())
					if call.Args[0].LocalLen() != want {
						return fmt.Errorf("thread %d got %d elements, want %d",
							call.Thread.Rank(), call.Args[0].LocalLen(), want)
					}
					for i := range call.Args[0].LocalData() {
						call.Args[0].LocalData()[i] += 100
					}
					return nil
				},
			},
		}
	}
	for _, method := range []TransferMethod{Centralized, MultiPort} {
		t.Run(method.String(), func(t *testing.T) {
			reg := newReg()
			obj := startObject(t, reg, 4, true, ops)
			defer obj.close()
			runClient(t, reg, 2, method, obj.ref, func(b *Binding, th rts.Thread) error {
				seq, err := dseq.NewDoubles(120, dist.Block(), th.Size(), th.Rank())
				if err != nil {
					return err
				}
				for i := range seq.LocalData() {
					seq.LocalData()[i] = float64(seq.Lo() + i)
				}
				if err := b.Invoke(context.Background(), &CallSpec{
					Operation: "scale",
					Args:      []DistArg{{Mode: InOut, Seq: seq}},
				}); err != nil {
					return err
				}
				for i, v := range seq.LocalData() {
					if v != float64(seq.Lo()+i)+100 {
						return fmt.Errorf("[%d] = %v", i, v)
					}
				}
				return nil
			})
		})
	}
}

func TestInOnlyAndOutOnlyArgs(t *testing.T) {
	ops := func(th rts.Thread) map[string]*Op {
		return map[string]*Op{
			"copy": {
				Spec: OpSpec{Args: []ArgSpec{
					{Mode: In, Dist: dist.Block()},
					{Mode: Out, Dist: dist.Block()},
				}},
				Handler: func(call *Call) error {
					src, dst := call.Args[0], call.Args[1]
					if src.Len() != dst.Len() {
						return errors.New("length mismatch")
					}
					// Same layout on both: direct local copy works.
					copy(dst.LocalData(), src.LocalData())
					for i := range dst.LocalData() {
						dst.LocalData()[i] *= -1
					}
					return nil
				},
			},
		}
	}
	for _, method := range []TransferMethod{Centralized, MultiPort} {
		t.Run(method.String(), func(t *testing.T) {
			reg := newReg()
			obj := startObject(t, reg, 3, true, ops)
			defer obj.close()
			runClient(t, reg, 2, method, obj.ref, func(b *Binding, th rts.Thread) error {
				in, _ := dseq.NewDoubles(77, dist.Block(), th.Size(), th.Rank())
				out, _ := dseq.NewDoubles(77, dist.Block(), th.Size(), th.Rank())
				for i := range in.LocalData() {
					in.LocalData()[i] = float64(in.Lo() + i)
				}
				if err := b.Invoke(context.Background(), &CallSpec{
					Operation: "copy",
					Args: []DistArg{
						{Mode: In, Seq: in},
						{Mode: Out, Seq: out},
					},
				}); err != nil {
					return err
				}
				for i, v := range out.LocalData() {
					if v != -float64(out.Lo()+i) {
						return fmt.Errorf("out[%d] = %v", i, v)
					}
				}
				return nil
			})
		})
	}
}

// TestArgumentBlocksReusedAcrossInvocations drives one binding through
// lengths L, L/2 and 2L — the object hands every dispatch the storage of
// the one before — with a failed dispatch in between, and checks the
// Call.Args contract from inside the handler: an out block arrives all
// zero however much the previous invocation wrote there, and no block
// lets the handler reslice into a longer predecessor's tail.
func TestArgumentBlocksReusedAcrossInvocations(t *testing.T) {
	ops := func(th rts.Thread) map[string]*Op {
		return map[string]*Op{
			"mix": {
				Spec: OpSpec{Args: []ArgSpec{
					{Mode: In, Dist: dist.Block()},
					{Mode: InOut, Dist: dist.Block()},
					{Mode: Out, Dist: dist.Block()},
				}},
				Handler: func(call *Call) error {
					fail, err := call.Scalars.Boolean()
					if err != nil {
						return err
					}
					for i, a := range call.Args {
						blk := a.LocalData()
						if want := a.Layout().Count(call.Thread.Rank()); len(blk) != want || cap(blk) != want {
							return fmt.Errorf("arg %d: block len %d cap %d, layout says %d", i, len(blk), cap(blk), want)
						}
					}
					in, inout, out := call.Args[0].LocalData(), call.Args[1].LocalData(), call.Args[2].LocalData()
					for i, v := range out {
						if v != 0 {
							return fmt.Errorf("out[%d] = %v on entry", i, v)
						}
					}
					for i := range in {
						inout[i] += in[i]
						out[i] = 3*in[i] + 1
					}
					if fail {
						return errors.New("asked to fail")
					}
					return nil
				},
			},
		}
	}
	const L = 1200
	for _, method := range []TransferMethod{Centralized, MultiPort} {
		t.Run(method.String(), func(t *testing.T) {
			reg := newReg()
			obj := startObject(t, reg, 3, true, ops)
			defer obj.close()
			runClient(t, reg, 2, method, obj.ref, func(b *Binding, th rts.Thread) error {
				for round, c := range []struct {
					length int
					fail   bool
				}{{L, false}, {L / 2, false}, {L, true}, {2 * L, false}} {
					var seqs [3]*dseq.Doubles
					for i := range seqs {
						seq, err := dseq.NewDoubles(c.length, dist.Block(), th.Size(), th.Rank())
						if err != nil {
							return err
						}
						seqs[i] = seq
					}
					for i := range seqs[0].LocalData() {
						g := float64(seqs[0].Lo() + i)
						seqs[0].LocalData()[i] = g / 7
						seqs[1].LocalData()[i] = g
					}
					err := b.Invoke(context.Background(), &CallSpec{
						Operation: "mix",
						Scalars:   func(e *cdr.Encoder) { e.PutBoolean(c.fail) },
						Args: []DistArg{
							{Mode: In, Seq: seqs[0]}, {Mode: InOut, Seq: seqs[1]}, {Mode: Out, Seq: seqs[2]},
						},
					})
					if c.fail {
						if !errors.Is(err, ErrRemote) {
							return fmt.Errorf("round %d: want ErrRemote, got %v", round, err)
						}
						continue
					}
					if err != nil {
						return fmt.Errorf("round %d: %w", round, err)
					}
					for i := range seqs[0].LocalData() {
						g := float64(seqs[0].Lo() + i)
						if got, want := seqs[1].LocalData()[i], g+g/7; got != want {
							return fmt.Errorf("round %d: inout[%d] = %v, want %v", round, i, got, want)
						}
						if got, want := seqs[2].LocalData()[i], 3*(g/7)+1; got != want {
							return fmt.Errorf("round %d: out[%d] = %v, want %v", round, i, got, want)
						}
					}
				}
				return nil
			})
		})
	}
}

func TestNonBlockingInvocationFutures(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 2, true, diffusionOps)
	defer obj.close()
	runClient(t, reg, 2, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		seq, _ := dseq.NewDoubles(64, dist.Block(), th.Size(), th.Rank())
		for i := range seq.LocalData() {
			seq.LocalData()[i] = 1
		}
		pending, err := b.InvokeAsync(context.Background(), &CallSpec{
			Operation: "diffusion",
			Scalars:   func(e *cdr.Encoder) { e.PutLong(1) },
			Args:      []DistArg{{Mode: InOut, Seq: seq}},
		})
		if err != nil {
			return err
		}
		// Overlap local work with the remote call.
		localWork := 0.0
		for i := 0; i < 1000; i++ {
			localWork += float64(i)
		}
		if localWork == 0 {
			return errors.New("unreachable")
		}
		if err := pending.Wait(context.Background()); err != nil {
			return err
		}
		for i, v := range seq.LocalData() {
			if v != 2 {
				return fmt.Errorf("[%d] = %v", i, v)
			}
		}
		return nil
	})
}

func TestSequentialInvocations(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 3, true, diffusionOps)
	defer obj.close()
	runClient(t, reg, 2, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		for k := 0; k < 5; k++ {
			if err := invokeDiffusion(b, th, 50+k, 1); err != nil {
				return fmt.Errorf("invocation %d: %w", k, err)
			}
		}
		return nil
	})
}

func TestScalarConsistencyViolationDetected(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 2, true, diffusionOps)
	defer obj.close()
	err := mp.Run(2, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		b, err := Bind(context.Background(), BindConfig{
			Thread: th, Registry: reg, Method: MultiPort, ListenEndpoint: "inproc:*",
		}, obj.ref)
		if err != nil {
			return err
		}
		defer b.Close()
		seq, _ := dseq.NewDoubles(10, dist.Block(), th.Size(), th.Rank())
		// Each thread passes a DIFFERENT timestep value — the §2.1
		// contract violation the paper leaves undefined; PARDIS-Go
		// must detect it.
		err = b.Invoke(context.Background(), &CallSpec{
			Operation: "diffusion",
			Scalars:   func(e *cdr.Encoder) { e.PutLong(int32(th.Rank())) },
			Args:      []DistArg{{Mode: InOut, Seq: seq}},
		})
		if !errors.Is(err, ErrInconsistent) {
			return fmt.Errorf("want ErrInconsistent, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnknownOperation(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 2, false, diffusionOps)
	defer obj.close()
	runClient(t, reg, 1, Centralized, obj.ref, func(b *Binding, th rts.Thread) error {
		err := b.Invoke(context.Background(), &CallSpec{Operation: "melt"})
		if !errors.Is(err, ErrBadCall) {
			return fmt.Errorf("want ErrBadCall, got %v", err)
		}
		return nil
	})
}

func TestModeMismatchRejected(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 2, false, diffusionOps)
	defer obj.close()
	runClient(t, reg, 1, Centralized, obj.ref, func(b *Binding, th rts.Thread) error {
		seq, _ := dseq.NewDoubles(10, dist.Block(), 1, 0)
		err := b.Invoke(context.Background(), &CallSpec{
			Operation: "diffusion",
			Scalars:   func(e *cdr.Encoder) { e.PutLong(1) },
			Args:      []DistArg{{Mode: In, Seq: seq}},
		})
		if !errors.Is(err, ErrBadCall) {
			return fmt.Errorf("want ErrBadCall, got %v", err)
		}
		return nil
	})
}

func TestHandlerErrorBecomesRemoteError(t *testing.T) {
	ops := func(th rts.Thread) map[string]*Op {
		return map[string]*Op{
			"fail": {
				Spec: OpSpec{},
				Handler: func(call *Call) error {
					return errors.New("numerical instability")
				},
			},
		}
	}
	reg := newReg()
	obj := startObject(t, reg, 2, false, ops)
	defer obj.close()
	runClient(t, reg, 1, Centralized, obj.ref, func(b *Binding, th rts.Thread) error {
		err := b.Invoke(context.Background(), &CallSpec{Operation: "fail"})
		if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "numerical instability") {
			return fmt.Errorf("want wrapped handler error, got %v", err)
		}
		// The object must keep serving afterwards.
		err = b.Invoke(context.Background(), &CallSpec{Operation: "fail"})
		if !errors.Is(err, ErrRemote) {
			return fmt.Errorf("second call: %v", err)
		}
		return nil
	})
}

func TestMultiPortBindToCentralOnlyObjectFails(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 3, false, diffusionOps) // no per-thread ports
	defer obj.close()
	err := mp.Run(1, func(proc *mp.Proc) error {
		_, err := Bind(context.Background(), BindConfig{
			Thread:         rts.NewMessagePassing(proc),
			Registry:       reg,
			Method:         MultiPort,
			ListenEndpoint: "inproc:*",
		}, obj.ref)
		if !errors.Is(err, ErrBadCall) {
			return fmt.Errorf("want ErrBadCall, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBindPlain(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 4, true, diffusionOps)
	defer obj.close()
	b, w, err := BindPlain(context.Background(), reg, MultiPort, "inproc:*", obj.ref)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defer b.Close()
	seq, _ := dseq.NewDoubles(100, dist.Block(), 1, 0)
	for i := range seq.LocalData() {
		seq.LocalData()[i] = float64(i)
	}
	if err := b.Invoke(context.Background(), &CallSpec{
		Operation: "diffusion",
		Scalars:   func(e *cdr.Encoder) { e.PutLong(1) },
		Args:      []DistArg{{Mode: InOut, Seq: seq}},
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range seq.LocalData() {
		if v != float64(i)*2 {
			t.Fatalf("[%d] = %v", i, v)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	// Several independent clients invoking the same SPMD object must
	// serialize without deadlock (the §3.3 footnote scenario: the
	// centralized header path prevents threads accepting different
	// invocations).
	reg := newReg()
	obj := startObject(t, reg, 3, true, diffusionOps)
	defer obj.close()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			err := mp.Run(2, func(proc *mp.Proc) error {
				th := rts.NewMessagePassing(proc)
				b, err := Bind(context.Background(), BindConfig{
					Thread: th, Registry: reg,
					Method: MultiPort, ListenEndpoint: "inproc:*",
				}, obj.ref)
				if err != nil {
					return err
				}
				defer b.Close()
				return invokeDiffusion(b, th, 100+c, 2)
			})
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", c, err)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 2, true, diffusionOps)
	defer obj.close()
	runClient(t, reg, 1, Centralized, obj.ref, func(b *Binding, th rts.Thread) error {
		ops := b.Describe()
		op, ok := ops["diffusion"]
		if !ok {
			return fmt.Errorf("describe missing diffusion: %v", ops)
		}
		if len(op.Args) != 1 || op.Args[0].Mode != InOut {
			return fmt.Errorf("describe args: %+v", op.Args)
		}
		return nil
	})
}

func TestLargeSequenceTransfer(t *testing.T) {
	// 2^17 doubles — the paper's experimental size — through both
	// methods over inproc.
	if testing.Short() {
		t.Skip("large transfer")
	}
	const L = 1 << 17
	for _, method := range []TransferMethod{Centralized, MultiPort} {
		t.Run(method.String(), func(t *testing.T) {
			reg := newReg()
			obj := startObject(t, reg, 8, true, diffusionOps)
			defer obj.close()
			runClient(t, reg, 4, method, obj.ref, func(b *Binding, th rts.Thread) error {
				return invokeDiffusion(b, th, L, 1)
			})
		})
	}
}

// Property: for random (n, m, length, server distribution), both
// transfer methods produce bit-identical results — the methods are
// interchangeable implementations of one semantics.
func TestQuickMethodsEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns many SPMD sections")
	}
	rng := rand.New(rand.NewSource(20260705))
	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(6)
		length := rng.Intn(3000)
		var serverDist dist.Spec
		if rng.Intn(2) == 0 {
			serverDist = dist.Block()
		} else {
			w := make([]int, m)
			for i := range w {
				w[i] = 1 + rng.Intn(5)
			}
			var err error
			serverDist, err = dist.Proportions(w...)
			if err != nil {
				t.Fatal(err)
			}
		}
		steps := int32(1 + rng.Intn(3))
		seed := rng.Int63()

		ops := func(th rts.Thread) map[string]*Op {
			return map[string]*Op{
				"diffusion": {
					Spec: OpSpec{Args: []ArgSpec{{Mode: InOut, Dist: serverDist}}},
					Handler: func(call *Call) error {
						s, err := call.Scalars.Long()
						if err != nil {
							return err
						}
						for k := int32(0); k < s; k++ {
							for i := range call.Args[0].LocalData() {
								call.Args[0].LocalData()[i] = call.Args[0].LocalData()[i]*1.5 + 1
							}
						}
						return nil
					},
				},
			}
		}
		reg := newReg()
		obj := startObject(t, reg, m, true, ops)
		results := map[TransferMethod][]float64{}
		var mu sync.Mutex
		for _, method := range []TransferMethod{Centralized, MultiPort} {
			method := method
			runClient(t, reg, n, method, obj.ref, func(b *Binding, th rts.Thread) error {
				seq, err := dseq.NewDoubles(length, dist.Block(), th.Size(), th.Rank())
				if err != nil {
					return err
				}
				local := rand.New(rand.NewSource(seed + int64(th.Rank())))
				for i := range seq.LocalData() {
					seq.LocalData()[i] = local.NormFloat64()
				}
				if err := b.Invoke(context.Background(), &CallSpec{
					Operation: "diffusion",
					Scalars:   func(e *cdr.Encoder) { e.PutLong(steps) },
					Args:      []DistArg{{Mode: InOut, Seq: seq}},
				}); err != nil {
					return err
				}
				full, err := dseq.GatherDoubles(seq, th, 0)
				if err != nil {
					return err
				}
				if th.Rank() == 0 {
					mu.Lock()
					results[method] = full
					mu.Unlock()
				}
				return nil
			})
		}
		obj.close()
		c, mp_ := results[Centralized], results[MultiPort]
		if len(c) != length || len(mp_) != length {
			t.Fatalf("trial %d (n=%d m=%d L=%d): lengths %d/%d",
				trial, n, m, length, len(c), len(mp_))
		}
		for i := range c {
			if c[i] != mp_[i] {
				t.Fatalf("trial %d (n=%d m=%d L=%d %v): methods disagree at %d: %v vs %v",
					trial, n, m, length, serverDist, i, c[i], mp_[i])
			}
		}
	}
}

// TestEmptySequence: zero-length distributed arguments must work
// through both methods.
func TestEmptySequence(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 3, true, diffusionOps)
	defer obj.close()
	for _, method := range []TransferMethod{Centralized, MultiPort} {
		runClient(t, reg, 2, method, obj.ref, func(b *Binding, th rts.Thread) error {
			seq, err := dseq.NewDoubles(0, dist.Block(), th.Size(), th.Rank())
			if err != nil {
				return err
			}
			return b.Invoke(context.Background(), &CallSpec{
				Operation: "diffusion",
				Scalars:   func(e *cdr.Encoder) { e.PutLong(1) },
				Args:      []DistArg{{Mode: InOut, Seq: seq}},
			})
		})
	}
}

func TestStatsCounters(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 2, true, diffusionOps)
	defer obj.close()
	runClient(t, reg, 2, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		if err := invokeDiffusion(b, th, 128, 1); err != nil {
			return err
		}
		if err := invokeDiffusion(b, th, 128, 1); err != nil {
			return err
		}
		st := b.Stats()
		if st.Invocations != 2 || st.Errors != 0 {
			return fmt.Errorf("stats = %+v", st)
		}
		// Each thread ships its half (64 doubles) and receives it
		// back, twice (inout under multi-port). Window puts carry raw
		// element payloads, no CDR sequence framing, so the counters
		// account exactly 64*8 bytes per block.
		const blockBytes = 64 * 8
		if st.BytesOut != 2*blockBytes || st.BytesIn != 2*blockBytes {
			return fmt.Errorf("byte counters = %+v", st)
		}
		// A failing invocation increments Errors.
		err := b.Invoke(context.Background(), &CallSpec{Operation: "nope"})
		if !errors.Is(err, ErrBadCall) {
			return fmt.Errorf("unexpected: %v", err)
		}
		if got := b.Stats(); got.Errors != 1 || got.Invocations != 3 {
			return fmt.Errorf("after failure: %+v", got)
		}
		return nil
	})
}
