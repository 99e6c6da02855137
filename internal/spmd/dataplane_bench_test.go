package spmd

// Figure-4-style data-plane benchmarks: wall clock and allocations
// for moving a block-distributed dsequence<double> into (multi-port)
// or through (centralized) an SPMD object. Self-contained (no
// test-harness helpers beyond newReg) so the file can be dropped into
// an older tree unchanged for A/B comparison.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/ior"
	"pardis/internal/mp"
	"pardis/internal/rts"
	"pardis/internal/transport"
)

// benchSinkOps exports a "sink" op with one In distributed argument:
// the invocation cost is dominated by the in-transfer itself.
func benchSinkOps(th rts.Thread) map[string]*Op {
	return map[string]*Op{
		"sink": {
			Spec: OpSpec{Args: []ArgSpec{{Mode: In, Dist: dist.Block()}}},
			Handler: func(call *Call) error {
				call.Reply().PutLong(int32(len(call.Args[0].LocalData())))
				return nil
			},
		},
	}
}

// benchTouchOps exports a "touch" op with one InOut distributed
// argument whose handler bumps its block's first element: the cost is
// the transfer both ways, not compute.
func benchTouchOps(th rts.Thread) map[string]*Op {
	return map[string]*Op{
		"touch": {
			Spec: OpSpec{Args: []ArgSpec{{Mode: InOut, Dist: dist.Block()}}},
			Handler: func(call *Call) error {
				if d := call.Args[0].LocalData(); len(d) > 0 {
					d[0]++
				}
				return nil
			},
		},
	}
}

type benchObject struct {
	ref   *ior.Ref
	close func()
}

func startBenchObject(b *testing.B, reg *transport.Registry, m int, listen string, multiPort bool,
	ops func(rts.Thread) map[string]*Op) *benchObject {
	b.Helper()
	w := mp.MustWorld(m)
	refs := make(chan *ior.Ref, 1)
	objs := make([]*Object, m)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for r := 0; r < m; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			th := rts.NewMessagePassing(w.Rank(rank))
			obj, err := Export(ObjectConfig{
				Thread:         th,
				Registry:       reg,
				ListenEndpoint: listen,
				Key:            "objects/bench",
				TypeID:         "IDL:bench_object:1.0",
				MultiPort:      multiPort,
				Ops:            ops(th),
			})
			if err != nil {
				b.Error(err)
				return
			}
			mu.Lock()
			objs[rank] = obj
			mu.Unlock()
			if rank == 0 {
				refs <- obj.Ref()
			}
			_ = obj.Serve(context.Background())
		}(r)
	}
	ref := <-refs
	return &benchObject{ref: ref, close: func() {
		mu.Lock()
		for _, o := range objs {
			if o != nil {
				o.Close()
			}
		}
		mu.Unlock()
		wg.Wait()
		w.Close()
	}}
}

func benchInTransfer(b *testing.B, length, threads int) {
	reg := newReg()
	obj := startBenchObject(b, reg, threads, "inproc:*", true, benchSinkOps)
	defer obj.close()
	b.SetBytes(int64(length) * 8)
	b.ResetTimer()
	err := mp.Run(1, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		bind, err := Bind(context.Background(), BindConfig{
			Thread:         th,
			Registry:       reg,
			Method:         MultiPort,
			ListenEndpoint: "inproc:*",
		}, obj.ref)
		if err != nil {
			return err
		}
		defer bind.Close()
		seq, err := dseq.NewDoubles(length, dist.Block(), 1, 0)
		if err != nil {
			return err
		}
		for i := range seq.LocalData() {
			seq.LocalData()[i] = float64(i)
		}
		for i := 0; i < b.N; i++ {
			err := bind.Invoke(context.Background(), &CallSpec{
				Operation: "sink",
				Args:      []DistArg{{Mode: In, Seq: seq}},
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkMultiPortInTransfer(b *testing.B) {
	for _, length := range []int{16 << 10, 128 << 10, 1 << 20} {
		for _, threads := range []int{1, 4} {
			b.Run(fmt.Sprintf("len=%dKi/threads=%d", length>>10, threads),
				func(b *testing.B) { benchInTransfer(b, length, threads) })
		}
	}
}

// BenchmarkCentralizedInvoke is the centralized method's twin of the
// harness workload: an inout dsequence<double> of 1Ki or 1Mi elements
// from a 2-thread client to a 4-thread object over loopback TCP, the
// request written from the client threads' lent blocks and the reply
// from the object's, both frames read into recycled bodies. Run with
// -benchmem it shows what one invocation allocates on both sides
// together; bytes/s counts both legs.
func BenchmarkCentralizedInvoke(b *testing.B) {
	for _, c := range []struct {
		name   string
		length int
	}{{"1k", 1 << 10}, {"1M", 1 << 20}} {
		b.Run(c.name, func(b *testing.B) { benchCentralizedInvoke(b, c.length) })
	}
}

func benchCentralizedInvoke(b *testing.B, length int) {
	reg := transport.NewRegistry()
	reg.Register(transport.TCP{})
	obj := startBenchObject(b, reg, 4, "tcp:127.0.0.1:0", false, benchTouchOps)
	defer obj.close()
	b.SetBytes(2 * int64(length) * 8)
	b.ReportAllocs()
	err := mp.Run(2, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		bind, err := Bind(context.Background(), BindConfig{
			Thread:   th,
			Registry: reg,
			Method:   Centralized,
		}, obj.ref)
		if err != nil {
			return err
		}
		defer bind.Close()
		seq, err := dseq.NewDoubles(length, dist.Block(), th.Size(), th.Rank())
		if err != nil {
			return err
		}
		spec := &CallSpec{Operation: "touch", Args: []DistArg{{Mode: InOut, Seq: seq}}}
		if err := bind.Invoke(context.Background(), spec); err != nil { // dials, pools
			return err
		}
		if err := th.Barrier(); err != nil {
			return err
		}
		if th.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := bind.Invoke(context.Background(), spec); err != nil {
				return err
			}
		}
		return nil
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}
