package spmd

// Figure-4-style data-plane benchmarks: wall clock and allocations
// for streaming a block-distributed dsequence<double> into a multi-
// port SPMD object. Self-contained (no test-harness helpers beyond
// newReg) so the file can be dropped into an older tree unchanged for
// A/B comparison.

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

type benchObject struct {
	ref   *ior.Ref
	close func()
}

func startBenchObject(b *testing.B, reg *transport.Registry, m int) *benchObject {
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
				ListenEndpoint: "inproc:*",
				Key:            "objects/bench",
				TypeID:         "IDL:bench_object:1.0",
				MultiPort:      true,
				Ops:            benchSinkOps(th),
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

func benchInTransfer(b *testing.B, length, threads, autoTune int) {
	reg := newReg()
	obj := startBenchObject(b, reg, threads)
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
			AutoTune:       autoTune,
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

// The plane dimension A/Bs the static knobs (peer) against the
// self-tuning transport re-resolving chunk/window per transfer (tuned,
// AutoTune=1 on the binding), so the allocation ledger covers the
// tuner's hot path too.
func BenchmarkMultiPortInTransfer(b *testing.B) {
	planes := []struct {
		name     string
		autoTune int
	}{{"peer", 0}, {"tuned", 1}}
	for _, length := range []int{16 << 10, 128 << 10, 1 << 20} {
		for _, threads := range []int{1, 4} {
			for _, plane := range planes {
				b.Run(fmt.Sprintf("len=%dKi/threads=%d/plane=%s", length>>10, threads, plane.name),
					func(b *testing.B) { benchInTransfer(b, length, threads, plane.autoTune) })
			}
		}
	}
}
