//go:build !race

package spmd

import (
	"context"
	"runtime"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/rts"
)

// Not built under -race: the detector's instrumentation defeats the
// compiler's append(make) elision and sync.Pool reuse, so there the
// budgets below would measure the detector, not this package.

// TestCentralizedLargeRequestsLand: once warm, a run of centralized
// invocations with 8 MiB payloads — one inout argument, or an inout and
// an in one — reads no request whole: the communicator lands each
// request's elements off the connection straight into the threads'
// blocks, every argument's in turn, and the client lands the reply the
// same way, so an operation allocates far less than one payload.
func TestCentralizedLargeRequestsLand(t *testing.T) {
	const (
		ops     = 16
		doubles = 1 << 20
	)
	for name, modes := range map[string][]ArgMode{"one argument": {InOut}, "two arguments": {InOut, In}} {
		t.Run(name, func(t *testing.T) {
			reg := newReg()
			obj := startObject(t, reg, 4, false, func(th rts.Thread) map[string]*Op { return withPair(diffusionOps(th)) })
			defer obj.close()
			comm := obj.threadObjects()[0]
			var g0 uint64
			var before, after runtime.MemStats
			runClient(t, reg, 2, Centralized, obj.ref, func(b *Binding, th rts.Thread) error {
				spec := &CallSpec{Operation: "pair"}
				if len(modes) == 1 {
					spec = &CallSpec{Operation: "diffusion", Scalars: func(e *cdr.Encoder) { e.PutLong(0) }}
				}
				for _, mode := range modes {
					seq, err := dseq.NewDoubles(doubles, dist.Block(), th.Size(), th.Rank())
					if err != nil {
						return err
					}
					spec.Args = append(spec.Args, DistArg{Mode: mode, Seq: seq})
				}
				for i := -2; i < ops; i++ { // two warm-up operations
					if i == 0 {
						if err := th.Barrier(); err != nil {
							return err
						}
						if th.Rank() == 0 {
							g0 = comm.readWhole.Load()
							runtime.ReadMemStats(&before)
						}
					}
					if err := b.Invoke(context.Background(), spec); err != nil {
						return err
					}
				}
				if th.Rank() == 0 {
					runtime.ReadMemStats(&after)
				}
				return nil
			})
			if g := comm.readWhole.Load() - g0; g != 0 {
				t.Fatalf("%d invocations read %d requests whole; want every request landed", ops, g)
			}
			perOp := (after.TotalAlloc - before.TotalAlloc) / ops
			t.Logf("%d B/op allocated, payload %d B", perOp, doubles*8)
			if perOp > doubles*8/64 {
				t.Fatalf("%d B/op allocated, ceiling %d", perOp, doubles*8/64)
			}
		})
	}
}

// TestCentralizedAllocBudget pins the allocation ledger of both
// transfer methods, client and server in one process. A centralized
// inout invocation writes its request and reply straight from the lent
// blocks and lands both frames' elements straight in the blocks, so its
// steady state allocates no payload-sized buffer at all (the gathered path took sixteen, marshal
// in place two). The multi-port twin shares the start, wait and
// dispatch code and must not pay for any of this in allocation count;
// its payload moves caller's slice → socket → object's block. Both get
// the same ceiling: 64 KiB per operation, process-wide (one dispatch
// block per rank per operation alone was 1 MiB).
func TestCentralizedAllocBudget(t *testing.T) {
	const (
		doubles = 1 << 17
		// ops is large enough that the one thing timing decides — how
		// many early puts are parked at once, each in a recycled 256 KiB
		// buffer that is allocated the first time that many are — stays
		// under the multi-port ceiling even if all four server ranks'
		// worth are first needed inside the measured window.
		ops = 32
		// multiPortMallocs is the multi-port variant's process-wide
		// allocation count per operation (n=2, m=4, inproc) as measured
		// before marshal-in-place, 361-368, plus 2 % for pool refills
		// after a collection.
		multiPortMallocs = 375
	)
	perOp := func(method TransferMethod) (bytes, mallocs float64) {
		reg := newReg()
		obj := startObject(t, reg, 4, true, diffusionOps)
		defer obj.close()
		var before, after runtime.MemStats
		runClient(t, reg, 2, method, obj.ref, func(b *Binding, th rts.Thread) error {
			seq, err := dseq.NewDoubles(doubles, dist.Block(), th.Size(), th.Rank())
			if err != nil {
				return err
			}
			spec := &CallSpec{
				Operation: "diffusion",
				Scalars:   func(e *cdr.Encoder) { e.PutLong(0) },
				Args:      []DistArg{{Mode: InOut, Seq: seq}},
			}
			for i := -16; i < ops; i++ { // sixteen warm-up operations
				if i == 0 {
					if err := th.Barrier(); err != nil {
						return err
					}
					if th.Rank() == 0 {
						runtime.ReadMemStats(&before)
					}
				}
				// InvokeAsync keeps each binding's method: the payload is
				// below the crossover, where Invoke would send the
				// multi-port twin centralized.
				p, err := b.InvokeAsync(context.Background(), spec)
				if err != nil {
					return err
				}
				if err := p.Wait(context.Background()); err != nil {
					return err
				}
			}
			if th.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
			return nil
		})
		return float64(after.TotalAlloc-before.TotalAlloc) / ops, float64(after.Mallocs-before.Mallocs) / ops
	}
	bytes, _ := perOp(Centralized)
	if bytes > 64<<10 {
		t.Errorf("centralized: %.0f B/op allocated, ceiling %d", bytes, 64<<10)
	}
	mpBytes, mallocs := perOp(MultiPort)
	t.Logf("centralized %.0f B/op (payload %d B); multi-port %.0f B/op in %.0f allocations/op",
		bytes, doubles*8, mpBytes, mallocs)
	if mallocs > multiPortMallocs {
		t.Errorf("multi-port: %.0f allocations/op, ceiling %d", mallocs, multiPortMallocs)
	}
	if mpBytes > 64<<10 {
		t.Errorf("multi-port: %.0f B/op allocated, ceiling %d", mpBytes, 64<<10)
	}
}
