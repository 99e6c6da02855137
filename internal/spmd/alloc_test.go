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

// TestCentralizedAllocBudget pins the marshal-in-place accounting: a
// centralized inout invocation, client and server in one process,
// allocates two payload-sized buffers — the request frame and the reply
// frame, whose bodies transfer to their consumers — so three payloads
// per operation is the ceiling (the encoders are pooled at any size and
// the dispatch's argument blocks belong to the object; the gathered
// path took sixteen). The multi-port twin shares the start, wait and
// dispatch code and must not pay for any of this in allocation count;
// its payload moves caller's slice → socket → object's block, so its
// steady state allocates no payload-sized buffer at all and 64 KiB per
// operation, process-wide, is its ceiling (one dispatch block per rank
// per operation alone was 1 MiB).
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
			for i := -4; i < ops; i++ { // four warm-up operations
				if i == 0 {
					if err := th.Barrier(); err != nil {
						return err
					}
					if th.Rank() == 0 {
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
		return float64(after.TotalAlloc-before.TotalAlloc) / ops, float64(after.Mallocs-before.Mallocs) / ops
	}
	bytes, _ := perOp(Centralized)
	if limit := float64(3 * doubles * 8); bytes > limit {
		t.Errorf("centralized: %.0f B/op allocated, more than three payloads (%.0f)", bytes, limit)
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
