package spmd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/giop"
	"pardis/internal/mp"
	"pardis/internal/orb"
	"pardis/internal/rts"
	"pardis/internal/transport"
)

// TestPeerTransferEndToEnd pins the multi-port happy path: the transfer
// moves as window puts, and neither side leaks a window.
func TestPeerTransferEndToEnd(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 3, true, diffusionOps)
	defer obj.close()
	before := peerBlocksTotal.Value()
	runClient(t, reg, 2, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		if err := invokeDiffusion(b, th, 600, 2); err != nil {
			return err
		}
		return noLeak(b.BlockStats())
	})
	if got := peerBlocksTotal.Value(); got == before {
		t.Fatal("no window puts counted")
	}
	if err := obj.noLeak(noLeak); err != nil {
		t.Fatal(err)
	}
}

// TestPeerTransferCrossEndian is TestCentralizedCrossEndian's multi-port
// twin: a raw ORB client pinned to each byte order in turn — one of them
// foreign to this host — puts an in-argument into an exported object's
// windows and invokes on it. Half the puts go out before the request and
// are parked until the windows register and flush them; the rest follow
// once every rank waits on its window and land straight off the read
// buffer. The handler sees every element exact either way.
func TestPeerTransferCrossEndian(t *testing.T) {
	const n, m = 70_000, 3 // two chunks a rank: one parked, one not
	ops := func(th rts.Thread) map[string]*Op {
		return map[string]*Op{
			"check": {
				Spec: OpSpec{Args: []ArgSpec{{Mode: In, Dist: dist.Block()}}},
				Handler: func(call *Call) error {
					seq := call.Args[0]
					for i, v := range seq.LocalData() {
						if want := float64(seq.Lo()+i) / 7; v != want {
							return fmt.Errorf("rank %d: [%d] = %v, want %v", call.Thread.Rank(), i, v, want)
						}
					}
					call.Reply().PutLong(int32(seq.Len()))
					return nil
				},
			},
		}
	}
	for _, order := range []cdr.ByteOrder{cdr.LittleEndian, cdr.BigEndian} {
		t.Run(order.String()+" client", func(t *testing.T) {
			reg := newReg()
			obj := startObject(t, reg, m, true, ops)
			defer obj.close()
			cli := orb.NewClient(reg, orb.WithByteOrder(order))
			defer cli.Close()

			data := make([]float64, n)
			for i := range data {
				data[i] = float64(i) / 7
			}
			serverLayout, err := dist.Block().Apply(n, m)
			if err != nil {
				t.Fatal(err)
			}
			clientLayout, err := dist.FromCounts([]int{n})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := dist.Plan(clientLayout, serverLayout)
			if err != nil {
				t.Fatal(err)
			}
			chunks := dist.Chunk(plan, resolveChunkElems(0)/2)
			inv := cli.NewInvocationID()
			put := func(chunks []dist.Transfer) {
				if _, err := sendPlanPuts(cli, inv, 0, 0, chunks, data, obj.ref.ThreadEndpoint, 1, 0); err != nil {
					t.Error(err)
				}
			}
			var early, late []dist.Transfer
			for i, tr := range chunks {
				if i%2 == 0 {
					early = append(early, tr)
				} else {
					late = append(late, tr)
				}
			}
			// awaitRanks polls until every server thread's block router
			// satisfies ok.
			awaitRanks := func(what string, ok func(orb.BlockRouterStats) bool) {
				deadline := time.Now().Add(10 * time.Second)
				for _, o := range obj.threadObjects() {
					for !ok(o.BlockStats()) {
						if time.Now().After(deadline) {
							t.Errorf("no %s on every rank: %+v", what, o.BlockStats())
							return
						}
						time.Sleep(time.Millisecond)
					}
				}
			}
			put(early)
			awaitRanks("parked put", func(st orb.BlockRouterStats) bool { return st.Pending == 1 })
			done := make(chan struct{})
			go func() {
				defer close(done)
				awaitRanks("registered window", func(st orb.BlockRouterStats) bool { return st.Windows == 1 })
				put(late)
			}()
			w := &invocationWire{Method: MultiPort, Scalars: []byte{byte(order)},
				Args: []*argWire{{Mode: In, Length: n, ClientCounts: []int{n}}}}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			rh, rorder, raw, err := cli.Invoke(ctx, obj.ref.Endpoints[0], giop.RequestHeader{
				InvocationID:     inv,
				ResponseExpected: true,
				ObjectKey:        obj.ref.Key,
				Operation:        "check",
				ThreadCount:      1,
			}, w.encode)
			<-done
			if err != nil {
				t.Fatal(err)
			}
			d := cdr.NewDecoderAt(rorder, raw, 8)
			if rh.Status != giop.ReplyOK {
				ex, _ := giop.DecodeSystemException(d)
				t.Fatalf("status %v: %+v", rh.Status, ex)
			}
			enc, err := d.Encapsulation()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := enc.Long(); err != nil || got != n {
				t.Fatalf("scalar reply %d (%v), want %d", got, err, n)
			}
			if err := obj.noLeak(noLeak); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFaultCutPeerWindowStream cuts one of several concurrent in-put
// streams mid-transfer: the cut rank sees its transport error, every
// healthy rank fails the same invocation with ErrPartialFailure naming
// the cut rank, nothing deadlocks, and both sides come out with zero
// registered windows or sinks.
func TestFaultCutPeerWindowStream(t *testing.T) {
	inproc := transport.NewInproc()
	okReg := transport.NewRegistry()
	okReg.Register(inproc)
	cut := transport.NewFaulty(inproc, transport.FaultPlan{
		Seed: 11, Cut: 1, CutAfter: 8 << 10,
	})
	cutReg := transport.NewRegistry()
	cutReg.Register(cutDialTransport{listen: inproc, dial: cut})

	// AutoTune rides along so the chaos sweep covers the self-tuning
	// transport under faults: a failed send must not feed the tuner, and
	// tuning must not change the failure verdict or leak windows.
	obj := startObjectCfg(t, okReg, 3, true, diffusionOps, func(cfg *ObjectConfig) {
		cfg.AutoTune = 1
	})

	clientErr := mp.Run(3, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		reg := okReg
		if th.Rank() == 1 {
			reg = cutReg
		}
		b, err := Bind(context.Background(), BindConfig{
			Thread: th, Registry: reg, Method: MultiPort, ListenEndpoint: "inproc:*",
			AutoTune: 1,
		}, obj.ref)
		if err != nil {
			return err
		}
		defer b.Close()
		// 30000 doubles: every rank streams 80 KB of window puts to its
		// server thread; rank 1's connection dies after 8 KB.
		seq, err := dseq.NewDoubles(30000, dist.Block(), th.Size(), th.Rank())
		if err != nil {
			return err
		}
		done := make(chan error, 1)
		go func() {
			done <- b.Invoke(context.Background(), &CallSpec{
				Operation: "diffusion",
				Scalars:   func(e *cdr.Encoder) { e.PutLong(1) },
				Args:      []DistArg{{Mode: InOut, Seq: seq}},
			})
		}()
		var ierr error
		select {
		case ierr = <-done:
		case <-time.After(20 * time.Second):
			return fmt.Errorf("rank %d: invocation deadlocked on the cut put stream", th.Rank())
		}
		if ierr == nil {
			return fmt.Errorf("rank %d: invocation succeeded despite the cut", th.Rank())
		}
		if th.Rank() != 1 {
			if !errors.Is(ierr, ErrPartialFailure) {
				return fmt.Errorf("rank %d: want ErrPartialFailure, got %v", th.Rank(), ierr)
			}
			if !strings.Contains(ierr.Error(), "thread 1") {
				return fmt.Errorf("rank %d: error does not name the cut rank: %v", th.Rank(), ierr)
			}
		}
		if err := noWindows(b.BlockStats()); err != nil {
			return fmt.Errorf("rank %d after failure: %w", th.Rank(), err)
		}
		return nil
	})
	if clientErr != nil {
		t.Fatal(clientErr)
	}

	// The server thread whose sender died is parked on a window that
	// will never fill; Close must unwind it on every rank, and the
	// deferred cancels must leave no window registered.
	obj.close()
	for i := 0; i < 3; i++ {
		select {
		case <-obj.donech:
		case <-time.After(20 * time.Second):
			t.Fatal("a server thread did not unwind after Close")
		}
	}
	if err := obj.noLeak(noWindows); err != nil {
		t.Fatalf("after cut: %v", err)
	}
	if st := cut.Stats(); st.CutConns == 0 {
		t.Fatal("fault plan injected no cut — the test exercised nothing")
	}
}
