package spmd

import (
	"context"
	"strconv"
	"sync"
	"testing"

	"pardis/internal/dist"
	"pardis/internal/giop"
	"pardis/internal/mp"
	"pardis/internal/rts"
	"pardis/internal/transport"
)

// recordingPutter captures the puts sendPlanPuts issues, standing in
// for the ORB client (it is called from several goroutines when the
// send window is concurrent).
type recordingPutter struct {
	mu    sync.Mutex
	eps   []string
	hdrs  []giop.WindowPutHeader
	bytes int
}

func (r *recordingPutter) PutWindow(ep string, hdr giop.WindowPutHeader, blk []float64) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.eps = append(r.eps, ep)
	r.hdrs = append(r.hdrs, hdr)
	r.bytes += len(blk) * 8
	return len(blk) * 8, nil
}

// TestChunkedSendCoversPlan: with chunking, serially and under a
// concurrent window, the puts must tile exactly this rank's share of
// the plan — every chunk under the threshold and addressed to its
// destination's endpoint, destination ranges disjoint, Last on exactly
// one chunk per destination, and the byte total 8 x the elements.
func TestChunkedSendCoversPlan(t *testing.T) {
	src, err := dist.FromCounts([]int{1000, 1000})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dist.FromCounts([]int{500, 1500})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dist.Plan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	const inv, argIdx, chunkElems = 7, 0, 128
	key, err := giop.BlockSinkKey(inv, argIdx)
	if err != nil {
		t.Fatal(err)
	}
	epFor := func(to int) string { return strconv.Itoa(to) }
	local := make([]float64, 1000)
	for _, window := range []int{1, 4} {
		rec := &recordingPutter{}
		n, err := sendPlanPuts(rec, inv, argIdx, 0, plan, local, epFor, window, chunkElems)
		if err != nil {
			t.Fatal(err)
		}
		covered := make(map[[2]int]bool) // (destination thread, offset)
		lasts := make(map[int]int)
		for i, h := range rec.hdrs {
			to, err := strconv.Atoi(rec.eps[i])
			if err != nil {
				t.Fatal(err)
			}
			if h.WindowID != key || h.FromThread != 0 {
				t.Fatalf("window=%d: put header %+v, want window %d from thread 0", window, h, key)
			}
			if h.Count == 0 || h.Count > chunkElems {
				t.Fatalf("window=%d: chunk of %d elements, threshold %d", window, h.Count, chunkElems)
			}
			for off := int(h.DstOff); off < int(h.DstOff)+int(h.Count); off++ {
				if covered[[2]int{to, off}] {
					t.Fatalf("window=%d: destination (%d, %d) covered twice", window, to, off)
				}
				covered[[2]int{to, off}] = true
			}
			if h.Last {
				lasts[to]++
			}
		}
		want := 0
		for _, tr := range dist.PlanFor(plan, 0) {
			want += tr.Count
			for off := tr.DstOff; off < tr.DstOff+tr.Count; off++ {
				if !covered[[2]int{tr.To, off}] {
					t.Fatalf("window=%d: destination (%d, %d) never covered", window, tr.To, off)
				}
			}
			if lasts[tr.To] != 1 {
				t.Fatalf("window=%d: destination %d has %d Last chunks, want 1", window, tr.To, lasts[tr.To])
			}
		}
		if len(covered) != want {
			t.Fatalf("window=%d: chunks cover %d destination elements, plan has %d", window, len(covered), want)
		}
		if n != uint64(want)*8 || rec.bytes != want*8 {
			t.Fatalf("window=%d: accounted %d bytes, shipped %d, want %d", window, n, rec.bytes, want*8)
		}
	}
}

// TestChunkedTransferEndToEnd runs the diffusion invocation with a
// tiny chunk threshold and a concurrent window on both sides, so in-
// and out-transfers exercise chunked, windowed, out-of-order
// landing, and verifies element-exact results and leak-freedom.
func TestChunkedTransferEndToEnd(t *testing.T) {
	reg := newReg()
	obj := startObjectCfg(t, reg, 3, true, diffusionOps, func(cfg *ObjectConfig) {
		cfg.XferWindow = 3
		cfg.XferChunkBytes = 1 << 10 // 128 doubles per chunk
	})
	defer obj.close()
	err := mp.Run(2, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		b, err := Bind(context.Background(), BindConfig{
			Thread: th, Registry: reg, Method: MultiPort,
			ListenEndpoint: "inproc:*",
			XferWindow:     4,
			XferChunkBytes: 1 << 10,
		}, obj.ref)
		if err != nil {
			return err
		}
		defer b.Close()
		// 4000 doubles: each client rank ships 2000 (16 chunks), and
		// the uneven 2->3 rank mapping splits blocks across threads.
		if err := invokeDiffusion(b, th, 4000, 2); err != nil {
			return err
		}
		return noLeak(b.BlockStats())
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.noLeak(noLeak); err != nil {
		t.Fatal(err)
	}
}

// cutDialTransport serves "inproc" endpoints but routes dials through
// a fault-injecting wrapper, so only this process's outbound put
// streams are cut — listeners stay clean and keep their scheme.
type cutDialTransport struct {
	listen transport.Transport // plain shared inproc
	dial   transport.Transport // faulty-wrapped view of the same inproc
}

func (c cutDialTransport) Scheme() string { return c.listen.Scheme() }
func (c cutDialTransport) Listen(a string) (transport.Listener, error) {
	return c.listen.Listen(a)
}
func (c cutDialTransport) Dial(a string) (transport.Conn, error) { return c.dial.Dial(a) }
