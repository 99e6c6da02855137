package spmd

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"pardis/internal/dist"
	"pardis/internal/giop"
	"pardis/internal/rts"
	"pardis/internal/transport"
)

// recordingPutter captures the puts sendPlanPuts issues, standing in
// for the ORB client (it is called from several goroutines when the
// send window is concurrent). With failAt set, that put (1-based) fails
// the way a cut stream does: orb.Client.PutWindow still reports the
// chunk's size. Only the puts that succeeded are recorded.
type recordingPutter struct {
	mu     sync.Mutex
	failAt int
	calls  int
	eps    []string
	hdrs   []giop.WindowPutHeader
	bytes  int
}

var errPutCut = errors.New("put stream cut")

func (r *recordingPutter) PutWindow(ep string, hdr giop.WindowPutHeader, blk []float64) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	if r.calls == r.failAt {
		return len(blk) * 8, errPutCut
	}
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

	// A failed put is neither returned as shipped nor counted in the
	// chunk metrics, serially or under a concurrent window.
	for _, window := range []int{1, 4} {
		rec := &recordingPutter{failAt: 3}
		blocksBefore, histBefore := peerBlocksTotal.Value(), chunkBytesHist.Snapshot()
		n, err := sendPlanPuts(rec, inv, argIdx, 0, plan, local, epFor, window, chunkElems)
		if !errors.Is(err, errPutCut) {
			t.Fatalf("window=%d: err = %v, want the cut", window, err)
		}
		hist := chunkBytesHist.Snapshot()
		if got := peerBlocksTotal.Value() - blocksBefore; got != uint64(len(rec.hdrs)) {
			t.Fatalf("window=%d: counted %d puts, %d succeeded", window, got, len(rec.hdrs))
		}
		if got := hist.Count - histBefore.Count; got != uint64(len(rec.hdrs)) {
			t.Fatalf("window=%d: observed %d chunk sizes, %d puts succeeded", window, got, len(rec.hdrs))
		}
		if got := hist.Sum - histBefore.Sum; got != float64(rec.bytes) || n != uint64(rec.bytes) {
			t.Fatalf("window=%d: observed %v bytes, returned %d, shipped %d", window, got, n, rec.bytes)
		}
	}
}

// TestAutoTuneOffByDefault pins the static data plane the benchmark
// harness reports: nothing tunes itself, the send window is
// min(4, GOMAXPROCS), and chunks are 1 MiB.
func TestAutoTuneOffByDefault(t *testing.T) {
	if DefaultAutoTune {
		t.Fatal("DefaultAutoTune is on; the data plane has no tuner")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if w := ResolvedXferWindow(); w != 1 {
		t.Fatalf("window at GOMAXPROCS=1 is %d, want 1", w)
	}
	runtime.GOMAXPROCS(8)
	if w := ResolvedXferWindow(); w != 4 {
		t.Fatalf("window at GOMAXPROCS=8 is %d, want 4", w)
	}
	if c := ResolvedXferChunkBytes(); c != 1<<20 {
		t.Fatalf("chunk is %d bytes, want 1 MiB", c)
	}
}

// TestChunkedTransferEndToEnd runs the diffusion invocation with blocks
// larger than a chunk and a concurrent window on both sides, so in- and
// out-transfers exercise chunked, windowed, out-of-order landing, and
// verifies element-exact results, the chunk count and leak-freedom.
func TestChunkedTransferEndToEnd(t *testing.T) {
	// The window is min(4, GOMAXPROCS): raise it above 1 on small hosts.
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	// 2^20 doubles over 2 -> 3 ranks: every block of the plan, both
	// ways, holds more than one chunk (the smallest is n/6 elements).
	const n, clients, servers = 1 << 20, 2, 3
	wantPuts := 0
	for _, counts := range [][2]int{{clients, servers}, {servers, clients}} {
		plan, err := dist.Plan(dist.Block().MustApply(n, counts[0]), dist.Block().MustApply(n, counts[1]))
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range plan {
			if tr.Count <= xferChunkElems {
				t.Fatalf("block of %d elements fits one chunk", tr.Count)
			}
		}
		wantPuts += len(dist.Chunk(plan, xferChunkElems))
	}

	reg := newReg()
	obj := startObject(t, reg, servers, true, diffusionOps)
	defer obj.close()
	before := peerBlocksTotal.Value()
	runClient(t, reg, clients, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		if err := invokeDiffusion(b, th, n, 2); err != nil {
			return err
		}
		return noLeak(b.BlockStats())
	})
	if got := peerBlocksTotal.Value() - before; got != uint64(wantPuts) {
		t.Fatalf("shipped %d puts, want %d chunks", got, wantPuts)
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
