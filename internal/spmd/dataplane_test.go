package spmd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/giop"
	"pardis/internal/mp"
	"pardis/internal/rts"
	"pardis/internal/transport"
)

// recordingPutter captures the puts putRun.send issues, standing in
// for the ORB client (it is called from several goroutines when the
// send window is concurrent). With failAt set, that put (1-based) fails
// the way a cut stream does: orb.Client.PutWindow still reports the
// chunk's size. Only the puts that succeeded are recorded. It also
// counts the puts in flight at once, at most maxInFlight, and the puts
// that started after the failing one had returned, lateStarts, and
// records each ReservePuts with the count of puts begun before it.
type recordingPutter struct {
	inFlight   atomic.Int32
	failed     atomic.Bool
	lateStarts atomic.Int32

	mu          sync.Mutex
	failAt      int
	calls       int
	maxInFlight int
	eps         []string
	hdrs        []giop.WindowPutHeader
	bytes       int
	reserves    []reservation
}

// reservation is one recorded ReservePuts: n connections to ep, asked
// for once afterPuts puts had begun.
type reservation struct {
	ep        string
	n         int
	afterPuts int
}

func (r *recordingPutter) ReservePuts(ep string, n int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reserves = append(r.reserves, reservation{ep, n, r.calls})
	return nil
}

var errPutCut = errors.New("put stream cut")

func (r *recordingPutter) PutWindow(ep string, hdr giop.WindowPutHeader, blk []float64) (int, error) {
	if r.failed.Load() {
		r.lateStarts.Add(1)
	}
	n := int(r.inFlight.Add(1))
	defer r.inFlight.Add(-1)
	// A peer put stays in flight a moment, so concurrent ones overlap.
	runtime.Gosched()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxInFlight = max(r.maxInFlight, n)
	r.calls++
	if r.calls == r.failAt {
		r.failed.Store(true)
		return len(blk) * 8, errPutCut
	}
	r.eps = append(r.eps, ep)
	r.hdrs = append(r.hdrs, hdr)
	r.bytes += len(blk) * 8
	return len(blk) * 8, nil
}

// TestMemoSendReservesPutStripes: before its first put, a memo's send
// reserves on each destination's put stripe as many connections as the
// fan-out may keep in flight there — min(window, puts to it) — and none
// for a destination that gets one put, so no stripe grows while later
// sends run.
func TestMemoSendReservesPutStripes(t *testing.T) {
	const n0, n1 = 2*xferChunkElems + 1, xferChunkElems // three chunks to thread 0, one to thread 1
	src, err := dist.FromCounts([]int{n0 + n1})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dist.FromCounts([]int{n0, n1})
	if err != nil {
		t.Fatal(err)
	}
	var m planMemo
	if err := m.update(src, dst, 0, true); err != nil {
		t.Fatal(err)
	}
	epFor := func(to int) string { return strconv.Itoa(to) }
	local := make([]float64, n0+n1)
	for _, tc := range []struct {
		window int
		want   []reservation
	}{
		{1, nil},
		{2, []reservation{{"0", 2, 0}}},
		{4, []reservation{{"0", 3, 0}}},
	} {
		rec := &recordingPutter{}
		if _, err := m.send(rec, 7, 0, 0, local, epFor, tc.window); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rec.reserves, tc.want) {
			t.Fatalf("window=%d: reservations %+v, want %+v", tc.window, rec.reserves, tc.want)
		}
		if rec.calls != 4 {
			t.Fatalf("window=%d: %d puts, want 4", tc.window, rec.calls)
		}
	}
}

// TestChunkedSendCoversPlan: with chunking, serially and under a
// concurrent window, the puts must tile exactly this rank's share of
// the plan — every chunk under the threshold and addressed to its
// destination's endpoint, destination ranges disjoint, Last on exactly
// one chunk per destination, and the byte total 8 x the elements — with
// at most window puts in flight, and serially none after a failed one.
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
	puts, err := chunkPuts(plan, 0, chunkElems)
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 4} {
		rec := &recordingPutter{}
		n, err := newPutRun().send(rec, inv, argIdx, 0, puts, local, epFor, window)
		if err != nil {
			t.Fatal(err)
		}
		if rec.maxInFlight > window {
			t.Fatalf("window=%d: %d puts in flight at once", window, rec.maxInFlight)
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

	// A failed put is neither returned as shipped nor counted in
	// pardis_spmd_peer_blocks_total, serially or under a concurrent
	// window.
	for _, window := range []int{1, 4} {
		rec := &recordingPutter{failAt: 3}
		blocksBefore := peerBlocksTotal.Value()
		n, err := newPutRun().send(rec, inv, argIdx, 0, puts, local, epFor, window)
		if !errors.Is(err, errPutCut) {
			t.Fatalf("window=%d: err = %v, want the cut", window, err)
		}
		if rec.maxInFlight > window {
			t.Fatalf("window=%d: %d puts in flight at once", window, rec.maxInFlight)
		}
		// Serially, the failed put is the last one. Under a concurrent
		// window no put starts once a worker has seen the failure, but
		// another worker's put may return as the failed one does and start
		// the next before the failure is seen: that is not pinned.
		if window == 1 && (rec.lateStarts.Load() > 0 || rec.calls != rec.failAt) {
			t.Fatalf("window=%d: %d puts started after the failure, %d in all", window,
				rec.lateStarts.Load(), rec.calls)
		}
		if got := peerBlocksTotal.Value() - blocksBefore; got != uint64(len(rec.hdrs)) {
			t.Fatalf("window=%d: counted %d puts, %d succeeded", window, got, len(rec.hdrs))
		}
		if n != uint64(rec.bytes) {
			t.Fatalf("window=%d: returned %d bytes, shipped %d", window, n, rec.bytes)
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

// memoOps exports two operations over one inout argument that place it
// differently on the object's four threads: "double" blockwise, "add"
// in the proportions 1:2:3:4.
func memoOps(th rts.Thread) map[string]*Op {
	weighted, err := dist.Proportions(1, 2, 3, 4)
	if err != nil {
		panic(err)
	}
	return map[string]*Op{
		"double": {
			Spec: OpSpec{Args: []ArgSpec{{Mode: InOut, Dist: dist.Block()}}},
			Handler: func(call *Call) error {
				for i, local := 0, call.Args[0].LocalData(); i < len(local); i++ {
					local[i] *= 2
				}
				return nil
			},
		},
		"add": {
			Spec: OpSpec{Args: []ArgSpec{{Mode: InOut, Dist: weighted}}},
			Handler: func(call *Call) error {
				for i, local := 0, call.Args[0].LocalData(); i < len(local); i++ {
					local[i] += 10
				}
				return nil
			},
		},
	}
}

// TestPlanMemoFollowsShapes: a binding keeps its layouts and plans from
// one invocation to the next, and the object its own, so each must be
// rebuilt whenever the operation, the length or the client layout
// changes. Two clients, of 2 and 3 threads, share one 4-thread object,
// each alternating two lengths, a block and a weighted client layout,
// and two operations whose server layouts differ, through InvokeAsync
// (multi-port at any size), one of the three changing at a time; every
// element of every result is checked. The clients run one after the
// other, so the object sees each change alone, then both at once, so it
// sees their shapes interleave. A memo that misses a change sends puts
// its receivers do not expect, which fails or strands the invocation: a
// deadline bounds each client.
func TestPlanMemoFollowsShapes(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 4, true, memoOps)
	defer obj.close()
	client := func(n int) error {
		weights := make([]int, n)
		for i := range weights {
			weights[i] = 3*i + 1
		}
		weighted, err := dist.Proportions(weights...)
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return mp.Run(n, func(proc *mp.Proc) error {
			th := rts.NewMessagePassing(proc)
			b, err := Bind(ctx, BindConfig{Thread: th, Registry: reg,
				Method: MultiPort, ListenEndpoint: "inproc:*"}, obj.ref)
			if err != nil {
				return err
			}
			defer b.Close()
			for i := 0; i < 16; i++ {
				// The shape walks a Gray code: one of length, client layout
				// and operation changes from each invocation to the next.
				g := i ^ i>>1
				length := []int{1000, 1537}[g&1]
				layout := []dist.Spec{dist.Block(), weighted}[g>>1&1]
				op := []string{"double", "add"}[g>>2&1]
				seq, err := dseq.NewDoubles(length, layout, n, th.Rank())
				if err != nil {
					return err
				}
				local := seq.LocalData()
				for j := range local {
					local[j] = float64(seq.Lo() + j + i)
				}
				p, err := b.InvokeAsync(ctx, &CallSpec{Operation: op,
					Args: []DistArg{{Mode: InOut, Seq: seq}}})
				if err != nil {
					return fmt.Errorf("invocation %d (%s, %d elements): %w", i, op, length, err)
				}
				if err := p.Wait(ctx); err != nil {
					return fmt.Errorf("invocation %d (%s, %d elements): %w", i, op, length, err)
				}
				for j, v := range local {
					want := float64(seq.Lo() + j + i)
					if op == "double" {
						want *= 2
					} else {
						want += 10
					}
					if v != want {
						return fmt.Errorf("%d-thread client, invocation %d (%s, %d elements, %v): thread %d element %d = %v, want %v",
							n, i, op, length, layout, th.Rank(), seq.Lo()+j, v, want)
					}
				}
			}
			return noLeak(b.BlockStats())
		})
	}
	for _, n := range []int{2, 3} {
		if err := client(n); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 2)
	for _, n := range []int{2, 3} {
		go func(n int) { errs <- client(n) }(n)
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if err := obj.noLeak(noLeak); err != nil {
		t.Fatal(err)
	}
}
