// Parallel SPMD data plane: the shared machinery both sides of a
// multi-port transfer use to ship distributed-argument blocks and await
// their landing.
//
// Sending: putRun.send ships a thread's share of a transfer plan to
// the destination threads as one-sided window puts, with a bounded
// number in flight, after splitting oversized blocks into pipelined
// chunks, so the write of chunk N overlaps the landing of chunk N-1 and
// transfers to different ranks ride different connections
// simultaneously. The share and its chunks depend only on the two
// layouts, which a binding repeats call after call: a planMemo keeps
// them, and is rebuilt only when a layout changes. Its send reserves
// the put connections its puts will use in parallel before the first,
// so no connection is dialed in the middle of a later call.
//
// Receiving: the destination rank arms the sending binding's
// orb.Window for the argument on its local block, for the invocation's
// epoch, and waitWindow awaits it; a put that arrives first waits on
// its connection for the arming. Puts land straight off the
// delivering connection's read buffer, counting elements rather than
// messages, so chunks may arrive out of order, interleaved across
// senders, and concurrently. Safety argument: the transfer plan
// partitions the destination index space, every put carries its own
// disjoint [DstOff, DstOff+Count) range (bounds-checked before any
// byte lands), and completion is the element count reaching the
// planned total — so no ordering between puts is ever required.
package spmd

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"pardis/internal/dist"
	"pardis/internal/giop"
	"pardis/internal/orb"
	"pardis/internal/telemetry"
)

// The data plane's fixed shape. A thread keeps up to ResolvedXferWindow
// puts in flight per transfer and splits every block into chunks of at
// most DefaultXferChunkBytes.
const (
	// DefaultXferChunkBytes is the largest window put the data plane
	// ships: an 8 MiB argument between 2 and 4 ranks moves in 8 puts per
	// leg rather than 32 (EXPERIMENTS.md E15). A chunk that beats its
	// window's registration waits for it on its put connection and then
	// lands in place, whatever its size.
	DefaultXferChunkBytes = 1 << 20
	// xferChunkElems is DefaultXferChunkBytes in float64 elements.
	xferChunkElems = DefaultXferChunkBytes / 8
	// DefaultAutoTune is read only by the benchmark harness, which
	// reports it as a state row. Nothing in the data plane tunes itself;
	// it stays false.
	DefaultAutoTune = false
)

// ResolvedXferWindow reports how many puts a thread keeps in flight per
// transfer: min(4, GOMAXPROCS).
func ResolvedXferWindow() int { return min(4, runtime.GOMAXPROCS(0)) }

// ResolvedXferChunkBytes reports the chunk size in bytes.
func ResolvedXferChunkBytes() int { return DefaultXferChunkBytes }

// peerBlocksTotal counts the window-put chunks shipped, interned once:
// it is touched per chunk. A failed PutWindow still reports the chunk's
// size, so only puts whose write succeeded are counted.
var peerBlocksTotal = telemetry.Default.Counter("pardis_spmd_peer_blocks_total")

// peerPutter abstracts orb.Client's put path for the send path.
type peerPutter interface {
	PutWindow(endpoint string, hdr giop.WindowPutHeader, blk []float64) (int, error)
	ReservePuts(endpoint string, n int) error
}

// chunkPut is one window put of a thread's share of a transfer plan:
// Count elements from the sender's local offset SrcOff to thread To's
// local offset DstOff. Last marks the final put to To.
type chunkPut struct {
	To, SrcOff, DstOff, Count int
	Last                      bool
}

// chunkPuts returns rank's share of plan as puts of at most chunkElems
// elements each (chunkElems <= 0 keeps every block whole), in plan
// order. Every block must fit what a put header can address.
func chunkPuts(plan []dist.Transfer, rank, chunkElems int) ([]chunkPut, error) {
	var puts []chunkPut
	for _, tr := range plan {
		if tr.From != rank {
			continue
		}
		if err := giop.CheckBlockRange(tr.DstOff, tr.Count); err != nil {
			return nil, err
		}
		for _, c := range dist.Chunk([]dist.Transfer{tr}, chunkElems) {
			puts = append(puts, chunkPut{To: c.To, SrcOff: c.SrcOff, DstOff: c.DstOff, Count: c.Count})
		}
	}
	for i := len(puts) - 1; i >= 0; i-- {
		puts[i].Last = !slices.ContainsFunc(puts[i+1:], func(p chunkPut) bool { return p.To == puts[i].To })
	}
	return puts, nil
}

// planMemo is one argument's transfer plan in one direction, as one
// thread takes part in it: the puts it sends, if it sends, or the
// elements it receives. A binding and an object keep one per argument
// position and direction from one invocation to the next; update
// rebuilds it only when a layout differs from the ones it was built
// for. run is the put fan-out its sends reuse, kept across rebuilds.
type planMemo struct {
	src, dst dist.Layout
	built    bool
	puts     []chunkPut
	// dests counts puts per destination thread, which bounds how many
	// may be in flight to it at once.
	dests []destPuts
	recv  int
	run   *putRun
}

// destPuts is how many of a memo's puts go to destination thread To.
type destPuts struct{ To, Puts int }

// countDests returns how many of puts go to each destination thread.
func countDests(puts []chunkPut) []destPuts {
	var ds []destPuts
	for _, p := range puts {
		i := slices.IndexFunc(ds, func(d destPuts) bool { return d.To == p.To })
		if i < 0 {
			i = len(ds)
			ds = append(ds, destPuts{To: p.To})
		}
		ds[i].Puts++
	}
	return ds
}

// update makes m rank's part in the plan that moves a sequence from
// layout src to layout dst: as a sender (send), its puts, blocks cut
// into chunks of at most xferChunkElems elements; as a receiver, the
// element count it awaits.
func (m *planMemo) update(src, dst dist.Layout, rank int, send bool) error {
	if m.built && m.src.Equal(src) && m.dst.Equal(dst) {
		return nil
	}
	m.built = false
	plan, err := dist.Plan(src, dst)
	if err != nil {
		return err
	}
	var puts []chunkPut
	recv := 0
	if send {
		puts, err = chunkPuts(plan, rank, xferChunkElems)
	} else {
		recv = planElemsTo(plan, rank)
	}
	if err != nil {
		return err
	}
	*m = planMemo{src: src, dst: dst, built: true, puts: puts, dests: countDests(puts), recv: recv, run: m.run}
	return nil
}

// send ships m's puts (putRun.send) on the memo's kept fan-out, so a
// send allocates nothing. It first reserves, on each destination's put
// stripe, a connection for every put the fan-out may have in flight to
// it (orb.Client.ReservePuts): the stripe then has them from the first
// send, and no later one dials.
func (m *planMemo) send(pc peerPutter, inv uint64, argIdx uint32, rank int,
	local []float64, endpointFor func(int) string, window int) (uint64, error) {
	if m.run == nil {
		m.run = newPutRun()
	}
	workers := min(max(window, 1), len(m.puts))
	for _, d := range m.dests {
		if n := min(workers, d.Puts); n > 1 {
			if err := pc.ReservePuts(endpointFor(d.To), n); err != nil {
				return 0, err
			}
		}
	}
	return m.run.send(pc, inv, argIdx, rank, m.puts, local, endpointFor, window)
}

// argPlans is the plan memo of one argument position in each direction.
type argPlans struct {
	in, out planMemo
}

// putRun is the put fan-out of one send at a time: its workers
// share the next put index, the payload total and the first failure. A
// plan memo keeps one, worker closure and all, from one send to the next.
type putRun struct {
	pc          peerPutter
	puts        []chunkPut
	local       []float64
	endpointFor func(int) string
	hdr         giop.WindowPutHeader

	wg     sync.WaitGroup
	next   atomic.Int64
	total  atomic.Uint64
	failed atomic.Bool
	// err is the first failure, written once by the worker that set
	// failed and read after wg.Wait.
	err error
	// worker is what every worker goroutine but the caller runs, made
	// once, so starting one allocates no closure.
	worker func()
}

func newPutRun() *putRun {
	r := &putRun{}
	r.worker = func() {
		defer r.wg.Done()
		r.work()
	}
	return r
}

// send ships puts, rank's share of a transfer plan for one argument
// (chunkPuts), as MsgWindowPut frames straight to the destination
// ranks' endpoints (endpointFor maps a destination thread to its
// endpoint), landing in the window armed for them under
// BlockSinkKey(inv, argIdx) — no CDR sequence framing and (native
// order) no payload copy on either side. At most window puts are in
// flight: min(window, len(puts)) workers, the caller one of them, take
// the puts in index order; once one fails, no worker starts another,
// and the first failure is returned. It returns the payload bytes of
// the puts that succeeded. No other send may use r meanwhile.
func (r *putRun) send(pc peerPutter, inv uint64, argIdx uint32, rank int,
	puts []chunkPut, local []float64, endpointFor func(int) string, window int) (uint64, error) {
	if len(puts) == 0 {
		return 0, nil
	}
	key, err := giop.BlockSinkKey(inv, argIdx)
	if err != nil {
		return 0, err
	}
	r.pc, r.puts, r.local, r.endpointFor = pc, puts, local, endpointFor
	r.hdr = giop.WindowPutHeader{WindowID: key, FromThread: int32(rank)}
	r.next.Store(0)
	r.total.Store(0)
	r.failed.Store(false)
	r.err = nil
	workers := min(max(window, 1), len(puts))
	r.wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go r.worker()
	}
	r.work()
	r.wg.Wait()
	// The run holds nothing of the caller's between sends.
	r.pc, r.puts, r.local, r.endpointFor = nil, nil, nil, nil
	return r.total.Load(), r.err
}

// work ships puts in index order until none is left or one has failed.
func (r *putRun) work() {
	for !r.failed.Load() {
		i := int(r.next.Add(1) - 1)
		if i >= len(r.puts) {
			return
		}
		p := &r.puts[i]
		h := r.hdr
		h.DstOff, h.Count, h.Last = uint32(p.DstOff), uint32(p.Count), p.Last
		n, err := r.pc.PutWindow(r.endpointFor(p.To), h, r.local[p.SrcOff:p.SrcOff+p.Count])
		if err != nil {
			if r.failed.CompareAndSwap(false, true) {
				r.err = err
			}
			return
		}
		peerBlocksTotal.Inc()
		r.total.Add(uint64(n))
	}
}

// waitWindow awaits a registered destination window: until completion
// (or window failure), context cancellation, closed firing, or the
// sending client's lease expiring (nil channels never fire).
func waitWindow(ctx context.Context, w *orb.Window, closed, expired <-chan struct{}) error {
	select {
	case <-w.Done():
		return w.Err()
	case <-ctx.Done():
		return ctx.Err()
	case <-closed:
		return ErrClosed
	case <-expired:
		return ErrLeaseExpired
	}
}

// planElemsTo sums the elements a plan addresses to one receiver.
func planElemsTo(plan []dist.Transfer, rank int) int {
	n := 0
	for _, tr := range plan {
		if tr.To == rank {
			n += tr.Count
		}
	}
	return n
}
