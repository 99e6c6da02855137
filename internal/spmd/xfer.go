// Parallel SPMD data plane: the shared machinery both sides of a
// multi-port transfer use to ship and assemble distributed-argument
// blocks.
//
// Sending: sendPlanBlocks fans a thread's share of a transfer plan out
// to the destination threads with a bounded in-flight window, after
// splitting oversized blocks into pipelined chunks (dist.Chunk), so
// the encode of chunk N overlaps the write of chunk N-1 and transfers
// to different ranks ride different connections simultaneously.
// Chunks also stay under the pooled-encoder retention cap, so the
// encode path reuses pooled buffers instead of allocating
// multi-megabyte one-offs.
//
// Receiving: blockAssembler decodes each arriving block straight into
// the destination slice (DoubleSeqInto — no intermediate copy) on the
// delivering connection's read goroutine, counting elements rather
// than messages, so chunks may arrive out of order, interleaved
// across senders, and concurrently. Safety argument: the transfer
// plan partitions the destination index space, every block carries
// its own disjoint [DstOff, DstOff+Count) window (bounds-checked
// before decode), and completion is the element count reaching the
// planned total — so no ordering between blocks is ever required.
package spmd

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/giop"
	"pardis/internal/orb"
	"pardis/internal/telemetry"
	"pardis/internal/tune"
)

// Package-wide data-plane defaults, overridable per binding/object via
// BindConfig/ObjectConfig and process-wide via the -xfer-window /
// -xfer-chunk flags of pardisd and pardis-bench.
var (
	// DefaultXferWindow is the default bound on concurrently in-flight
	// block sends per transfer (0 = min(4, GOMAXPROCS)).
	DefaultXferWindow = 0
	// DefaultXferChunkBytes is the default payload-size threshold above
	// which a block is split into pipelined chunks (<0 disables
	// chunking). 256 KiB keeps chunks inside the pooled-encoder
	// retention cap.
	DefaultXferChunkBytes = 256 << 10
	// DefaultPeerXfer enables the one-sided peer data plane (window
	// puts straight into the destination rank's registered slice) when
	// both sides are capable. The PeerXfer knobs default to it; a
	// negative knob forces the routed block path.
	DefaultPeerXfer = true
	// DefaultAutoTune resolves the per-endpoint self-tuning transport
	// (AutoTune knobs on BindConfig/ObjectConfig; the pardisd and
	// pardis-bench -auto-tune flags flip it process-wide). Off by
	// default: tuning changes knobs between transfers, which A/B
	// benchmarks and wire-identical tests must be able to rely on not
	// happening.
	DefaultAutoTune = false
)

// AutoTuner is the process-wide path estimator self-tuning bindings
// and objects share: transfer engines feed it per-transfer
// bytes/seconds (plus the bind-time RTT probe) and re-resolve their
// chunk, window and stripe knobs from it before every transfer.
// Sharing one tuner means every binding to the same endpoint benefits
// from every other binding's samples.
var AutoTuner = tune.New(tune.Config{})

// resolveAutoTune maps an AutoTune knob to the effective wish:
// 0 = package default, negative = off.
func resolveAutoTune(v int) bool {
	if v == 0 {
		return DefaultAutoTune
	}
	return v > 0
}

// ResolvedXferWindow reports the effective process-wide default
// transfer window (what a zero XferWindow config resolves to).
func ResolvedXferWindow() int { return resolveWindow(0) }

// ResolvedXferChunkBytes reports the effective process-wide default
// chunk threshold in bytes (0 when chunking is disabled).
func ResolvedXferChunkBytes() int { return resolveChunkElems(0) * 8 }

// ResolvedPeerXfer reports the effective process-wide default peer
// data-plane wish.
func ResolvedPeerXfer() bool { return resolvePeer(0) }

// tunedKnobs re-resolves (window, chunkElems) from the shared tuner
// for one transfer, falling back to the statically resolved values
// until the path has enough samples.
func tunedKnobs(pathKey string, window, chunkElems int) (int, int) {
	rec, ok := AutoTuner.Recommend(pathKey)
	if !ok {
		return window, chunkElems
	}
	return rec.XferWindow, max(rec.XferChunkBytes/8, 1)
}

// resolveWindow maps a config value to an effective send window:
// 0 = package default, negative = serial (window 1).
func resolveWindow(w int) int {
	if w == 0 {
		w = DefaultXferWindow
	}
	if w == 0 {
		w = min(4, runtime.GOMAXPROCS(0))
	}
	return max(w, 1)
}

// resolveChunkElems maps a config byte threshold to a per-chunk
// element cap for float64 payloads: 0 = package default, negative =
// chunking disabled.
func resolveChunkElems(bytes int) int {
	if bytes == 0 {
		bytes = DefaultXferChunkBytes
	}
	if bytes < 0 {
		return 0
	}
	return max(bytes/8, 1)
}

// resolvePeer maps a PeerXfer knob to the effective peer-data-plane
// wish: 0 = package default, negative = routed only.
func resolvePeer(v int) bool {
	if v == 0 {
		return DefaultPeerXfer
	}
	return v > 0
}

// Interned once: the data-plane counters are touched per chunk.
var (
	blocksInflight = telemetry.Default.Gauge("pardis_spmd_blocks_inflight")
	chunkBytesHist = telemetry.Default.HistogramWithBuckets("pardis_spmd_chunk_bytes",
		[]float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20})
	// peerBlocksTotal counts window-put chunks shipped over the peer
	// data plane (the direct counterpart of routed block transfers).
	peerBlocksTotal = telemetry.Default.Counter("pardis_spmd_peer_blocks_total")
	// peerFallback* count transfers that wanted the peer plane but took
	// the routed path, by reason: the knob disabled it, or the remote
	// endpoint did not advertise the capability.
	peerFallbackDisabled = telemetry.Default.Counter("pardis_spmd_peer_fallback_total", "reason", "disabled")
	peerFallbackEndpoint = telemetry.Default.Counter("pardis_spmd_peer_fallback_total", "reason", "endpoint")
)

// blockSender abstracts orb.Client.SendBlock for the shared send path.
type blockSender interface {
	SendBlock(endpoint string, hdr giop.BlockTransferHeader, payload func(*cdr.Encoder)) (int, error)
}

// sendPlanBlocks ships rank's share of a block-transfer plan for one
// argument, chunked and windowed. endpointFor maps a destination
// thread to its endpoint. It returns the total encoded payload bytes
// shipped (actual wire accounting, any element type).
//
// With window <= 1 and chunkElems == 0 the sends are issued serially
// in plan order — byte-identical wire traffic to the legacy serial
// path (pinned by TestSerialWireIdentical).
func sendPlanBlocks(oc blockSender, inv uint64, argIdx uint32, rank int,
	plan []dist.Transfer, local []float64, endpointFor func(int) string,
	window, chunkElems int) (uint64, error) {
	if _, err := giop.BlockSinkKey(inv, argIdx); err != nil {
		return 0, err
	}
	mine := dist.PlanFor(plan, rank)
	if len(mine) == 0 {
		return 0, nil
	}
	for _, tr := range mine {
		if err := giop.CheckBlockRange(tr.DstOff, tr.Count); err != nil {
			return 0, err
		}
	}
	mine = dist.Chunk(mine, chunkElems)
	lastIdx := make(map[int]int, len(mine))
	for idx, tr := range mine {
		lastIdx[tr.To] = idx
	}
	header := func(idx int, tr dist.Transfer) giop.BlockTransferHeader {
		return giop.BlockTransferHeader{
			InvocationID: inv<<8 | uint64(argIdx),
			ArgIndex:     argIdx,
			FromThread:   int32(rank),
			ToThread:     int32(tr.To),
			DstOff:       uint32(tr.DstOff),
			Count:        uint32(tr.Count),
			Last:         lastIdx[tr.To] == idx,
		}
	}

	if window <= 1 || len(mine) == 1 {
		var total uint64
		for idx, tr := range mine {
			blk := local[tr.SrcOff : tr.SrcOff+tr.Count]
			blocksInflight.Inc()
			n, err := oc.SendBlock(endpointFor(tr.To), header(idx, tr),
				func(e *cdr.Encoder) { e.PutDoubleSeq(blk) })
			blocksInflight.Dec()
			chunkBytesHist.Observe(float64(n))
			if err != nil {
				return total, err
			}
			total += uint64(n)
		}
		return total, nil
	}

	var (
		sem      = make(chan struct{}, window)
		wg       sync.WaitGroup
		total    atomic.Uint64
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	for idx, tr := range mine {
		if failed.Load() {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		blocksInflight.Inc()
		go func(idx int, tr dist.Transfer) {
			defer func() {
				blocksInflight.Dec()
				<-sem
				wg.Done()
			}()
			blk := local[tr.SrcOff : tr.SrcOff+tr.Count]
			n, err := oc.SendBlock(endpointFor(tr.To), header(idx, tr),
				func(e *cdr.Encoder) { e.PutDoubleSeq(blk) })
			chunkBytesHist.Observe(float64(n))
			if err != nil {
				if failed.CompareAndSwap(false, true) {
					errMu.Lock()
					firstErr = err
					errMu.Unlock()
				}
				return
			}
			total.Add(uint64(n))
		}(idx, tr)
	}
	wg.Wait()
	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	return total.Load(), err
}

// peerPutter abstracts orb.Client.PutWindow for the peer send path.
type peerPutter interface {
	PutWindow(endpoint string, hdr giop.WindowPutHeader, blk []float64) (int, error)
}

// sendPlanPuts is sendPlanBlocks' one-sided twin: rank's share of the
// plan ships as MsgWindowPut frames straight to the destination ranks'
// endpoints, landing in the window they registered under
// BlockSinkKey(inv, argIdx) — no CDR sequence framing, no sink hop,
// and (native order) no payload copy on either side. Chunking and the
// in-flight window work exactly as on the routed path, and the same
// plan-derived bounds checks apply before anything is sent.
func sendPlanPuts(pc peerPutter, inv uint64, argIdx uint32, rank int,
	plan []dist.Transfer, local []float64, endpointFor func(int) string,
	window, chunkElems int) (uint64, error) {
	key, err := giop.BlockSinkKey(inv, argIdx)
	if err != nil {
		return 0, err
	}
	mine := dist.PlanFor(plan, rank)
	if len(mine) == 0 {
		return 0, nil
	}
	for _, tr := range mine {
		if err := giop.CheckBlockRange(tr.DstOff, tr.Count); err != nil {
			return 0, err
		}
	}
	mine = dist.Chunk(mine, chunkElems)
	lastIdx := make(map[int]int, len(mine))
	for idx, tr := range mine {
		lastIdx[tr.To] = idx
	}
	header := func(idx int, tr dist.Transfer) giop.WindowPutHeader {
		return giop.WindowPutHeader{
			WindowID:   key,
			FromThread: int32(rank),
			DstOff:     uint32(tr.DstOff),
			Count:      uint32(tr.Count),
			Last:       lastIdx[tr.To] == idx,
		}
	}

	if window <= 1 || len(mine) == 1 {
		var total uint64
		for idx, tr := range mine {
			blk := local[tr.SrcOff : tr.SrcOff+tr.Count]
			blocksInflight.Inc()
			n, err := pc.PutWindow(endpointFor(tr.To), header(idx, tr), blk)
			blocksInflight.Dec()
			peerBlocksTotal.Inc()
			chunkBytesHist.Observe(float64(n))
			if err != nil {
				return total, err
			}
			total += uint64(n)
		}
		return total, nil
	}

	var (
		sem      = make(chan struct{}, window)
		wg       sync.WaitGroup
		total    atomic.Uint64
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	for idx, tr := range mine {
		if failed.Load() {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		blocksInflight.Inc()
		go func(idx int, tr dist.Transfer) {
			defer func() {
				blocksInflight.Dec()
				<-sem
				wg.Done()
			}()
			blk := local[tr.SrcOff : tr.SrcOff+tr.Count]
			n, err := pc.PutWindow(endpointFor(tr.To), header(idx, tr), blk)
			peerBlocksTotal.Inc()
			chunkBytesHist.Observe(float64(n))
			if err != nil {
				if failed.CompareAndSwap(false, true) {
					errMu.Lock()
					firstErr = err
					errMu.Unlock()
				}
				return
			}
			total.Add(uint64(n))
		}(idx, tr)
	}
	wg.Wait()
	errMu.Lock()
	err = firstErr
	errMu.Unlock()
	return total.Load(), err
}

// waitWindow awaits a registered destination window the way
// blockAssembler.wait awaits routed assembly: until completion (or
// window failure), context cancellation, close, or lease expiry.
func waitWindow(w *orb.Window, ctx contextDoner, closed, expired <-chan struct{}) error {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	select {
	case <-w.Done():
		return w.Err()
	case <-ctxDone:
		return ctx.Err()
	case <-closed:
		return ErrClosed
	case <-expired:
		return ErrLeaseExpired
	}
}

// blockAssembler collects one (argument, receiver-rank) transfer's
// blocks, decoding each straight into the destination slice. accept
// runs on connection read goroutines and is safe for concurrent use:
// blocks write disjoint destination windows, and completion is
// tracked as an element count so arrival order is irrelevant.
type blockAssembler struct {
	rank   int
	local  []float64
	expect int64
	got    atomic.Int64
	nbytes atomic.Uint64 // encoded payload bytes accepted
	done   chan struct{}
	once   sync.Once
	mu     sync.Mutex
	err    error
}

// newBlockAssembler expects `expect` total elements addressed to rank
// landing in local. An expectation of zero is complete immediately.
func newBlockAssembler(rank int, local []float64, expect int) *blockAssembler {
	a := &blockAssembler{rank: rank, local: local, expect: int64(expect),
		done: make(chan struct{})}
	if expect <= 0 {
		a.once.Do(func() { close(a.done) })
	}
	return a
}

// finish records the terminal state (first error wins) and wakes
// waiters.
func (a *blockAssembler) finish(err error) error {
	a.mu.Lock()
	if err != nil && a.err == nil {
		a.err = err
	}
	a.mu.Unlock()
	a.once.Do(func() { close(a.done) })
	return err
}

// accept decodes one block into the destination. A non-nil return
// also tears down the delivering connection (the sender violated the
// plan or the payload is undecodable).
func (a *blockAssembler) accept(blk orb.Block) error {
	h := blk.Header
	if int(h.ToThread) != a.rank {
		return a.finish(fmt.Errorf("%w: block addressed to thread %d arrived at %d",
			ErrBadCall, h.ToThread, a.rank))
	}
	end := int(h.DstOff) + int(h.Count)
	if end > len(a.local) {
		return a.finish(fmt.Errorf("%w: block [%d,%d) overflows local block of %d",
			ErrBadCall, h.DstOff, end, len(a.local)))
	}
	d := cdr.NewDecoderAt(blk.Order, blk.Payload, blockHeaderLen)
	// The three-index slice caps capacity at the block's window, so
	// the decoder fills it in place and cannot write beyond it.
	data, err := d.DoubleSeqInto(a.local[h.DstOff:h.DstOff:end])
	if err != nil {
		return a.finish(err)
	}
	if len(data) != int(h.Count) {
		return a.finish(fmt.Errorf("%w: block count %d, payload %d",
			ErrBadCall, h.Count, len(data)))
	}
	a.nbytes.Add(uint64(len(blk.Payload)))
	got := a.got.Add(int64(h.Count))
	if got > a.expect {
		return a.finish(fmt.Errorf("%w: received %d of %d expected elements",
			ErrBadCall, got, a.expect))
	}
	if got == a.expect {
		a.finish(nil)
	}
	return nil
}

// wait blocks until assembly completes (or fails), the context is
// done, closed fires, or the sending client's lease expires (nil
// channels never fire).
func (a *blockAssembler) wait(ctx contextDoner, closed, expired <-chan struct{}) error {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	select {
	case <-a.done:
		a.mu.Lock()
		err := a.err
		a.mu.Unlock()
		return err
	case <-ctxDone:
		return ctx.Err()
	case <-closed:
		return ErrClosed
	case <-expired:
		return ErrLeaseExpired
	}
}

// contextDoner is the subset of context.Context wait needs.
type contextDoner interface {
	Done() <-chan struct{}
	Err() error
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
