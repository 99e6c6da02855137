// Parallel SPMD data plane: the shared machinery both sides of a
// multi-port transfer use to ship distributed-argument blocks and await
// their landing.
//
// Sending: sendPlanPuts fans a thread's share of a transfer plan out
// to the destination threads as one-sided window puts with a bounded
// in-flight window, after splitting oversized blocks into pipelined
// chunks (dist.Chunk), so the write of chunk N overlaps the landing of
// chunk N-1 and transfers to different ranks ride different
// connections simultaneously.
//
// Receiving: the destination rank registers its local block as an
// orb.Window and waitWindow awaits it. Puts land straight off the
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
	// ships. It sits at the ORB's largest recycled early-put buffer
	// (maxPutBufShift in orb/window.go, 1 MiB): a chunk that beats its
	// window's registration is parked in a pooled buffer, not a fresh
	// one, and an 8 MiB argument between 2 and 4 ranks moves in 8 puts
	// per leg rather than 32 (EXPERIMENTS.md E15).
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

// Interned once: the data-plane counters are touched per chunk.
var (
	blocksInflight = telemetry.Default.Gauge("pardis_spmd_blocks_inflight")
	chunkBytesHist = telemetry.Default.HistogramWithBuckets("pardis_spmd_chunk_bytes",
		[]float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20})
	// peerBlocksTotal counts the window-put chunks shipped. A failed
	// PutWindow still reports the chunk's size, so only puts whose
	// write succeeded are counted here or in chunkBytesHist.
	peerBlocksTotal = telemetry.Default.Counter("pardis_spmd_peer_blocks_total")
)

// peerPutter abstracts orb.Client.PutWindow for the send path.
type peerPutter interface {
	PutWindow(endpoint string, hdr giop.WindowPutHeader, blk []float64) (int, error)
}

// sendPlanPuts ships rank's share of a transfer plan for one argument,
// chunked and windowed, as MsgWindowPut frames straight to the
// destination ranks' endpoints (endpointFor maps a destination thread
// to its endpoint), landing in the window they registered under
// BlockSinkKey(inv, argIdx) — no CDR sequence framing and (native
// order) no payload copy on either side. The plan-derived bounds
// checks apply before anything is sent. It returns the payload bytes
// shipped.
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
			if err != nil {
				return total, err
			}
			peerBlocksTotal.Inc()
			chunkBytesHist.Observe(float64(n))
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
			if err != nil {
				if failed.CompareAndSwap(false, true) {
					errMu.Lock()
					firstErr = err
					errMu.Unlock()
				}
				return
			}
			peerBlocksTotal.Inc()
			chunkBytesHist.Observe(float64(n))
			total.Add(uint64(n))
		}(idx, tr)
	}
	wg.Wait()
	errMu.Lock()
	err = firstErr
	errMu.Unlock()
	return total.Load(), err
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
