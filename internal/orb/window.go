// One-sided destination windows: the receiving half of the multi-port
// data plane. A Window is a caller-owned []float64 registered under a
// 64-bit ID before the sender is told the ID exists; MsgWindowPut
// frames addressed to it are landed by the connection read loop
// straight off the read buffer into dst[DstOff:DstOff+Count] — no body
// allocation, no pending-buffer hop, no CDR sequence framing. Puts
// that race the registration are buffered under the router's pending
// budgets and flushed into the window when it registers.
//
// The safety argument: every put is bounds-checked against the
// registered destination before any byte lands; the sender derives
// disjoint [DstOff, DstOff+Count) ranges from the same transfer plan
// both sides computed, so concurrent lands from multiple connections
// never overlap; and completion is element-counted against the plan
// total, so a short stream can only end in a failed window, never a
// silently partial one.
package orb

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/telemetry"
)

// windowsActive counts currently registered (not yet cancelled)
// destination windows across the process — the leak canary for the
// peer data plane.
var windowsActive = telemetry.Default.Gauge("pardis_orb_windows_active")

// Window is one registered one-sided destination. It completes when
// the expected element count has landed, or fails on the first
// out-of-range put; Done/Err expose that to the waiter. All methods
// are safe for concurrent use — puts land from connection read
// goroutines while the owner waits.
type Window struct {
	id     uint64
	dst    []float64
	expect int64
	// onPut, when set, runs after each landed put (on the delivering
	// connection's read goroutine — it must be cheap and non-blocking).
	// Receivers use it as a liveness signal, e.g. lease renewal.
	onPut func()

	got    atomic.Int64
	nbytes atomic.Int64

	mu   sync.Mutex
	err  error
	once sync.Once
	done chan struct{}
}

// Done is closed once the window has completed or failed.
func (w *Window) Done() <-chan struct{} { return w.done }

// Err reports the window's failure, if any, once Done is closed.
func (w *Window) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Bytes is the payload volume landed so far.
func (w *Window) Bytes() int64 { return w.nbytes.Load() }

func (w *Window) fail(err error) {
	w.once.Do(func() {
		w.mu.Lock()
		w.err = err
		w.mu.Unlock()
		close(w.done)
	})
}

func (w *Window) complete() {
	w.once.Do(func() { close(w.done) })
}

// checkRange validates a put against the registered destination before
// any byte lands.
func (w *Window) checkRange(h giop.WindowPutHeader) error {
	if int64(h.DstOff)+int64(h.Count) > int64(len(w.dst)) {
		return fmt.Errorf("orb: window %#x put [%d,%d) exceeds destination of %d elements",
			w.id, h.DstOff, int64(h.DstOff)+int64(h.Count), len(w.dst))
	}
	return nil
}

// landed accounts count elements already written into dst, completing
// the window when the plan total is reached.
func (w *Window) landed(count uint32) {
	w.nbytes.Add(int64(count) * 8)
	if w.onPut != nil {
		w.onPut()
	}
	if w.got.Add(int64(count)) >= w.expect {
		w.complete()
	}
}

// windowPut is one buffered early put: raw element bytes held until
// the window registers.
type windowPut struct {
	h     giop.WindowPutHeader
	order cdr.ByteOrder
	buf   *[]byte // from acquirePutBuf; released once landed
}

// Early-put buffers are recycled, one pool per power-of-two capacity
// from 4 KiB to 1 MiB (the chunk sizes the data plane ships; anything
// else is allocated and left to the GC). How many of an invocation's
// puts beat their window's registration is a race the sender usually
// wins, so without recycling the bytes an invocation allocates swing
// with timing by most of the argument's size.
const (
	minPutBufShift = 12
	maxPutBufShift = 20
)

var putBufPools [maxPutBufShift - minPutBufShift + 1]sync.Pool

// putBufClass is the pool holding buffers of the smallest pooled
// capacity >= n, or -1 when n is outside the pooled range.
func putBufClass(n int) int {
	if n <= 0 || n > 1<<maxPutBufShift {
		return -1
	}
	return max(bits.Len(uint(n-1)), minPutBufShift) - minPutBufShift
}

// acquirePutBuf returns an n-byte buffer for one early put's payload.
func acquirePutBuf(n int) *[]byte {
	c := putBufClass(n)
	if c < 0 {
		b := make([]byte, n)
		return &b
	}
	if bp, ok := putBufPools[c].Get().(*[]byte); ok {
		*bp = (*bp)[:n]
		return bp
	}
	b := make([]byte, n, 1<<(c+minPutBufShift))
	return &b
}

// releasePutBuf recycles a buffer whose payload has landed (or was
// dropped). The caller must not touch it afterwards.
func releasePutBuf(bp *[]byte) {
	if c := putBufClass(cap(*bp)); c >= 0 && cap(*bp) == 1<<(c+minPutBufShift) {
		putBufPools[c].Put(bp)
	}
}

// windowPendingEntry is one window's buffered early puts plus the
// accounting the byte budget and TTL sweep need.
type windowPendingEntry struct {
	puts  []windowPut
	bytes int
	last  time.Time // most recent arrival; staleness is measured from here
}

// windowFor resolves a put's destination window, if registered.
func (r *blockRouter) windowFor(id uint64) (*Window, bool) {
	r.mu.Lock()
	w, ok := r.windows[id]
	r.mu.Unlock()
	return w, ok
}

// bufferWindowPut parks an early put under the router's pending
// budgets until its window registers (or the sweep reclaims it). The
// window table is re-checked under the router lock first: the read
// loop's lookup miss and this call are not one critical section, so
// the window may have registered — and flushed an empty pending set —
// in between. Landing the put here instead of parking it closes that
// gap; buffering would strand the put forever. It takes ownership of
// buf (see acquirePutBuf), which holds the put's payload.
func (r *blockRouter) bufferWindowPut(h giop.WindowPutHeader, order cdr.ByteOrder, buf *[]byte) error {
	payload := *buf
	r.mu.Lock()
	if w, ok := r.windows[h.WindowID]; ok {
		r.mu.Unlock()
		defer releasePutBuf(buf)
		if err := w.checkRange(h); err != nil {
			w.fail(err)
			return nil
		}
		cdr.DecodeDoubles(w.dst[h.DstOff:int64(h.DstOff)+int64(h.Count)], payload, order)
		w.landed(h.Count)
		return nil
	}
	if r.pendingLen >= r.pol.MaxBlocks {
		r.mu.Unlock()
		releasePutBuf(buf)
		return fmt.Errorf("%w: window %#x", ErrTooManyBlocks, h.WindowID)
	}
	if r.pendingBytes+len(payload) > r.pol.MaxBytes {
		r.mu.Unlock()
		releasePutBuf(buf)
		return fmt.Errorf("%w: window %#x (%d buffered + %d new > %d)",
			ErrPendingBlockBytes, h.WindowID, r.pendingBytes, len(payload), r.pol.MaxBytes)
	}
	pe := r.pending[h.WindowID]
	if pe == nil {
		pe = &windowPendingEntry{}
		r.pending[h.WindowID] = pe
	}
	pe.puts = append(pe.puts, windowPut{h: h, order: order, buf: buf})
	pe.bytes += len(payload)
	pe.last = time.Now()
	r.pendingLen++
	r.pendingBytes += len(payload)
	pendingBlockBytes.Add(int64(len(payload)))
	r.mu.Unlock()
	return nil
}

// registerWindow installs a destination window, flushing any puts that
// arrived early. expect is the total element count after which the
// window completes (a non-positive expectation completes immediately).
// The returned cancel removes the registration; it must be called on
// every exit path, success or failure, so windows never leak.
func (r *blockRouter) registerWindow(id uint64, dst []float64, expect int64, onPut func()) (*Window, func(), error) {
	w := &Window{id: id, dst: dst, expect: expect, onPut: onPut, done: make(chan struct{})}
	r.mu.Lock()
	if _, dup := r.windows[id]; dup {
		r.mu.Unlock()
		return nil, nil, fmt.Errorf("orb: duplicate window %#x", id)
	}
	r.windows[id] = w
	var early []windowPut
	if pe := r.pending[id]; pe != nil {
		early = pe.puts
		delete(r.pending, id)
		r.pendingLen -= len(pe.puts)
		r.pendingBytes -= pe.bytes
		pendingBlockBytes.Add(-int64(pe.bytes))
	}
	r.mu.Unlock()
	windowsActive.Add(1)
	var cancelled atomic.Bool
	cancel := func() {
		if cancelled.Swap(true) {
			return
		}
		r.mu.Lock()
		delete(r.windows, id)
		r.mu.Unlock()
		windowsActive.Add(-1)
	}
	if expect <= 0 {
		w.complete()
	}
	for _, p := range early {
		if err := w.checkRange(p.h); err != nil {
			w.fail(err)
			break
		}
		cdr.DecodeDoubles(dst[p.h.DstOff:int64(p.h.DstOff)+int64(p.h.Count)], *p.buf, p.order)
		w.landed(p.h.Count)
	}
	for _, p := range early {
		releasePutBuf(p.buf)
	}
	return w, cancel, nil
}

// sweepWindows reclaims early-put buffers whose last arrival is older
// than the TTL, returning the number of puts dropped.
func (r *blockRouter) sweepWindows(now time.Time) int {
	r.mu.Lock()
	var dropped, droppedBytes int
	for id, pe := range r.pending {
		if now.Sub(pe.last) < r.pol.TTL {
			continue
		}
		dropped += len(pe.puts)
		droppedBytes += pe.bytes
		r.pendingLen -= len(pe.puts)
		r.pendingBytes -= pe.bytes
		delete(r.pending, id)
	}
	r.mu.Unlock()
	if droppedBytes > 0 {
		pendingBlockBytes.Add(-int64(droppedBytes))
	}
	if dropped > 0 {
		pendingBlockReclaimed.Add(uint64(dropped))
	}
	return dropped
}
