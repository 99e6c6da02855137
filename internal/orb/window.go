// One-sided destination windows: the receiving half of the multi-port
// data plane. A Window is a caller-owned []float64 registered under a
// 64-bit ID, giop.BlockSinkKey(inv, arg); MsgWindowPut frames addressed
// to it are landed by the connection read loop straight off the read
// buffer into dst[DstOff:DstOff+Count] — no body allocation, no copy,
// no CDR sequence framing. A put that beats its window's registration
// is not buffered: its read loop stops reading the connection and waits
// until the window registers (the payload then lands as for any put),
// the invocation is retired (the payload is skimmed), the connection
// ends, or the wait outlasts the router's TTL (the connection is
// failed). Waiting is safe because no connection carries both a
// Request and a put (Client.PutWindow writes on put-only connections):
// nothing a waiting connection queues behind the put can be what the
// window's registration needs.
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
	"sync"
	"sync/atomic"
	"time"

	"pardis/internal/giop"
)

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

	// router is the router the window is registered with, and cancelled
	// whether Cancel has run.
	router    *blockRouter
	cancelled atomic.Bool

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

// succeeded reports whether the window completed without failing: no
// further put is due for it.
func (w *Window) succeeded() bool {
	select {
	case <-w.done:
		return w.Err() == nil
	default:
		return false
	}
}

// windowInv is the invocation a window ID belongs to: window IDs are
// giop.BlockSinkKey(inv, arg).
func windowInv(id uint64) uint64 { return id >> 8 }

// windowFor resolves a put's destination window, if registered.
func (r *blockRouter) windowFor(id uint64) (*Window, bool) {
	r.mu.Lock()
	w, ok := r.windows[id]
	r.mu.Unlock()
	return w, ok
}

// awaitWindow holds a put for window id, which is not registered, on
// the read loop of the connection it arrived on, and returns once the
// put can go: the window once it registers, nil once its invocation is
// retired (the put is then skimmed). It fails when the connection ends
// (done closes) or the wait outlasts the router's TTL. It allocates
// nothing: the wait is the router's condition variable, broadcast by
// whatever may end it.
func (r *blockRouter) awaitWindow(id uint64, done <-chan struct{}) (*Window, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	since := time.Now()
	r.waiting++
	defer func() { r.waiting-- }()
	for {
		if w, ok := r.windows[id]; ok {
			return w, nil
		}
		if _, ok := r.retired[windowInv(id)]; ok {
			return nil, nil
		}
		select {
		case <-done:
			return nil, ErrConnectionLost
		default:
		}
		if time.Since(since) >= r.ttl {
			return nil, fmt.Errorf("orb: a put waited %v for window %#x, which neither registered nor retired", r.ttl, id)
		}
		r.arrived.Wait()
	}
}

// wake ends every wait whose reason to end has come (see awaitWindow).
func (r *blockRouter) wake() {
	r.mu.Lock()
	if r.waiting > 0 {
		r.arrived.Broadcast()
	}
	r.mu.Unlock()
}

// retire declares that no window of invocation inv registers from now
// on, so a put for one is skimmed instead of waiting. The retirement
// lapses after the router's TTL, the longest any put may wait. At most
// maxRetired retirements are live: a peer that has many invocations
// refused cannot grow the table without bound.
func (r *blockRouter) retire(inv uint64) {
	r.mu.Lock()
	r.retireLocked(inv)
	r.mu.Unlock()
}

func (r *blockRouter) retireLocked(inv uint64) {
	if len(r.retired) >= maxRetired {
		return // the puts of inv wait out the bound instead
	}
	r.retired[inv] = time.Now().Add(r.ttl)
	if r.waiting > 0 {
		r.arrived.Broadcast()
	}
}

// registerWindow installs a destination window and wakes the puts
// waiting for it. expect is the total element count after which the
// window completes (a non-positive expectation completes immediately).
// It allocates the Window and its done channel, nothing else.
func (r *blockRouter) registerWindow(id uint64, dst []float64, expect int64, onPut func()) (*Window, error) {
	w := &Window{id: id, dst: dst, expect: expect, onPut: onPut, router: r, done: make(chan struct{})}
	if expect <= 0 {
		w.complete()
	}
	r.mu.Lock()
	if _, dup := r.windows[id]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("orb: duplicate window %#x", id)
	}
	r.windows[id] = w
	if r.waiting > 0 {
		r.arrived.Broadcast()
	}
	r.mu.Unlock()
	return w, nil
}

// Cancel removes the window's registration. It must be called on every
// exit path, success or failure, so windows never leak; calls after the
// first do nothing. Cancelling a window that has not completed retires
// its invocation: the puts still due for it are skimmed.
func (w *Window) Cancel() {
	if w.cancelled.Swap(true) {
		return
	}
	r := w.router
	r.mu.Lock()
	delete(r.windows, w.id)
	if !w.succeeded() {
		r.retireLocked(windowInv(w.id))
	}
	r.mu.Unlock()
}

// sweep drops the retirements that have lapsed by now and wakes the
// waiting puts, so one waiting past the TTL fails its connection.
func (r *blockRouter) sweep(now time.Time) {
	r.mu.Lock()
	for inv, until := range r.retired {
		if !now.Before(until) {
			delete(r.retired, inv)
		}
	}
	if r.waiting > 0 {
		r.arrived.Broadcast()
	}
	r.mu.Unlock()
}
