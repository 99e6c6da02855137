// One-sided destination windows: the receiving half of the multi-port
// data plane. A window is one binding's destination for one argument
// on one server, kept from one invocation to the next and re-armed for
// each: MPI-RMA's fence epochs, with the invocation counter as the
// epoch. A put's 64-bit window ID is giop.BlockSinkKey(inv, arg); with
// the invocation's 32-bit counter masked off it names the window — the
// 24-bit prefix of the client ORB that issued inv (the binding) and the
// argument index — and the counter is the put's epoch. The owner arms
// the window on a caller-owned []float64 for an epoch (RegisterWindow)
// and disarms it (Window.Cancel); neither allocates once the window
// exists. MsgWindowPut frames for the armed epoch are landed by the
// connection read loop straight off the read buffer into
// dst[DstOff:DstOff+Count] — no body allocation, no copy, no CDR
// sequence framing.
//
// A put's epoch decides what becomes of it (blockRouter.find):
//   - the armed epoch: it lands;
//   - at or below a floor: it is skimmed. A window's floor is the epoch
//     it was last armed at, once disarmed; a binding's floor covers every
//     argument and is raised by Server.EndEpoch (a refused or failed
//     invocation whose windows will never be armed);
//   - below the armed epoch: it is skimmed, stale;
//   - above the armed epoch, or any floor: it waits.
//
// A waiting put is not buffered: its read loop stops reading the
// connection and waits until its epoch is armed (the payload then lands
// as for any put) or ended (the payload is skimmed), the binding's
// windows are dropped while its epoch is at or below one they armed or
// ended (Server.DropWindows: skimmed; a later epoch waits on, to land
// in the windows its arming makes afresh), the connection ends, or the
// wait outlasts the router's TTL (the connection is failed). Waiting
// is safe because no connection carries both a Request and a put
// (Client.PutWindow writes on put-only connections): nothing a waiting
// connection queues behind the put can be what arms its window. Epochs
// compare in serial-number arithmetic, so the counter's wrap neither
// skims nor strands a live binding's puts.
//
// The safety argument: every put is bounds-checked against the armed
// destination before any byte lands; the sender derives disjoint
// [DstOff, DstOff+Count) ranges from the same transfer plan both sides
// computed, so concurrent lands from multiple connections never
// overlap; completion is element-counted against the plan total, so a
// short stream can only end in a failed epoch, never a silently
// partial one; and a put counts toward the arming it was admitted in
// only, so one still landing when its epoch is disarmed never completes
// the next.
package orb

import (
	"errors"
	"fmt"
	"time"

	"pardis/internal/giop"
)

// errWindowsDropped fails an epoch armed when its binding's windows are
// dropped (Server.DropWindows).
var errWindowsDropped = errors.New("orb: the binding's windows were dropped")

// Window is one binding's destination window for one argument. Each
// arming is an epoch: it completes when the expected element count has
// landed, or fails on the first out-of-range put; Done/Err expose that
// to its owner. The owner arms it, waits and disarms it from one
// goroutine at a time; puts land from connection read goroutines
// meanwhile.
type Window struct {
	router *blockRouter
	// done receives one value per arming, when the epoch completes or
	// fails: the channel is the window's, so no arming allocates one.
	done chan struct{}

	// Guarded by router.mu.
	id     uint64 // the window ID of the epoch armed, or last armed
	epoch  uint32
	armed  bool
	gen    uint64 // counts armings: a put counts toward the one it was admitted in
	dst    []float64
	expect int64
	got    int64
	nbytes int64
	// onPut, when set, runs after each landed put (on the delivering
	// connection's read goroutine — it must be cheap and non-blocking).
	// Receivers use it as a liveness signal, e.g. lease renewal.
	onPut     func()
	err       error
	signalled bool
}

// Done receives one value once the armed epoch has completed or
// failed. Its owner receives it at most once per arming.
func (w *Window) Done() <-chan struct{} { return w.done }

// Err reports the armed epoch's failure, if any, once Done has fired.
func (w *Window) Err() error {
	w.router.mu.Lock()
	defer w.router.mu.Unlock()
	return w.err
}

// Bytes is the payload volume landed in the armed epoch so far.
func (w *Window) Bytes() int64 {
	w.router.mu.Lock()
	defer w.router.mu.Unlock()
	return w.nbytes
}

// signalLocked ends the armed epoch, failed with err when it is not nil.
func (w *Window) signalLocked(err error) {
	if w.signalled {
		return
	}
	w.signalled, w.err = true, err
	select {
	case w.done <- struct{}{}:
	default:
	}
}

// checkRange validates a put against the armed destination before any
// byte lands.
func (w *Window) checkRange(h giop.WindowPutHeader) error {
	if int64(h.DstOff)+int64(h.Count) > int64(len(w.dst)) {
		return fmt.Errorf("orb: window %#x put [%d,%d) exceeds destination of %d elements",
			w.id, h.DstOff, int64(h.DstOff)+int64(h.Count), len(w.dst))
	}
	return nil
}

// landed accounts count elements already written into the destination
// of arming gen, completing the epoch when the plan total is reached.
// A put whose epoch was disarmed while it landed counts for nothing.
func (w *Window) landed(gen uint64, count uint32) {
	r := w.router
	r.mu.Lock()
	if !w.armed || w.gen != gen {
		r.mu.Unlock()
		return
	}
	w.nbytes += int64(count) * 8
	w.got += int64(count)
	if w.got >= w.expect {
		w.signalLocked(nil)
	}
	onPut := w.onPut
	r.mu.Unlock()
	if onPut != nil {
		onPut()
	}
}

// Cancel disarms the window: it must be called on every exit path of
// an arming, success or failure. Calls after the first, until the next
// arming, do nothing. The disarmed epoch becomes the window's floor, so
// a put still due for it is skimmed.
func (w *Window) Cancel() {
	r := w.router
	r.mu.Lock()
	if w.armed {
		r.disarmLocked(w)
		if r.waiting > 0 {
			r.arrived.Broadcast()
		}
	}
	r.mu.Unlock()
}

// The parts of a window ID.
func windowClient(id uint64) uint64 { return id >> 40 }        // the issuing client's invocation prefix
func windowEpoch(id uint64) uint32  { return uint32(id >> 8) } // the invocation counter
func windowArg(id uint64) int       { return int(id & 0xFF) }  // the argument index

// before reports whether epoch a precedes b in serial-number order,
// which survives the counter's wrap.
func before(a, b uint32) bool { return int32(a-b) < 0 }

// windowSet is one binding's windows on a router.
type windowSet struct {
	// floor is the binding's floor: every epoch at or below it is over.
	floor uint32
	// dropped is set when the set leaves the router (drop, close), with
	// floor raised to the last epoch any of its windows was armed at: a
	// put that waited on it is skimmed if its epoch is at or below floor.
	dropped bool
	// args[i] holds argument i's windows: one, or more while the
	// binding's invocations overlap (InvokeAsync before an earlier
	// Wait), each armed for its own epoch.
	args [][]*Window
}

// putVerdict is what becomes of a put (blockRouter.find).
type putVerdict int

const (
	putWaits putVerdict = iota
	putLands
	putSkims
)

// find decides a put for window id, returning the window it lands in.
func (r *blockRouter) find(id uint64) (*Window, putVerdict) {
	set := r.bindings[windowClient(id)]
	if set == nil {
		return nil, putWaits
	}
	e, arg := windowEpoch(id), windowArg(id)
	var wins []*Window
	if arg < len(set.args) {
		wins = set.args[arg]
	}
	for _, w := range wins {
		if w.armed && w.epoch == e {
			return w, putLands
		}
	}
	if !before(set.floor, e) {
		return nil, putSkims
	}
	for _, w := range wins {
		if before(e, w.epoch) || (!w.armed && e == w.epoch) {
			return nil, putSkims
		}
	}
	return nil, putWaits
}

// admit returns where the put h lands: a subslice of its window's
// armed destination, with the window and the arming it belongs to.
// A nil window and error mean the payload is skimmed — its epoch is
// over, or the put is out of range, which fails the epoch. A put whose
// epoch is not armed yet waits for it (awaitWindow). It allocates
// nothing.
func (r *blockRouter) admit(h giop.WindowPutHeader, done <-chan struct{}) ([]float64, *Window, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, v := r.find(h.WindowID)
	if v == putWaits {
		var err error
		if w, v, err = r.awaitWindow(h.WindowID, done); err != nil {
			return nil, nil, 0, err
		}
	}
	if v == putSkims {
		return nil, nil, 0, nil
	}
	if err := w.checkRange(h); err != nil {
		w.signalLocked(err)
		return nil, nil, 0, nil
	}
	return w.dst[h.DstOff : int64(h.DstOff)+int64(h.Count)], w, w.gen, nil
}

// awaitWindow holds a put for window id, whose epoch is not armed, on
// the read loop of the connection it arrived on, with r.mu held, and
// returns once the put can go: land once its epoch is armed, skim once
// it is over, or once the binding's windows it waited on are dropped
// and its epoch is one they armed or ended. A put for a later epoch
// waits on across a drop: a live client's lease can lapse on a rank
// while its next invocation's puts wait there (a waiting put renews
// nothing), and that invocation's arming makes fresh windows. It fails
// when the connection ends (done closes) or the wait outlasts the
// router's TTL. The wait is the router's condition variable, broadcast
// by whatever may end it.
func (r *blockRouter) awaitWindow(id uint64, done <-chan struct{}) (*Window, putVerdict, error) {
	since := time.Now()
	r.waiting++
	defer func() { r.waiting-- }()
	var seen *windowSet
	for {
		if seen != nil && seen.dropped && !before(seen.floor, windowEpoch(id)) {
			return nil, putSkims, nil
		}
		seen = r.bindings[windowClient(id)]
		if w, v := r.find(id); v != putWaits {
			return w, v, nil
		}
		select {
		case <-done:
			return nil, putWaits, ErrConnectionLost
		default:
		}
		if time.Since(since) >= r.ttl {
			return nil, putWaits, fmt.Errorf("orb: a put waited %v for window %#x, whose epoch was neither armed nor ended", r.ttl, id)
		}
		r.arrived.Wait()
	}
}

// wake ends every wait whose reason to end has come (see awaitWindow):
// a connection's end, or the bound passing.
func (r *blockRouter) wake() {
	r.mu.Lock()
	if r.waiting > 0 {
		r.arrived.Broadcast()
	}
	r.mu.Unlock()
}

// set returns the windows of client, made with floor when it has none.
func (r *blockRouter) set(client uint64, floor uint32) *windowSet {
	set := r.bindings[client]
	if set == nil {
		set = &windowSet{floor: floor}
		r.bindings[client] = set
	}
	return set
}

// registerWindow arms the window of id's binding and argument for id's
// epoch on dst, and wakes the puts waiting for it. expect is the total
// element count after which the epoch completes (a non-positive
// expectation completes it at once). The first arming of a binding's
// argument allocates the window and its done channel; every later one
// allocates nothing.
func (r *blockRouter) registerWindow(id uint64, dst []float64, expect int64, onPut func()) (*Window, error) {
	e, arg := windowEpoch(id), windowArg(id)
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.set(windowClient(id), e-1) // what precedes a binding's first epoch is stale
	for len(set.args) <= arg {
		set.args = append(set.args, nil)
	}
	var w *Window
	for _, x := range set.args[arg] {
		if x.armed && x.epoch == e {
			return nil, fmt.Errorf("orb: duplicate window %#x", id)
		}
		if !x.armed && w == nil {
			w = x
		}
	}
	if w == nil {
		w = &Window{router: r, done: make(chan struct{}, 1)}
		set.args[arg] = append(set.args[arg], w)
	}
	select {
	case <-w.done: // the last epoch's signal, which its owner did not take
	default:
	}
	w.id, w.epoch, w.armed, w.dst, w.expect, w.onPut = id, e, true, dst, expect, onPut
	w.gen++
	w.got, w.nbytes, w.err, w.signalled = 0, 0, nil, false
	r.armed++
	if expect <= 0 {
		w.signalLocked(nil)
	}
	if r.waiting > 0 {
		r.arrived.Broadcast()
	}
	return w, nil
}

// disarmLocked disarms w, keeping its epoch as its floor and dropping
// its hold on the owner's destination.
func (r *blockRouter) disarmLocked(w *Window) {
	w.armed, w.dst, w.onPut = false, nil, nil
	r.armed--
}

// endEpoch raises the floor of inv's binding to inv's epoch: a put for
// it, or any epoch before it, is skimmed unless its window is armed.
func (r *blockRouter) endEpoch(inv uint64) {
	id := inv << 8 // the window ID of its first argument
	e := windowEpoch(id)
	r.mu.Lock()
	if set := r.set(windowClient(id), e); before(set.floor, e) {
		set.floor = e
	}
	if r.waiting > 0 {
		r.arrived.Broadcast()
	}
	r.mu.Unlock()
}

// drop removes client's windows, failing every armed epoch with err; a
// put that waited on them is skimmed if its epoch is at or below the
// last one they armed or ended.
func (r *blockRouter) drop(client uint64, err error) {
	r.mu.Lock()
	if set := r.bindings[client]; set != nil {
		r.dropLocked(client, set, err)
	}
	r.mu.Unlock()
}

// dropAll is drop for every client's windows.
func (r *blockRouter) dropAll(err error) {
	r.mu.Lock()
	for client, set := range r.bindings {
		r.dropLocked(client, set, err)
	}
	r.mu.Unlock()
}

func (r *blockRouter) dropLocked(client uint64, set *windowSet, err error) {
	delete(r.bindings, client)
	set.dropped = true
	for _, wins := range set.args {
		for _, w := range wins {
			if before(set.floor, w.epoch) {
				set.floor = w.epoch
			}
			if w.armed {
				w.signalLocked(err)
				r.disarmLocked(w)
			}
		}
	}
	if r.waiting > 0 {
		r.arrived.Broadcast()
	}
}
