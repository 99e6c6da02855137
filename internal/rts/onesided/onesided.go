// Package onesided implements the rts.Thread interface on a one-sided
// (remote-memory-access) runtime model: each thread exposes memory
// windows, and collectives are realized by the root directly reading
// from or writing into peers' windows after a synchronization epoch.
//
// The PARDIS paper lists a one-sided RTS interface as future work ("In
// the future PARDIS will provide an alternative run-time system
// interface capturing the functionality of the more flexible one-sided
// run-time systems"); this package realizes that design point so the
// ORB can be exercised against both runtime flavors, and so the RTS
// ablation benchmark can compare them.
package onesided

import (
	"errors"
	"fmt"
	"sync"

	"pardis/internal/rts"
)

// ErrClosed is returned by operations on a closed domain.
var ErrClosed = errors.New("onesided: domain closed")

// Domain is a one-sided runtime instance shared by Size threads.
type Domain struct {
	size    int
	threads []*thread

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool

	// Cyclic barrier state.
	barrierWaiting int
	barrierPhase   uint64

	// Exposure epochs: each collective opens an epoch in which
	// every thread deposits a window (a slice it owns); once all
	// windows are exposed, the root performs direct copies and then
	// the epoch closes. Epochs are identified by a monotonically
	// increasing sequence number so consecutive collectives do not
	// interfere.
	windowsF64  map[uint64][][]float64
	windowsByte map[uint64][][]byte
	exposed     map[uint64]int
	// results written by the root for all to read before epoch close
	resultU64 map[uint64][]uint64
	doneCount map[uint64]int

	// p2p[r] is rank r's message region for emulated point-to-point
	// sends (remote PUT + notification).
	p2p [][]p2pMsg
}

// p2pMsg is one message PUT into a thread's region.
type p2pMsg struct {
	src, tag int
	data     []byte
}

// NewDomain creates a one-sided domain for size threads.
func NewDomain(size int) (*Domain, error) {
	if size <= 0 {
		return nil, fmt.Errorf("onesided: domain size %d", size)
	}
	d := &Domain{
		size:        size,
		windowsF64:  make(map[uint64][][]float64),
		windowsByte: make(map[uint64][][]byte),
		exposed:     make(map[uint64]int),
		resultU64:   make(map[uint64][]uint64),
		doneCount:   make(map[uint64]int),
	}
	d.cond = sync.NewCond(&d.mu)
	d.p2p = make([][]p2pMsg, size)
	d.threads = make([]*thread, size)
	for r := range d.threads {
		d.threads[r] = &thread{d: d, rank: r}
	}
	return d, nil
}

// MustDomain is NewDomain that panics on error.
func MustDomain(size int) *Domain {
	d, err := NewDomain(size)
	if err != nil {
		panic(err)
	}
	return d
}

// Size returns the number of threads in the domain.
func (d *Domain) Size() int { return d.size }

// Thread returns the rts.Thread handle for rank r. The handle is
// stateful (it tracks the thread's collective epoch) and must be used
// by a single goroutine.
func (d *Domain) Thread(r int) rts.Thread { return d.threads[r] }

// Close aborts the domain; blocked threads return ErrClosed.
func (d *Domain) Close() {
	d.mu.Lock()
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
}

type thread struct {
	d    *Domain
	rank int
	// seq is this thread's local count of collectives entered; all
	// threads enter collectives in the same order (SPMD discipline),
	// so it doubles as the epoch id.
	seq uint64
}

func (t *thread) Rank() int { return t.rank }
func (t *thread) Size() int { return t.d.size }

// Barrier is a classic cyclic (phase-flipping) barrier.
func (t *thread) Barrier() error {
	d := t.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	phase := d.barrierPhase
	d.barrierWaiting++
	if d.barrierWaiting == d.size {
		d.barrierWaiting = 0
		d.barrierPhase++
		d.cond.Broadcast()
		return nil
	}
	for d.barrierPhase == phase && !d.closed {
		d.cond.Wait()
	}
	if d.closed {
		return ErrClosed
	}
	return nil
}

// expose deposits this thread's windows for the current epoch and
// blocks until every thread has exposed. Returns the epoch id.
func (t *thread) expose(f64 []float64, b []byte) (uint64, error) {
	d := t.d
	epoch := t.seq
	t.seq++
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	wf, ok := d.windowsF64[epoch]
	if !ok {
		wf = make([][]float64, d.size)
		d.windowsF64[epoch] = wf
		d.windowsByte[epoch] = make([][]byte, d.size)
	}
	wf[t.rank] = f64
	d.windowsByte[epoch][t.rank] = b
	d.exposed[epoch]++
	if d.exposed[epoch] == d.size {
		d.cond.Broadcast()
	}
	for d.exposed[epoch] < d.size && !d.closed {
		d.cond.Wait()
	}
	if d.closed {
		return 0, ErrClosed
	}
	return epoch, nil
}

// finish marks this thread done with the epoch; the last thread out
// garbage-collects the epoch state.
func (d *Domain) finish(epoch uint64) {
	d.mu.Lock()
	d.doneCount[epoch]++
	if d.doneCount[epoch] == d.size {
		delete(d.windowsF64, epoch)
		delete(d.windowsByte, epoch)
		delete(d.exposed, epoch)
		delete(d.resultU64, epoch)
		delete(d.doneCount, epoch)
	}
	d.mu.Unlock()
}

func (t *thread) waitResultU64(epoch uint64) ([]uint64, error) {
	d := t.d
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.resultU64[epoch] == nil && !d.closed {
		d.cond.Wait()
	}
	if d.closed {
		return nil, ErrClosed
	}
	return d.resultU64[epoch], nil
}

// Bcast: root exposes the payload; every thread GETs it directly.
func (t *thread) Bcast(root int, data []byte) ([]byte, error) {
	if root < 0 || root >= t.d.size {
		return nil, fmt.Errorf("onesided: root %d of %d", root, t.d.size)
	}
	var win []byte
	if t.rank == root {
		win = data
	}
	epoch, err := t.expose(nil, win)
	if err != nil {
		return nil, err
	}
	defer t.d.finish(epoch)
	// Direct one-sided read from the root's window.
	t.d.mu.Lock()
	src := t.d.windowsByte[epoch][root]
	t.d.mu.Unlock()
	out := make([]byte, len(src))
	copy(out, src)
	// All threads must finish reading before the epoch closes; the
	// copy above happened under no lock on the window, which is safe
	// because windows are read-only during an epoch. Synchronize exit.
	if err := t.Barrier(); err != nil {
		return nil, err
	}
	return out, nil
}

// GatherDoubles: every thread exposes its block; the root GETs all
// blocks directly — no intermediate messages, the defining advantage
// of the one-sided flavor.
func (t *thread) GatherDoubles(root int, local []float64, counts []int) ([]float64, error) {
	if err := t.checkCollective(root, counts, len(local)); err != nil {
		return nil, err
	}
	epoch, err := t.expose(local, nil)
	if err != nil {
		return nil, err
	}
	defer t.d.finish(epoch)
	var out []float64
	if t.rank == root {
		total := 0
		for _, c := range counts {
			total += c
		}
		out = make([]float64, 0, total)
		t.d.mu.Lock()
		wins := t.d.windowsF64[epoch]
		t.d.mu.Unlock()
		for r := 0; r < t.d.size; r++ {
			out = append(out, wins[r]...)
		}
	}
	if err := t.Barrier(); err != nil {
		return nil, err
	}
	return out, nil
}

// ScatterDoubles: the root exposes the full array; every thread GETs
// its own block directly.
func (t *thread) ScatterDoubles(root int, data []float64, counts []int) ([]float64, error) {
	if err := t.checkCollective(root, counts, -1); err != nil {
		return nil, err
	}
	var win []float64
	if t.rank == root {
		total := 0
		for _, c := range counts {
			total += c
		}
		if len(data) != total {
			return nil, fmt.Errorf("onesided: scatter data %d != counts sum %d", len(data), total)
		}
		win = data
	}
	epoch, err := t.expose(win, nil)
	if err != nil {
		return nil, err
	}
	defer t.d.finish(epoch)
	t.d.mu.Lock()
	src := t.d.windowsF64[epoch][root]
	t.d.mu.Unlock()
	lo := 0
	for r := 0; r < t.rank; r++ {
		lo += counts[r]
	}
	out := make([]float64, counts[t.rank])
	copy(out, src[lo:lo+counts[t.rank]])
	if err := t.Barrier(); err != nil {
		return nil, err
	}
	return out, nil
}

// LendDoubles: every thread exposes its block and the root keeps the
// epoch's window table itself — the one-sided gather with the GET left
// out. A thread whose arguments fail validation exposes the error text
// beside its window; every thread reads all of them once the epoch is
// fully exposed, so all reach the same verdict without another round.
func (t *thread) LendDoubles(root int, local []float64, counts []int) ([][]float64, error) {
	var bad []byte
	if err := t.checkCollective(root, counts, len(local)); err != nil {
		bad = []byte(err.Error())
	}
	epoch, err := t.expose(local, bad)
	if err != nil {
		return nil, err
	}
	t.d.mu.Lock()
	wins, errs := t.d.windowsF64[epoch], t.d.windowsByte[epoch]
	t.d.mu.Unlock()
	t.d.finish(epoch)
	for _, e := range errs {
		if e != nil {
			return nil, errors.New(string(e))
		}
	}
	if t.rank != root {
		return nil, nil
	}
	return wins, nil
}

// AllgatherU64: thread 0 aggregates from exposed single-value windows
// and publishes the vector for direct reads.
func (t *thread) AllgatherU64(v uint64) ([]uint64, error) {
	win := make([]byte, 8)
	for i := 0; i < 8; i++ {
		win[i] = byte(v >> (56 - 8*i))
	}
	epoch, err := t.expose(nil, win)
	if err != nil {
		return nil, err
	}
	defer t.d.finish(epoch)
	d := t.d
	if t.rank == 0 {
		d.mu.Lock()
		wins := d.windowsByte[epoch]
		out := make([]uint64, d.size)
		for r := range out {
			var x uint64
			for i := 0; i < 8; i++ {
				x = x<<8 | uint64(wins[r][i])
			}
			out[r] = x
		}
		d.resultU64[epoch] = out
		d.cond.Broadcast()
		d.mu.Unlock()
	}
	out, err := t.waitResultU64(epoch)
	if err != nil {
		return nil, err
	}
	cp := make([]uint64, len(out))
	copy(cp, out)
	if err := t.Barrier(); err != nil {
		return nil, err
	}
	return cp, nil
}

// SendBytes emulates a point-to-point send the way one-sided runtimes
// do: a remote PUT into the destination's message region followed by a
// notification. The payload is copied.
func (t *thread) SendBytes(dst, tag int, data []byte) error {
	if dst < 0 || dst >= t.d.size {
		return fmt.Errorf("onesided: dst %d of %d", dst, t.d.size)
	}
	if tag < 0 {
		return fmt.Errorf("onesided: tag %d (must be >= 0)", tag)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	d := t.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	d.p2p[dst] = append(d.p2p[dst], p2pMsg{src: t.rank, tag: tag, data: cp})
	d.cond.Broadcast()
	return nil
}

// RecvBytes blocks until a message matching (src, tag) has been PUT
// into this thread's region. Matching is FIFO per (src, tag).
func (t *thread) RecvBytes(src, tag int) ([]byte, error) {
	d := t.d
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return nil, ErrClosed
		}
		q := d.p2p[t.rank]
		for i, m := range q {
			if m.src == src && m.tag == tag {
				d.p2p[t.rank] = append(q[:i:i], q[i+1:]...)
				return m.data, nil
			}
		}
		d.cond.Wait()
	}
}

// osWindow is one exposure epoch over the domain's window machinery —
// the true one-sided realization of rts.Window: Put is a direct
// bounds-checked copy into the destination thread's exposed slice (no
// message, no queue), and Fence is a plain barrier because every copy
// already landed synchronously.
type osWindow struct {
	t     *thread
	epoch uint64
	local []float64
}

// ExposeWindow implements rts.WindowThread: the destination slice is
// deposited in the epoch's window table and every thread blocks until
// all have exposed, after which remote puts may copy directly.
// expectFrom is validated for shape but otherwise unused — direct
// copies need no receive-side counting.
func (t *thread) ExposeWindow(local []float64, expectFrom []int) (rts.Window, error) {
	if len(expectFrom) != t.d.size {
		return nil, fmt.Errorf("onesided: ExposeWindow expectFrom has %d entries for %d threads",
			len(expectFrom), t.d.size)
	}
	epoch, err := t.expose(local, nil)
	if err != nil {
		return nil, err
	}
	return &osWindow{t: t, epoch: epoch, local: local}, nil
}

// Put implements rts.Window by remote-memory write: the destination
// window was pinned at expose time, and the SPMD transfer plan makes
// put ranges disjoint, so the copy runs outside the domain lock.
func (w *osWindow) Put(dst, off int, data []float64) error {
	d := w.t.d
	if dst < 0 || dst >= d.size {
		return fmt.Errorf("onesided: put dst %d of %d", dst, d.size)
	}
	var win []float64
	if dst == w.t.rank {
		win = w.local
	} else {
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			return ErrClosed
		}
		win = d.windowsF64[w.epoch][dst]
		d.mu.Unlock()
	}
	if off < 0 || off+len(data) > len(win) {
		return fmt.Errorf("onesided: put [%d,%d) exceeds window of %d elements on thread %d",
			off, off+len(data), len(win), dst)
	}
	copy(win[off:], data)
	return nil
}

// Fence implements rts.Window. Puts are synchronous copies, so the
// epoch completes as soon as every thread has stopped putting — a
// barrier — after which the last thread out reclaims the epoch state.
func (w *osWindow) Fence() error {
	err := w.t.Barrier()
	w.t.d.finish(w.epoch)
	return err
}

func (t *thread) checkCollective(root int, counts []int, localLen int) error {
	if root < 0 || root >= t.d.size {
		return fmt.Errorf("onesided: root %d of %d", root, t.d.size)
	}
	if len(counts) != t.d.size {
		return fmt.Errorf("onesided: counts has %d entries for %d threads", len(counts), t.d.size)
	}
	if localLen >= 0 && counts[t.rank] != localLen {
		return fmt.Errorf("onesided: rank %d exposes %d elements, counts says %d",
			t.rank, localLen, counts[t.rank])
	}
	return nil
}

var (
	_ rts.Thread       = (*thread)(nil)
	_ rts.WindowThread = (*thread)(nil)
)
