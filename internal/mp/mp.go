// Package mp is a message-passing runtime in the style of MPI: a fixed
// set of ranks exchanging tagged point-to-point messages, plus the
// collective operations (barrier, broadcast, gather, scatter, reduce)
// that PARDIS's centralized argument transfer relies on.
//
// The original PARDIS evaluation used MPICH 1.0.12 compiled for shared
// memory as the run-time system underlying both client and server; mp
// plays that role here, with ranks mapped to goroutines in one address
// space. The PARDIS ORB never calls mp directly — it goes through the
// generic run-time-system interface in package rts, exactly as the
// paper's ORB goes through its RTS interface (figure 1).
//
// Send semantics are configurable per world: Eager sends copy the
// payload and return immediately (MPI buffered mode), Rendezvous sends
// block until a matching receive arrives (MPI synchronous mode — what
// MPICH does for large messages, and the behavior the paper observes:
// "the sends and receives for large data sizes are in practice
// synchronous operations").
package mp

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
)

// Wildcards for Recv matching.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// Internal tag space used by collectives; user tags must be >= 0.
const (
	tagBarrierUp = -2 - iota
	tagBarrierDown
	tagBcast
	tagGather
	tagScatter
	tagReduce
	tagAllgather
	tagPut
	tagLend
)

// SendMode selects the point-to-point send protocol.
type SendMode int

const (
	// Eager copies the payload into the receiver's mailbox and
	// returns immediately.
	Eager SendMode = iota
	// Rendezvous blocks the sender until a matching receive consumes
	// the message (synchronous send).
	Rendezvous
)

func (m SendMode) String() string {
	if m == Eager {
		return "eager"
	}
	return "rendezvous"
}

// Errors returned by world operations.
var (
	ErrClosed   = errors.New("mp: world closed")
	ErrBadRank  = errors.New("mp: rank out of range")
	ErrBadTag   = errors.New("mp: user tags must be >= 0")
	ErrTypeMism = errors.New("mp: payload type mismatch between send and receive")
)

// message is one in-flight point-to-point message. Exactly one of b/f
// is set, according to which typed send produced it.
type message struct {
	src, tag int
	b        []byte
	f        []float64
	// off is the destination element offset of a window put (tagPut
	// messages only).
	off  int
	done chan struct{} // non-nil for rendezvous sends
	// consumedFlag records that a rendezvous message was matched
	// rather than aborted; written under the mailbox lock before done
	// is closed, read by the sender only after done is closed.
	consumedFlag bool
}

// mailbox holds unmatched messages destined for one rank.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	msgs   []*message
	closed bool
}

// World is a communicator: Size ranks with a private tag space. All
// ranks must be driven by distinct goroutines; collective calls must
// be entered by every rank.
type World struct {
	size  int
	mode  SendMode
	boxes []*mailbox
	procs []*Proc
}

// Option configures a World.
type Option func(*World)

// WithSendMode selects eager or rendezvous point-to-point sends.
func WithSendMode(m SendMode) Option {
	return func(w *World) { w.mode = m }
}

// NewWorld creates a world of size ranks. Rank handles are retrieved
// with Rank and are not safe for concurrent use by multiple
// goroutines (like an MPI rank, each belongs to one thread).
func NewWorld(size int, opts ...Option) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%w: world size %d", ErrBadRank, size)
	}
	w := &World{size: size, mode: Eager}
	for _, o := range opts {
		o(w)
	}
	w.boxes = make([]*mailbox, size)
	w.procs = make([]*Proc, size)
	for i := range w.boxes {
		b := &mailbox{}
		b.cond = sync.NewCond(&b.mu)
		w.boxes[i] = b
		w.procs[i] = &Proc{rank: i, w: w}
	}
	return w, nil
}

// MustWorld is NewWorld for statically valid sizes; panics on error.
func MustWorld(size int, opts ...Option) *World {
	w, err := NewWorld(size, opts...)
	if err != nil {
		panic(err)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Mode returns the configured send mode.
func (w *World) Mode() SendMode { return w.mode }

// Rank returns the handle for rank r.
func (w *World) Rank(r int) *Proc { return w.procs[r] }

// Close aborts the world: all pending and future operations return
// ErrClosed. It is safe to call more than once.
func (w *World) Close() {
	for _, b := range w.boxes {
		b.mu.Lock()
		if !b.closed {
			b.closed = true
			// Release any rendezvous senders parked on this box.
			for _, m := range b.msgs {
				if m.done != nil {
					close(m.done)
				}
			}
			b.msgs = nil
		}
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// Run drives fn concurrently on every rank of a fresh world and waits
// for all of them; any error aborts the world and is returned (the
// first one wins). It is the standard harness for SPMD sections.
func Run(size int, fn func(p *Proc) error, opts ...Option) error {
	w, err := NewWorld(size, opts...)
	if err != nil {
		return err
	}
	defer w.Close()
	errc := make(chan error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			if e := fn(p); e != nil {
				errc <- e
				w.Close()
			}
		}(w.Rank(r))
	}
	wg.Wait()
	select {
	case e := <-errc:
		return e
	default:
		return nil
	}
}

// Status describes a received message.
type Status struct {
	Source int
	Tag    int
}

// Proc is one rank's handle into the world.
type Proc struct {
	rank int
	w    *World
}

// Rank returns this handle's rank.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.w.size }

// World returns the world this rank belongs to.
func (p *Proc) World() *World { return p.w }

func (p *Proc) checkDst(dst, tag int, user bool) error {
	if dst < 0 || dst >= p.w.size {
		return fmt.Errorf("%w: dst %d of %d", ErrBadRank, dst, p.w.size)
	}
	if user && tag < 0 {
		return fmt.Errorf("%w: tag %d", ErrBadTag, tag)
	}
	return nil
}

func (p *Proc) send(dst int, m *message) error {
	box := p.w.boxes[dst]
	if p.w.mode == Rendezvous {
		m.done = make(chan struct{})
	}
	box.mu.Lock()
	if box.closed {
		box.mu.Unlock()
		return ErrClosed
	}
	box.msgs = append(box.msgs, m)
	box.cond.Broadcast()
	box.mu.Unlock()
	if m.done != nil {
		<-m.done
		// Distinguish "consumed by receiver" from "world closed".
		box.mu.Lock()
		closed := box.closed
		box.mu.Unlock()
		if closed && !m.consumedFlag {
			return ErrClosed
		}
	}
	return nil
}

// consumedFlag records that a rendezvous message was matched rather
// than aborted; it is written under the mailbox lock before done is
// closed, and read by the sender only after done is closed.
func (m *message) markConsumed() { m.consumedFlag = true }

// Send delivers a byte payload to rank dst with the given tag. The
// payload is copied; the caller keeps ownership of data.
func (p *Proc) Send(dst, tag int, data []byte) error {
	return p.sendTagged(dst, tag, data, true)
}

func (p *Proc) sendTagged(dst, tag int, data []byte, user bool) error {
	if err := p.checkDst(dst, tag, user); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return p.send(dst, &message{src: p.rank, tag: tag, b: cp})
}

// SendF64 delivers a float64 payload to rank dst; the slice is copied.
func (p *Proc) SendF64(dst, tag int, data []float64) error {
	return p.sendF64Tagged(dst, tag, data, true)
}

func (p *Proc) sendF64Tagged(dst, tag int, data []float64, user bool) error {
	if err := p.checkDst(dst, tag, user); err != nil {
		return err
	}
	cp := make([]float64, len(data))
	copy(cp, data)
	return p.send(dst, &message{src: p.rank, tag: tag, f: cp})
}

// SendOwned delivers a byte payload without the defensive copy Send
// pays: ownership of data transfers to the runtime and then to the
// receiver, so the caller must not read or write the slice after the
// call returns. It is the ownership-transferring mode for senders that
// build a fresh buffer per message anyway — the copy Send would add is
// pure waste there.
func (p *Proc) SendOwned(dst, tag int, data []byte) error {
	if err := p.checkDst(dst, tag, true); err != nil {
		return err
	}
	return p.send(dst, &message{src: p.rank, tag: tag, b: data})
}

// SendF64Owned is SendOwned for float64 payloads.
func (p *Proc) SendF64Owned(dst, tag int, data []float64) error {
	if err := p.checkDst(dst, tag, true); err != nil {
		return err
	}
	return p.send(dst, &message{src: p.rank, tag: tag, f: data})
}

// PutF64 deposits data into rank dst's put queue together with a
// destination element offset — the tagged-send fallback of the
// one-sided window primitive. data is aliased, never copied: the
// window discipline (no writer touches the source block between the
// put and the closing FenceF64) is what makes that safe. Puts are
// always buffered regardless of the world's send mode, because a
// one-sided put does not synchronize with its target.
func (p *Proc) PutF64(dst, off int, data []float64) error {
	if err := p.checkDst(dst, 0, false); err != nil {
		return err
	}
	if off < 0 {
		return fmt.Errorf("mp: negative put offset %d", off)
	}
	box := p.w.boxes[dst]
	box.mu.Lock()
	if box.closed {
		box.mu.Unlock()
		return ErrClosed
	}
	box.msgs = append(box.msgs, &message{src: p.rank, tag: tagPut, f: data, off: off})
	box.cond.Broadcast()
	box.mu.Unlock()
	return nil
}

// FenceF64 completes a put epoch: it drains the expected puts from
// every other rank, landing each into window[off:off+len] with bounds
// checking, then barriers — so when FenceF64 returns on every rank,
// every put of the epoch has landed and a new epoch may begin.
// expectFrom[src] is the number of puts rank src directed here;
// expectFrom[p.Rank()] is ignored (self-puts are local copies above
// this layer). The closing barrier is what keeps epochs from mixing:
// no rank can start the next epoch's puts until every rank has drained
// this one.
func (p *Proc) FenceF64(window []float64, expectFrom []int) error {
	if len(expectFrom) != p.w.size {
		return fmt.Errorf("mp: FenceF64 expectFrom has %d entries for %d ranks",
			len(expectFrom), p.w.size)
	}
	remaining := 0
	for src, n := range expectFrom {
		if src != p.rank {
			remaining += n
		}
	}
	for ; remaining > 0; remaining-- {
		m, err := p.recvMatch(AnySource, tagPut)
		if err != nil {
			return err
		}
		end := m.off + len(m.f)
		if end > len(window) {
			return fmt.Errorf("mp: put [%d,%d) from rank %d exceeds window of %d elements",
				m.off, end, m.src, len(window))
		}
		copy(window[m.off:end], m.f)
	}
	return p.Barrier()
}

// recvMatch blocks until a message matching (src, tag) is available in
// this rank's mailbox and removes it. Wildcards AnySource/AnyTag match
// anything. Matching is FIFO among eligible messages, which preserves
// MPI's non-overtaking guarantee per (source, tag) pair.
func (p *Proc) recvMatch(src, tag int) (*message, error) {
	box := p.w.boxes[p.rank]
	box.mu.Lock()
	defer box.mu.Unlock()
	for {
		if box.closed {
			return nil, ErrClosed
		}
		for i, m := range box.msgs {
			if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
				box.msgs = append(box.msgs[:i], box.msgs[i+1:]...)
				if m.done != nil {
					m.markConsumed()
					close(m.done)
				}
				return m, nil
			}
		}
		box.cond.Wait()
	}
}

// Probe blocks until a message matching (src, tag) is available
// without consuming it, returning its envelope — MPI_Probe.
func (p *Proc) Probe(src, tag int) (Status, error) {
	box := p.w.boxes[p.rank]
	box.mu.Lock()
	defer box.mu.Unlock()
	for {
		if box.closed {
			return Status{}, ErrClosed
		}
		for _, m := range box.msgs {
			if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
				return Status{Source: m.src, Tag: m.tag}, nil
			}
		}
		box.cond.Wait()
	}
}

// TryRecv is a non-blocking receive: if a matching byte message is
// queued it is consumed and returned with ok=true; otherwise ok=false
// without blocking — the MPI_Iprobe+recv idiom.
func (p *Proc) TryRecv(src, tag int) (data []byte, st Status, ok bool, err error) {
	box := p.w.boxes[p.rank]
	box.mu.Lock()
	defer box.mu.Unlock()
	if box.closed {
		return nil, Status{}, false, ErrClosed
	}
	for i, m := range box.msgs {
		if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
			if m.f != nil {
				return nil, Status{}, false, fmt.Errorf("%w: float64 payload via TryRecv", ErrTypeMism)
			}
			box.msgs = append(box.msgs[:i], box.msgs[i+1:]...)
			if m.done != nil {
				m.markConsumed()
				close(m.done)
			}
			return m.b, Status{Source: m.src, Tag: m.tag}, true, nil
		}
	}
	return nil, Status{}, false, nil
}

// Recv blocks until a byte message matching (src, tag) arrives.
func (p *Proc) Recv(src, tag int) ([]byte, Status, error) {
	m, err := p.recvMatch(src, tag)
	if err != nil {
		return nil, Status{}, err
	}
	if m.f != nil {
		return nil, Status{}, fmt.Errorf("%w: received float64 payload via Recv", ErrTypeMism)
	}
	return m.b, Status{Source: m.src, Tag: m.tag}, nil
}

// RecvF64 blocks until a float64 message matching (src, tag) arrives.
func (p *Proc) RecvF64(src, tag int) ([]float64, Status, error) {
	m, err := p.recvMatch(src, tag)
	if err != nil {
		return nil, Status{}, err
	}
	if m.b != nil && m.f == nil {
		return nil, Status{}, fmt.Errorf("%w: received byte payload via RecvF64", ErrTypeMism)
	}
	return m.f, Status{Source: m.src, Tag: m.tag}, nil
}

// Barrier blocks until every rank has entered it. Implemented as a
// gather-to-0 followed by a broadcast, which is what small-way MPICH
// does on shared memory.
func (p *Proc) Barrier() error {
	if p.w.size == 1 {
		return nil
	}
	if p.rank == 0 {
		for i := 1; i < p.w.size; i++ {
			if _, _, err := p.Recv(AnySource, tagBarrierUp); err != nil {
				return err
			}
		}
		for i := 1; i < p.w.size; i++ {
			if err := p.sendTagged(i, tagBarrierDown, nil, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := p.sendTagged(0, tagBarrierUp, nil, false); err != nil {
		return err
	}
	_, _, err := p.Recv(0, tagBarrierDown)
	return err
}

// Bcast distributes root's byte payload to every rank; every rank
// returns the payload.
func (p *Proc) Bcast(root int, data []byte) ([]byte, error) {
	if root < 0 || root >= p.w.size {
		return nil, fmt.Errorf("%w: root %d", ErrBadRank, root)
	}
	if p.rank == root {
		for i := 0; i < p.w.size; i++ {
			if i == root {
				continue
			}
			if err := p.sendTagged(i, tagBcast, data, false); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	b, _, err := p.Recv(root, tagBcast)
	return b, err
}

// GatherV gathers variable-size float64 blocks to root. counts[r] is
// the number of elements rank r contributes; every rank must pass the
// same counts. At root the return value is the concatenation in rank
// order; at other ranks it is nil.
func (p *Proc) GatherV(root int, local []float64, counts []int) ([]float64, error) {
	if root < 0 || root >= p.w.size {
		return nil, fmt.Errorf("%w: root %d", ErrBadRank, root)
	}
	if len(counts) != p.w.size {
		return nil, fmt.Errorf("mp: GatherV counts has %d entries for %d ranks", len(counts), p.w.size)
	}
	if len(local) != counts[p.rank] {
		return nil, fmt.Errorf("mp: GatherV rank %d contributes %d elements, counts says %d",
			p.rank, len(local), counts[p.rank])
	}
	if p.rank != root {
		return nil, p.sendF64Tagged(root, tagGather, local, false)
	}
	total := 0
	offs := make([]int, p.w.size+1)
	for i, c := range counts {
		offs[i+1] = offs[i] + c
		total += c
	}
	out := make([]float64, total)
	copy(out[offs[root]:], local)
	for i := 0; i < p.w.size; i++ {
		if i == root {
			continue
		}
		blk, _, err := p.RecvF64(i, tagGather)
		if err != nil {
			return nil, err
		}
		if len(blk) != counts[i] {
			return nil, fmt.Errorf("mp: GatherV rank %d sent %d elements, counts says %d",
				i, len(blk), counts[i])
		}
		copy(out[offs[i]:], blk)
	}
	return out, nil
}

// LendV is GatherV by reference: root receives every rank's block as a
// slice aliasing that rank's local, in rank order, and no element is
// copied; other ranks return nil. Root may read and write the blocks;
// a lender must leave its block alone from the call until it has passed
// a later collective that root also enters. Root answers every lender
// with the collective's verdict, so a rank whose arguments fail
// validation (it sends its error text in place of its block) or whose
// block is not counts[r] long fails the call on every rank alike,
// instead of leaving the others blocked.
func (p *Proc) LendV(root int, local []float64, counts []int) ([][]float64, error) {
	if root < 0 || root >= p.w.size {
		return nil, fmt.Errorf("%w: root %d", ErrBadRank, root)
	}
	var bad error
	switch {
	case len(counts) != p.w.size:
		bad = fmt.Errorf("mp: LendV counts has %d entries for %d ranks", len(counts), p.w.size)
	case len(local) != counts[p.rank]:
		bad = fmt.Errorf("mp: LendV rank %d lends %d elements, counts says %d",
			p.rank, len(local), counts[p.rank])
	}
	if p.rank != root {
		m := &message{src: p.rank, tag: tagLend, f: local}
		if bad != nil {
			m = &message{src: p.rank, tag: tagLend, b: []byte(bad.Error())}
		}
		if err := p.send(root, m); err != nil {
			return nil, err
		}
		verdict, _, err := p.Recv(root, tagLend)
		if err != nil {
			return nil, err
		}
		if len(verdict) > 0 {
			return nil, errors.New(string(verdict))
		}
		return nil, nil
	}
	blocks := make([][]float64, p.w.size)
	blocks[root] = local
	for i := range blocks {
		if i == root {
			continue
		}
		m, err := p.recvMatch(i, tagLend)
		if err != nil {
			return nil, err
		}
		switch {
		case bad != nil:
		case m.b != nil:
			bad = errors.New(string(m.b))
		case len(m.f) != counts[i]:
			bad = fmt.Errorf("mp: LendV rank %d lent %d elements, counts says %d",
				i, len(m.f), counts[i])
		}
		blocks[i] = m.f
	}
	var verdict []byte
	if bad != nil {
		verdict = []byte(bad.Error())
	}
	for i := range blocks {
		if i == root {
			continue
		}
		if err := p.sendTagged(i, tagLend, verdict, false); err != nil {
			return nil, err
		}
	}
	if bad != nil {
		return nil, bad
	}
	return blocks, nil
}

// ScatterV splits data at root into blocks of counts[r] elements and
// delivers block r to rank r; every rank returns its block. data is
// only read at root.
func (p *Proc) ScatterV(root int, data []float64, counts []int) ([]float64, error) {
	if root < 0 || root >= p.w.size {
		return nil, fmt.Errorf("%w: root %d", ErrBadRank, root)
	}
	if len(counts) != p.w.size {
		return nil, fmt.Errorf("mp: ScatterV counts has %d entries for %d ranks", len(counts), p.w.size)
	}
	if p.rank == root {
		total := 0
		for _, c := range counts {
			total += c
		}
		if len(data) != total {
			return nil, fmt.Errorf("mp: ScatterV data has %d elements, counts sum to %d", len(data), total)
		}
		off := 0
		var mine []float64
		for i, c := range counts {
			blk := data[off : off+c]
			off += c
			if i == root {
				mine = make([]float64, c)
				copy(mine, blk)
				continue
			}
			if err := p.sendF64Tagged(i, tagScatter, blk, false); err != nil {
				return nil, err
			}
		}
		return mine, nil
	}
	blk, _, err := p.RecvF64(root, tagScatter)
	return blk, err
}

// AllgatherU64 gathers one uint64 from every rank to every rank, in
// rank order. It is the primitive behind the identical-scalar-argument
// consistency check in SPMD invocations.
func (p *Proc) AllgatherU64(v uint64) ([]uint64, error) {
	enc := make([]byte, 8)
	putU64(enc, v)
	if p.rank == 0 {
		out := make([]uint64, p.w.size)
		out[0] = v
		for i := 1; i < p.w.size; i++ {
			b, st, err := p.Recv(AnySource, tagAllgather)
			if err != nil {
				return nil, err
			}
			out[st.Source] = getU64(b)
		}
		flat := make([]byte, 8*p.w.size)
		for i, x := range out {
			putU64(flat[i*8:], x)
		}
		for i := 1; i < p.w.size; i++ {
			if err := p.sendTagged(i, tagAllgather, flat, false); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if err := p.sendTagged(0, tagAllgather, enc, false); err != nil {
		return nil, err
	}
	flat, _, err := p.Recv(0, tagAllgather)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, p.w.size)
	for i := range out {
		out[i] = getU64(flat[i*8:])
	}
	return out, nil
}

// ReduceSum reduces float64 values by summation to root; non-root
// ranks return 0.
func (p *Proc) ReduceSum(root int, v float64) (float64, error) {
	vals, err := p.AllgatherF64(v)
	if err != nil {
		return 0, err
	}
	if p.rank != root {
		return 0, nil
	}
	sum := 0.0
	for _, x := range vals {
		sum += x
	}
	return sum, nil
}

// AllgatherF64 gathers one float64 from every rank to every rank.
func (p *Proc) AllgatherF64(v float64) ([]float64, error) {
	bits, err := p.AllgatherU64(f64bits(v))
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(bits))
	for i, b := range bits {
		out[i] = f64frombits(b)
	}
	return out, nil
}

// HashBytes is the canonical digest used for cross-rank consistency
// checks of non-distributed arguments.
func HashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
