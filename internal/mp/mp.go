// Package mp is a message-passing runtime in the style of MPI: a fixed
// set of ranks exchanging tagged point-to-point messages, plus the
// collective operations (barrier, broadcast, gather, scatter, lend,
// allgather) that PARDIS's argument transfer relies on.
//
// The original PARDIS evaluation used MPICH 1.0.12 compiled for shared
// memory as the run-time system underlying both client and server; mp
// plays that role here, with ranks mapped to goroutines in one address
// space. The PARDIS ORB never calls mp directly — it goes through the
// generic run-time-system interface in package rts, exactly as the
// paper's ORB goes through its RTS interface (figure 1).
//
// Sends are eager: they copy the payload into the receiver's mailbox
// and return immediately (MPI buffered mode). A collective builds no
// message: it is one shared-memory round, in which every rank writes
// its contribution into its slot of the world's round buffer and the
// last rank to arrive checks the round, makes the copies that read
// another rank's memory and wakes the others, which read their results
// from the slots. Nothing is relayed through a root.
package mp

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
)

// Wildcards for Recv matching.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any user tag.
	AnyTag = -1
)

// tagPut is the internal tag of window puts; user tags must be >= 0.
const tagPut = -2

// Errors returned by world operations.
var (
	ErrClosed  = errors.New("mp: world closed")
	ErrBadRank = errors.New("mp: rank out of range")
	ErrBadTag  = errors.New("mp: user tags must be >= 0")
)

// message is one in-flight point-to-point message: a Send's byte
// payload, or a window put's float64 block.
type message struct {
	src, tag int
	b        []byte
	f        []float64
	// off is the destination element offset of a window put (tagPut
	// messages only).
	off int
}

// mailbox holds unmatched messages destined for one rank.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	msgs   []*message
	closed bool
}

// kind names a collective. A round whose ranks entered different
// collectives, or named different roots, fails on every rank instead
// of pairing them.
type kind string

const (
	kindBarrier   kind = "Barrier"
	kindBcast     kind = "Bcast"
	kindGatherV   kind = "GatherV"
	kindLendV     kind = "LendV"
	kindScatterV  kind = "ScatterV"
	kindAllgather kind = "AllgatherU64"
)

// slot is one rank's contribution to a round and, once the round
// completes, its result.
type slot struct {
	kind kind
	root int
	// word is AllgatherU64's value.
	word uint64
	// b is root's Bcast payload, and a receiver's copy of it.
	b []byte
	// f is the rank's block (GatherV, LendV) or root's data (ScatterV);
	// after a GatherV root's f is the gathered vector, after a ScatterV
	// every rank's f is its block.
	f      []float64
	counts []int
	// err is the rank's own argument error (LendV).
	err error
}

// round is one collective's rendezvous. The world holds two, used by
// alternate rounds: a rank writes its slot of round k only after round
// k-1 has completed, so every rank has finished reading round k-2, the
// buffer's previous user.
type round struct {
	slots   []slot
	arrived int
	// err is the round's verdict, set by the last rank to arrive.
	err error
}

// World is a communicator: Size ranks with a private tag space. All
// ranks must be driven by distinct goroutines; collective calls must
// be entered by every rank.
type World struct {
	size  int
	boxes []*mailbox
	procs []*Proc

	// mu guards closed and the slot writes of both rounds.
	mu     sync.Mutex
	closed bool
	rounds [2]round
	// wake[r] carries one token to rank r waiting in a round: true once
	// the round has completed, false when the world closes.
	wake []chan bool
}

// NewWorld creates a world of size ranks. Rank handles are retrieved
// with Rank and are not safe for concurrent use by multiple
// goroutines (like an MPI rank, each belongs to one thread).
func NewWorld(size int) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%w: world size %d", ErrBadRank, size)
	}
	w := &World{size: size}
	w.boxes = make([]*mailbox, size)
	w.procs = make([]*Proc, size)
	w.wake = make([]chan bool, size)
	for i := range w.boxes {
		b := &mailbox{}
		b.cond = sync.NewCond(&b.mu)
		w.boxes[i] = b
		w.procs[i] = &Proc{rank: i, w: w}
		w.wake[i] = make(chan bool, 1)
	}
	for i := range w.rounds {
		w.rounds[i].slots = make([]slot, size)
	}
	return w, nil
}

// MustWorld is NewWorld for statically valid sizes; panics on error.
func MustWorld(size int) *World {
	w, err := NewWorld(size)
	if err != nil {
		panic(err)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Rank returns the handle for rank r.
func (w *World) Rank(r int) *Proc { return w.procs[r] }

// Close aborts the world: all pending and future operations return
// ErrClosed. It is safe to call more than once.
func (w *World) Close() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		for _, c := range w.wake {
			select {
			case c <- false:
			default: // the rank's round completed; it has its token
			}
		}
	}
	w.mu.Unlock()
	for _, b := range w.boxes {
		b.mu.Lock()
		if !b.closed {
			b.closed = true
			b.msgs = nil
		}
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// Run drives fn concurrently on every rank of a fresh world and waits
// for all of them; any error aborts the world and is returned (the
// first one wins). It is the standard harness for SPMD sections.
func Run(size int, fn func(p *Proc) error) error {
	w, err := NewWorld(size)
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
	// seq counts the rounds this rank has entered; its low bit picks
	// the round buffer.
	seq uint
}

// Rank returns this handle's rank.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.w.size }

func (p *Proc) checkDst(dst int) error {
	if dst < 0 || dst >= p.w.size {
		return fmt.Errorf("%w: dst %d of %d", ErrBadRank, dst, p.w.size)
	}
	return nil
}

func (p *Proc) send(dst int, m *message) error {
	box := p.w.boxes[dst]
	box.mu.Lock()
	if box.closed {
		box.mu.Unlock()
		return ErrClosed
	}
	box.msgs = append(box.msgs, m)
	box.cond.Broadcast()
	box.mu.Unlock()
	return nil
}

// Send delivers a byte payload to rank dst with the given tag. The
// payload is copied; the caller keeps ownership of data.
func (p *Proc) Send(dst, tag int, data []byte) error {
	if err := p.checkDst(dst); err != nil {
		return err
	}
	if tag < 0 {
		return fmt.Errorf("%w: tag %d", ErrBadTag, tag)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return p.send(dst, &message{src: p.rank, tag: tag, b: cp})
}

// PutF64 deposits data into rank dst's put queue together with a
// destination element offset — the tagged-send emulation of the
// one-sided window primitive. data is aliased, never copied: the
// window discipline (no writer touches the source block between the
// put and the closing FenceF64) is what makes that safe.
func (p *Proc) PutF64(dst, off int, data []float64) error {
	if err := p.checkDst(dst); err != nil {
		return err
	}
	if off < 0 {
		return fmt.Errorf("mp: negative put offset %d", off)
	}
	return p.send(dst, &message{src: p.rank, tag: tagPut, f: data, off: off})
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
// anything but a window put. Matching is FIFO among eligible messages,
// which preserves MPI's non-overtaking guarantee per (source, tag)
// pair.
func (p *Proc) recvMatch(src, tag int) (*message, error) {
	box := p.w.boxes[p.rank]
	box.mu.Lock()
	defer box.mu.Unlock()
	for {
		if box.closed {
			return nil, ErrClosed
		}
		for i, m := range box.msgs {
			if (src == AnySource || m.src == src) && (m.tag == tag || tag == AnyTag && m.tag >= 0) {
				box.msgs = append(box.msgs[:i], box.msgs[i+1:]...)
				return m, nil
			}
		}
		box.cond.Wait()
	}
}

// Recv blocks until a byte message matching (src, tag) arrives.
func (p *Proc) Recv(src, tag int) ([]byte, Status, error) {
	m, err := p.recvMatch(src, tag)
	if err != nil {
		return nil, Status{}, err
	}
	return m.b, Status{Source: m.src, Tag: m.tag}, nil
}

// enter writes s as this rank's contribution to its next round and
// waits for the round to complete. The slot is written under the world
// mutex after the closed check: a rank woken by Close must not write
// into a buffer that a slower rank may still be reading. The last rank
// to arrive completes the round (finish) and wakes the others; the
// returned round's slots are this rank's to read until it enters its
// next round.
func (p *Proc) enter(s slot) (*round, error) {
	w := p.w
	rd := &w.rounds[p.seq&1]
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	p.seq++
	rd.slots[p.rank] = s
	if rd.arrived++; rd.arrived < w.size {
		w.mu.Unlock()
		if !<-w.wake[p.rank] {
			return nil, ErrClosed
		}
		return rd, rd.err
	}
	rd.arrived = 0
	// Every rank has left the previous round: drop its references.
	clear(w.rounds[p.seq&1].slots)
	rd.err = rd.finish()
	// No send blocks: a rank takes its token before it enters its next
	// round, and no round completes once Close has queued its tokens.
	for r, c := range w.wake {
		if r != p.rank {
			c <- true
		}
	}
	w.mu.Unlock()
	return rd, rd.err
}

// finish checks a round whose every slot is written and returns its
// verdict. It also makes the copies that read another rank's memory,
// so that no rank leaves the round while another still reads its
// data.
func (rd *round) finish() error {
	s0 := &rd.slots[0]
	for r := range rd.slots {
		if s := &rd.slots[r]; s.kind != s0.kind || s.root != s0.root {
			return fmt.Errorf("mp: collective mismatch: rank 0 entered %s with root %d, rank %d %s with root %d",
				s0.kind, s0.root, r, s.kind, s.root)
		}
	}
	root := &rd.slots[s0.root]
	switch s0.kind {
	case kindBcast:
		for r := range rd.slots {
			if r != s0.root {
				rd.slots[r].b = bytes.Clone(root.b)
			}
		}
	case kindGatherV, kindLendV:
		// Root's counts rule; the first failure in rank order wins.
		total := 0
		for r := range rd.slots {
			s := &rd.slots[r]
			if s.err != nil {
				return s.err
			}
			if len(root.counts) == len(rd.slots) && len(s.f) != root.counts[r] {
				return fmt.Errorf("mp: %s rank %d contributes %d elements, root's counts say %d",
					s0.kind, r, len(s.f), root.counts[r])
			}
			total += len(s.f)
		}
		if s0.kind == kindGatherV {
			out := make([]float64, 0, total)
			for r := range rd.slots {
				out = append(out, rd.slots[r].f...)
			}
			root.f = out
		}
	case kindScatterV:
		data := root.f
		for r, c := range root.counts {
			rd.slots[r].f = append(make([]float64, 0, c), data[:c]...)
			data = data[c:]
		}
	}
	return nil
}

// Barrier blocks until every rank has entered it: one round that
// carries nothing, and one wake per waiting rank.
func (p *Proc) Barrier() error {
	_, err := p.enter(slot{kind: kindBarrier})
	return err
}

// Bcast distributes root's byte payload to every rank; every rank
// returns the payload, root its own data and every other rank a copy.
// Root returns only once every rank has entered the broadcast.
func (p *Proc) Bcast(root int, data []byte) ([]byte, error) {
	if root < 0 || root >= p.w.size {
		return nil, fmt.Errorf("%w: root %d", ErrBadRank, root)
	}
	rd, err := p.enter(slot{kind: kindBcast, root: root, b: data})
	if err != nil {
		return nil, err
	}
	return rd.slots[p.rank].b, nil
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
	rd, err := p.enter(slot{kind: kindGatherV, root: root, f: local, counts: counts})
	if err != nil || p.rank != root {
		return nil, err
	}
	return rd.slots[root].f, nil
}

// LendV is GatherV by reference: root receives every rank's block as a
// slice aliasing that rank's local, in rank order, and no element is
// copied; other ranks return nil. Root may read and write the blocks;
// a lender must leave its block alone from the call until it has passed
// a later collective that root also enters. A rank whose arguments fail
// validation, or whose block is not root's counts[r] long, fails the
// call on every rank alike, instead of leaving the others blocked.
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
	rd, err := p.enter(slot{kind: kindLendV, root: root, f: local, counts: counts, err: bad})
	if err != nil || p.rank != root {
		return nil, err
	}
	blocks := make([][]float64, p.w.size)
	for r := range blocks {
		blocks[r] = rd.slots[r].f
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
	}
	rd, err := p.enter(slot{kind: kindScatterV, root: root, f: data, counts: counts})
	if err != nil {
		return nil, err
	}
	return rd.slots[p.rank].f, nil
}

// AllgatherU64 gathers one uint64 from every rank to every rank, in
// rank order. It is the primitive behind the identical-scalar-argument
// consistency check in SPMD invocations.
func (p *Proc) AllgatherU64(v uint64) ([]uint64, error) {
	rd, err := p.enter(slot{kind: kindAllgather, word: v})
	if err != nil {
		return nil, err
	}
	out := make([]uint64, p.w.size)
	for r := range out {
		out[r] = rd.slots[r].word
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
