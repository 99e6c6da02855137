// Package mp is a message-passing runtime in the style of MPI: a fixed
// set of ranks exchanging tagged point-to-point byte messages, plus the
// collective operations (barrier, broadcast, lend, share, allgather)
// that PARDIS's argument transfer relies on. Doubles move only by
// lending: LendV hands root every rank's block by reference, ShareV
// hands every rank every rank's block, and no element is copied inside
// the runtime; the gather or scatter "as part of marshaling" (paper
// §3.2) is the caller's copy out of, or into, the lent blocks.
//
// The original PARDIS evaluation used MPICH 1.0.12 compiled for shared
// memory as the run-time system underlying both client and server; mp
// plays that role here, with ranks mapped to goroutines in one address
// space. The PARDIS ORB never calls mp directly — it goes through the
// generic run-time-system interface in package rts, exactly as the
// paper's ORB goes through its RTS interface (figure 1).
//
// Sends are eager: they copy the payload into the receiver's mailbox
// and return immediately (MPI buffered mode), and a Recv matches its
// source and tag exactly. A collective builds no message: it is one
// shared-memory round, in which every rank writes its contribution into
// its slot of the world's round buffer and the last rank to arrive
// checks the round, copies root's broadcast payload and wakes the
// others, which read their results from the slots. Nothing is relayed
// through a root.
package mp

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
)

// Errors returned by world operations.
var (
	ErrClosed  = errors.New("mp: world closed")
	ErrBadRank = errors.New("mp: rank out of range")
	ErrBadTag  = errors.New("mp: user tags must be >= 0")
)

// message is one in-flight point-to-point message.
type message struct {
	src, tag int
	b        []byte
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
	kindLendV     kind = "LendV"
	kindShareV    kind = "ShareV"
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
	// f is the rank's lent or shared block.
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

// Send delivers a byte payload to rank dst with the given tag. The
// payload is copied; the caller keeps ownership of data.
func (p *Proc) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= p.w.size {
		return fmt.Errorf("%w: dst %d of %d", ErrBadRank, dst, p.w.size)
	}
	if tag < 0 {
		return fmt.Errorf("%w: tag %d", ErrBadTag, tag)
	}
	m := &message{src: p.rank, tag: tag, b: append([]byte{}, data...)}
	box := p.w.boxes[dst]
	box.mu.Lock()
	defer box.mu.Unlock()
	if box.closed {
		return ErrClosed
	}
	box.msgs = append(box.msgs, m)
	box.cond.Broadcast()
	return nil
}

// Recv blocks until a byte message from src with tag is in this rank's
// mailbox, and removes it. Matching is FIFO among eligible messages,
// which preserves MPI's non-overtaking guarantee per (source, tag)
// pair.
func (p *Proc) Recv(src, tag int) ([]byte, Status, error) {
	box := p.w.boxes[p.rank]
	box.mu.Lock()
	defer box.mu.Unlock()
	for {
		if box.closed {
			return nil, Status{}, ErrClosed
		}
		for i, m := range box.msgs {
			if m.src == src && m.tag == tag {
				box.msgs = append(box.msgs[:i], box.msgs[i+1:]...)
				return m.b, Status{Source: src, Tag: tag}, nil
			}
		}
		box.cond.Wait()
	}
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
// verdict. It also copies root's broadcast payload, so that no rank
// leaves the round while another still reads its data.
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
	case kindLendV:
		// Root's counts rule; the first failure in rank order wins.
		for r := range rd.slots {
			s := &rd.slots[r]
			if s.err != nil {
				return s.err
			}
			if len(root.counts) == len(rd.slots) && len(s.f) != root.counts[r] {
				return fmt.Errorf("mp: LendV rank %d lends %d elements, root's counts say %d",
					r, len(s.f), root.counts[r])
			}
		}
	}
	return nil
}

// blocks returns the round's lent or shared blocks, in rank order.
func (rd *round) blocks() [][]float64 {
	out := make([][]float64, len(rd.slots))
	for r := range out {
		out[r] = rd.slots[r].f
	}
	return out
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

// LendV gathers by reference: root receives every rank's block as a
// slice aliasing that rank's local, in rank order, and no element is
// copied; other ranks return nil. counts[r] is the length of rank r's
// block, and every rank must pass the same counts. Root may read and
// write the blocks; a lender must leave its block alone from the call
// until it has passed a later collective that root also enters. A rank
// whose arguments fail validation, or whose block is not root's
// counts[r] long, fails the call on every rank alike, instead of
// leaving the others blocked.
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
	return rd.blocks(), nil
}

// ShareV is LendV with every rank as root: every rank returns every
// rank's block as a slice aliasing that rank's local, in rank order,
// and no element is copied. The runtime checks nothing about the
// blocks; what each rank may read or write of them, and until which
// later collective, is the callers' agreement. A rank in ShareV and a
// rank in LendV fail the round on every rank.
func (p *Proc) ShareV(local []float64) ([][]float64, error) {
	rd, err := p.enter(slot{kind: kindShareV, f: local})
	if err != nil {
		return nil, err
	}
	return rd.blocks(), nil
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
