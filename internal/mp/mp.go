// Package mp is a message-passing runtime in the style of MPI: a fixed
// set of ranks exchanging tagged point-to-point byte messages, plus the
// collective operations (barrier, broadcast, lend, share, allgather)
// that PARDIS's argument transfer relies on. Doubles move only by
// reference: LendV hands root every rank's block, ShareV hands every
// rank every rank's block, and BcastV, its dual, hands every rank the
// blocks root keeps for it; no element is copied inside the runtime,
// and the gather or scatter "as part of marshaling" (paper §3.2) is the
// caller's copy out of, or into, the blocks. BcastV hands out root's
// payload by reference too, and AllgatherU64 returns a buffer each rank
// reuses, so neither allocates per round. AgreeLendV fuses a lend
// with an agreement on one word, so that a call's consistency check and
// its lend cost one round.
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
// checks the round, copies root's Bcast payload and wakes the others,
// which read their results from the slots. Nothing is relayed through a
// root.
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
	kindBcastV    kind = "BcastV"
	kindAgreeLend kind = "AgreeLendV"
)

// Disagreement is the error of an AgreeLendV round in which rank Rank,
// the lowest such, passed a word other than root's. Every rank of the
// round returns it.
type Disagreement struct {
	Rank int
}

func (e *Disagreement) Error() string {
	return fmt.Sprintf("mp: rank %d's word differs from root's", e.Rank)
}

// slot is one rank's contribution to a round and, once the round
// completes, its result.
type slot struct {
	kind kind
	root int
	// word is AllgatherU64's value, or the word AgreeLendV checks; val
	// is root's AgreeLendV value.
	word, val uint64
	// b is root's Bcast or BcastV payload, and a Bcast receiver's copy
	// of it.
	b []byte
	// f is the rank's lent or shared block.
	f      []float64
	counts []int
	// table is root's BcastV blocks, table[r] rank r's.
	table [][][]float64
	// err is the rank's own argument error (LendV, AgreeLendV, BcastV).
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
	// words is AllgatherU64's result, reused by every call.
	words []uint64
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
// verdict. It also copies root's Bcast payload, so that no rank leaves
// the round while another still reads its data.
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
	case kindBcastV:
		return root.err
	case kindBcast:
		for r := range rd.slots {
			if r != s0.root {
				rd.slots[r].b = bytes.Clone(root.b)
			}
		}
	case kindAgreeLend:
		// The words first: ranks that disagree may lend different shapes.
		for r := range rd.slots {
			if rd.slots[r].word != root.word {
				return &Disagreement{Rank: r}
			}
		}
		return rd.checkLend(root.counts)
	case kindLendV:
		return rd.checkLend(root.counts)
	}
	return nil
}

// checkLend checks a lend round against root's counts: the first
// failure in rank order wins. Counts of the wrong shape were failed by
// their rank; nil counts lend nothing.
func (rd *round) checkLend(counts []int) error {
	for r := range rd.slots {
		s := &rd.slots[r]
		if s.err != nil {
			return s.err
		}
		if len(counts) == len(rd.slots) && len(s.f) != counts[r] {
			return fmt.Errorf("mp: rank %d lends %d elements, root's counts say %d",
				r, len(s.f), counts[r])
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

// BcastV is Bcast by reference that also scatters by reference, the
// dual of LendV: root passes table, one block list per rank, and every
// rank returns root's data itself and table[r], aliasing root's blocks
// — nothing is copied. A rank must not modify the payload and may read
// it only until it enters its next collective; root must leave it
// unmodified until it has returned from a later round, by which time
// every rank has entered one. A nil table hands out nothing. The table
// is root's again once every rank has returned; which rank may touch
// which block, and until which later collective, is the callers'
// agreement. Root returns only once every rank has entered the round.
func (p *Proc) BcastV(root int, data []byte, table [][][]float64) ([]byte, [][]float64, error) {
	if root < 0 || root >= p.w.size {
		return nil, nil, fmt.Errorf("%w: root %d", ErrBadRank, root)
	}
	var bad error
	if p.rank == root && table != nil && len(table) != p.w.size {
		bad = fmt.Errorf("mp: BcastV table has %d entries for %d ranks", len(table), p.w.size)
	}
	rd, err := p.enter(slot{kind: kindBcastV, root: root, b: data, table: table, err: bad})
	if err != nil {
		return nil, nil, err
	}
	var mine [][]float64
	if t := rd.slots[root].table; t != nil {
		mine = t[p.rank]
	}
	return rd.slots[root].b, mine, nil
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
	rd, err := p.enter(slot{kind: kindLendV, root: root, f: local, counts: counts,
		err: p.checkLendArgs(local, counts)})
	if err != nil || p.rank != root {
		return nil, err
	}
	return rd.blocks(), nil
}

// AgreeLendV is LendV fused with an agreement on one word, in one
// round. Every rank passes word; the round fails on every rank with a
// *Disagreement naming the lowest rank whose word differs from root's,
// before any block is checked. Root also passes val, which every rank
// returns. local and counts are LendV's; a round that lends nothing
// passes nil for both on every rank. A rank in AgreeLendV and a rank in
// LendV fail the round on every rank.
func (p *Proc) AgreeLendV(root int, word, val uint64, local []float64, counts []int) ([][]float64, uint64, error) {
	if root < 0 || root >= p.w.size {
		return nil, 0, fmt.Errorf("%w: root %d", ErrBadRank, root)
	}
	var bad error
	if counts != nil {
		bad = p.checkLendArgs(local, counts)
	} else if len(local) != 0 {
		bad = fmt.Errorf("mp: AgreeLendV rank %d lends %d elements with no counts", p.rank, len(local))
	}
	rd, err := p.enter(slot{kind: kindAgreeLend, root: root, word: word, val: val,
		f: local, counts: counts, err: bad})
	if err != nil {
		return nil, 0, err
	}
	val = rd.slots[root].val
	if p.rank != root || counts == nil {
		return nil, val, nil
	}
	return rd.blocks(), val, nil
}

// checkLendArgs checks one rank's lend arguments: counts has an entry
// per rank, and local is this rank's count long.
func (p *Proc) checkLendArgs(local []float64, counts []int) error {
	switch {
	case len(counts) != p.w.size:
		return fmt.Errorf("mp: lend counts has %d entries for %d ranks", len(counts), p.w.size)
	case len(local) != counts[p.rank]:
		return fmt.Errorf("mp: rank %d lends %d elements, counts says %d",
			p.rank, len(local), counts[p.rank])
	}
	return nil
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
// consistency check in SPMD invocations. The result is this rank's own
// buffer, which its next AllgatherU64 overwrites: it is valid until
// this rank enters its next collective, and a caller that keeps the
// values longer copies them.
func (p *Proc) AllgatherU64(v uint64) ([]uint64, error) {
	rd, err := p.enter(slot{kind: kindAllgather, word: v})
	if err != nil {
		return nil, err
	}
	if p.words == nil {
		p.words = make([]uint64, p.w.size)
	}
	for r := range p.words {
		p.words[r] = rd.slots[r].word
	}
	return p.words, nil
}

// HashBytes is the canonical digest used for cross-rank consistency
// checks of non-distributed arguments.
func HashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
