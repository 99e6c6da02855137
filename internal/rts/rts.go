// Package rts defines PARDIS's generic run-time-system interface: the
// portal through which the ORB and compiler-generated stubs interact
// with the parallel runtime underlying an SPMD application (figure 1
// of the paper). PARDIS specified one such interface, covering the
// functionality of message-passing runtimes (tested against MPI and
// Tulip), and planned a second capturing one-sided runtimes as future
// work. MessagePassing adapts an mp.Proc (the MPI stand-in) to Thread.
// Thread moves doubles only by reference: a collective hands root, or
// every thread, references to the threads' own blocks, or hands every
// thread the blocks root keeps for it, and whatever copy a transfer
// needs is the caller's, out of or into those blocks. BcastDoubles'
// payload and AllgatherU64's result are lent the same way, each valid
// until the thread's next collective.
//
// The ORB only ever sees the Thread interface, so an application built
// on the runtime can be made into an SPMD object without rewriting its
// internals — the property the paper contrasts against Nexus-style
// metacomputing, where the application must be coded against the
// metacomputing runtime itself.
package rts

import (
	"fmt"

	"pardis/internal/mp"
)

// Thread is the per-computing-thread portal into the application's
// runtime. All collective methods must be entered by every thread of
// the SPMD section, with equal root and counts arguments; threads that
// enter different collectives, or name different roots, fail it on
// every thread.
type Thread interface {
	// Rank identifies this computing thread within the SPMD section.
	Rank() int
	// Size is the number of computing threads.
	Size() int
	// Barrier blocks until all threads have entered it.
	Barrier() error
	// Bcast distributes root's byte payload to every thread. Root
	// returns once every thread has entered it.
	Bcast(root int, data []byte) ([]byte, error)
	// BcastDoubles is Bcast by reference that also hands each thread
	// its blocks by reference, the dual of LendDoubles: root passes
	// table, one block list per thread, and thread r returns table[r],
	// aliasing root's storage, beside root's payload itself. A thread
	// must not modify the payload and may read it only until it enters
	// its next collective; root leaves it unmodified until it has
	// returned from a later collective. A nil table hands out nothing.
	// Which thread may touch which block, and until which later
	// collective, is the callers' agreement.
	BcastDoubles(root int, data []byte, table [][][]float64) ([]byte, [][]float64, error)
	// LendDoubles gathers by reference: root receives thread r's
	// local, counts[r] elements long, as blocks[r], aliasing it —
	// nothing is copied — and may read and write the blocks; non-roots
	// return nil. A lender must not touch its block from the call until
	// it has passed a later collective that root also enters. A thread
	// whose local is not counts[r] long, or whose counts has the wrong
	// shape, fails the call on every thread rather than blocking the
	// others.
	LendDoubles(root int, local []float64, counts []int) ([][]float64, error)
	// AgreeLendDoubles is LendDoubles fused with an agreement on one
	// word, in one round: every thread passes word, and the call fails
	// on every thread with an *mp.Disagreement naming the lowest thread
	// whose word differs from root's, before any block is checked. Root
	// also passes val, which every thread returns. A call that lends
	// nothing passes nil local and counts on every thread.
	AgreeLendDoubles(root int, word, val uint64, local []float64, counts []int) ([][]float64, uint64, error)
	// ShareDoubles is LendDoubles with every thread as root: every
	// thread receives every thread's local, aliased, in rank order.
	// Nothing is checked or copied; which thread may read or write
	// which block, and until which later collective, is the callers'
	// agreement.
	ShareDoubles(local []float64) ([][]float64, error)
	// AllgatherU64 gathers one uint64 per thread to all threads, in
	// rank order. It backs the identical-scalar-argument check. The
	// result is the thread's own buffer, valid until the thread enters
	// its next collective; a caller that keeps the values copies them.
	AllgatherU64(v uint64) ([]uint64, error)
	// SendBytes delivers a tagged byte payload to thread dst within
	// the section (tags must be >= 0). The payload is copied.
	SendBytes(dst, tag int, data []byte) error
	// RecvBytes blocks until a payload matching (src, tag) arrives.
	RecvBytes(src, tag int) ([]byte, error)
}

// MessagePassing adapts an mp rank to the RTS interface. It is the
// flavor PARDIS shipped, corresponding to MPI/Tulip.
type MessagePassing struct {
	proc *mp.Proc
}

// NewMessagePassing wraps an mp rank.
func NewMessagePassing(p *mp.Proc) *MessagePassing {
	return &MessagePassing{proc: p}
}

// Proc exposes the underlying mp rank for application code that wants
// to use the runtime directly alongside the ORB.
func (m *MessagePassing) Proc() *mp.Proc { return m.proc }

// Rank implements Thread.
func (m *MessagePassing) Rank() int { return m.proc.Rank() }

// Size implements Thread.
func (m *MessagePassing) Size() int { return m.proc.Size() }

// Barrier implements Thread.
func (m *MessagePassing) Barrier() error { return m.proc.Barrier() }

// Bcast implements Thread.
func (m *MessagePassing) Bcast(root int, data []byte) ([]byte, error) {
	return m.proc.Bcast(root, data)
}

// BcastDoubles implements Thread.
func (m *MessagePassing) BcastDoubles(root int, data []byte, table [][][]float64) ([]byte, [][]float64, error) {
	return m.proc.BcastV(root, data, table)
}

// AgreeLendDoubles implements Thread.
func (m *MessagePassing) AgreeLendDoubles(root int, word, val uint64, local []float64, counts []int) ([][]float64, uint64, error) {
	return m.proc.AgreeLendV(root, word, val, local, counts)
}

// LendDoubles implements Thread.
func (m *MessagePassing) LendDoubles(root int, local []float64, counts []int) ([][]float64, error) {
	return m.proc.LendV(root, local, counts)
}

// ShareDoubles implements Thread.
func (m *MessagePassing) ShareDoubles(local []float64) ([][]float64, error) {
	return m.proc.ShareV(local)
}

// AllgatherU64 implements Thread.
func (m *MessagePassing) AllgatherU64(v uint64) ([]uint64, error) {
	return m.proc.AllgatherU64(v)
}

// SendBytes implements Thread.
func (m *MessagePassing) SendBytes(dst, tag int, data []byte) error {
	return m.proc.Send(dst, tag, data)
}

// RecvBytes implements Thread.
func (m *MessagePassing) RecvBytes(src, tag int) ([]byte, error) {
	b, _, err := m.proc.Recv(src, tag)
	return b, err
}

// Window is one exposed put epoch of the one-sided flavor PARDIS left
// as future work: between ExposeWindow and Fence, every thread may Put
// element blocks into any thread's exposed slice. The caller guarantees
// the puts of an epoch are disjoint (a transfer plan both sides
// computed partitions the destination index space), and a thread reads
// its own exposed slice only after Fence.
type Window struct {
	proc   *mp.Proc
	blocks [][]float64
}

// ExposeWindow is collective: every thread exposes its destination
// slice local for one epoch of puts, in one ShareDoubles round, so a
// put is a copy straight into the peer's memory. expectFrom[src] is the
// number of puts thread src directs here; only its shape is checked.
// A put has landed when Put returns, so the fence has nothing to count.
func (m *MessagePassing) ExposeWindow(local []float64, expectFrom []int) (*Window, error) {
	if len(expectFrom) != m.proc.Size() {
		return nil, fmt.Errorf("rts: ExposeWindow expectFrom has %d entries for %d threads",
			len(expectFrom), m.proc.Size())
	}
	blocks, err := m.proc.ShareV(local)
	if err != nil {
		return nil, err
	}
	return &Window{proc: m.proc, blocks: blocks}, nil
}

// Put copies data into thread dst's exposed slice at element offset
// off. The source is free again when Put returns.
func (w *Window) Put(dst, off int, data []float64) error {
	if dst < 0 || dst >= len(w.blocks) {
		return fmt.Errorf("%w: put to thread %d of %d", mp.ErrBadRank, dst, len(w.blocks))
	}
	blk := w.blocks[dst]
	if off < 0 || off+len(data) > len(blk) {
		return fmt.Errorf("rts: put [%d,%d) exceeds thread %d's window of %d elements",
			off, off+len(data), dst, len(blk))
	}
	copy(blk[off:], data)
	return nil
}

// Fence ends the epoch: a barrier, after which every put of the epoch,
// from every thread, has landed and each thread may read its slice.
func (w *Window) Fence() error { return w.proc.Barrier() }

var _ Thread = (*MessagePassing)(nil)
