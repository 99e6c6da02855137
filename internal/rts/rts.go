// Package rts defines PARDIS's generic run-time-system interface: the
// portal through which the ORB and compiler-generated stubs interact
// with the parallel runtime underlying an SPMD application (figure 1
// of the paper). PARDIS specified one such interface, covering the
// functionality of message-passing runtimes (tested against MPI and
// Tulip), and planned a second capturing one-sided runtimes as future
// work. Thread carries one primitive of that second flavor, the put
// window. MessagePassing adapts an mp.Proc (the MPI stand-in) to it,
// emulating the window with tagged puts.
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
	// GatherDoubles gathers counts[r] float64s from each thread r to
	// root, concatenated in rank order; non-roots return nil.
	GatherDoubles(root int, local []float64, counts []int) ([]float64, error)
	// ScatterDoubles splits data at root into counts[r]-sized blocks
	// and returns each thread its block.
	ScatterDoubles(root int, data []float64, counts []int) ([]float64, error)
	// LendDoubles is GatherDoubles by reference: root receives thread
	// r's local as blocks[r], aliasing it — nothing is copied — and may
	// read and write the blocks; non-roots return nil. A lender must not
	// touch its block from the call until it has passed a later
	// collective that root also enters. A thread whose local is not
	// counts[r] long, or whose counts has the wrong shape, fails the call
	// on every thread rather than blocking the others.
	LendDoubles(root int, local []float64, counts []int) ([][]float64, error)
	// AllgatherU64 gathers one uint64 per thread to all threads, in
	// rank order. It backs the identical-scalar-argument check.
	AllgatherU64(v uint64) ([]uint64, error)
	// SendBytes delivers a tagged byte payload to thread dst within
	// the section (tags must be >= 0). The payload is copied.
	SendBytes(dst, tag int, data []byte) error
	// RecvBytes blocks until a payload matching (src, tag) arrives.
	RecvBytes(src, tag int) ([]byte, error)
	// ExposeWindow is the one-sided "put into remote window" primitive
	// of the RTS flavor PARDIS left as future work. It is collective:
	// every thread exposes its destination slice local for one epoch of
	// puts. expectFrom[src] is the number of puts thread src will direct
	// here (derived from the transfer plan); expectFrom[Rank()] is
	// ignored. The slice is aliased until Fence.
	ExposeWindow(local []float64, expectFrom []int) (Window, error)
}

// Window is one collectively exposed put epoch: between ExposeWindow
// and Fence, every thread may Put element blocks into any thread's
// exposed destination slice. Put ranges are bounds-checked against the
// destination; the caller guarantees they are disjoint (the SPMD
// transfer plan both sides computed partitions the destination index
// space). Source blocks handed to Put and the exposed destination are
// owned by the window until Fence returns: the runtime may alias both
// without copying.
type Window interface {
	// Put writes data into thread dst's exposed slice at element
	// offset off. Put to the calling thread's own rank copies
	// directly.
	Put(dst, off int, data []float64) error
	// Fence completes the epoch. Collective: it returns only when
	// every put of the epoch, from every thread, has landed.
	Fence() error
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

// GatherDoubles implements Thread.
func (m *MessagePassing) GatherDoubles(root int, local []float64, counts []int) ([]float64, error) {
	return m.proc.GatherV(root, local, counts)
}

// ScatterDoubles implements Thread.
func (m *MessagePassing) ScatterDoubles(root int, data []float64, counts []int) ([]float64, error) {
	return m.proc.ScatterV(root, data, counts)
}

// LendDoubles implements Thread.
func (m *MessagePassing) LendDoubles(root int, local []float64, counts []int) ([][]float64, error) {
	return m.proc.LendV(root, local, counts)
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

// mpWindow emulates a window with tagged puts: they ride mp's
// always-buffered put queue (aliasing the source block — the epoch
// discipline makes that race-free) and the fence drains the expected
// counts into the exposed slice.
type mpWindow struct {
	m      *MessagePassing
	local  []float64
	expect []int
}

// ExposeWindow implements Thread. There is no true remote-memory
// access between mp ranks, but the put queue still moves each block
// with exactly one copy (receiver side) and zero encodes.
func (m *MessagePassing) ExposeWindow(local []float64, expectFrom []int) (Window, error) {
	if len(expectFrom) != m.proc.Size() {
		return nil, fmt.Errorf("rts: ExposeWindow expectFrom has %d entries for %d threads",
			len(expectFrom), m.proc.Size())
	}
	return &mpWindow{m: m, local: local, expect: expectFrom}, nil
}

// Put implements Window.
func (w *mpWindow) Put(dst, off int, data []float64) error {
	if dst == w.m.proc.Rank() {
		if off < 0 || off+len(data) > len(w.local) {
			return fmt.Errorf("rts: self put [%d,%d) exceeds window of %d elements",
				off, off+len(data), len(w.local))
		}
		copy(w.local[off:], data)
		return nil
	}
	return w.m.proc.PutF64(dst, off, data)
}

// Fence implements Window.
func (w *mpWindow) Fence() error { return w.m.proc.FenceF64(w.local, w.expect) }

var _ Thread = (*MessagePassing)(nil)
