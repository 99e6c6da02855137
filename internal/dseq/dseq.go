// Package dseq implements the PARDIS distributed sequence: a
// generalization of the CORBA sequence whose elements are distributed
// over the address spaces of the computing threads of an SPMD object
// (§2.2 of the paper). A sequence has a run-time length and a
// distribution; each computing thread holds one contiguous block.
//
// As in PARDIS, all methods that move data are SPMD-style: they must
// be called collectively from every computing thread. Purely local
// accessors (LocalData, LocalLen, Len, Layout) are thread-private.
//
// The element type is double, the only one the paper evaluates and the
// only one the IDL compiler accepts: Doubles is the IDL-mapped type
// dsequence_double, and the conversion constructor (DoublesFromLocal)
// and the local access operations (LocalData/LocalLen) mirror the
// generated C++ mapping.
package dseq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"pardis/internal/dist"
	"pardis/internal/rts"
)

// Errors returned by sequence operations.
var (
	ErrBounds   = errors.New("dseq: index out of bounds")
	ErrMismatch = errors.New("dseq: local data inconsistent with layout")
)

// Doubles is one computing thread's view of a distributed sequence of
// doubles — the dsequence<double> of the paper.
type Doubles struct {
	layout dist.Layout
	rank   int
	local  []float64
	// redist is Redistribute's state, allocated on its first call: most
	// sequences (one per SPMD argument per invocation) never
	// redistribute and carry only this pointer.
	redist *redistState
}

// redistState is recycled across Redistribute calls so a steady
// redistribution pattern (e.g. alternating between two layouts in a
// solver loop) allocates no block and plans nothing: the displaced
// local block becomes the next call's destination buffer, and transfer
// plans are memoized per (src, dst) layout pair.
type redistState struct {
	scratch []float64
	plans   [2]redistPlan
	next    int
}

// redistPlan memoizes one dist.Plan result keyed by its layout pair.
type redistPlan struct {
	src, dst dist.Layout
	plan     []dist.Transfer
	ok       bool
}

// planFor returns the (read-only) transfer plan from src to dst,
// serving repeat layout pairs from a two-entry memo — enough to make
// an alternating redistribution loop plan-allocation-free.
func (r *redistState) planFor(src, dst dist.Layout) ([]dist.Transfer, error) {
	for _, p := range r.plans {
		if p.ok && p.src.Equal(src) && p.dst.Equal(dst) {
			return p.plan, nil
		}
	}
	plan, err := dist.Plan(src, dst)
	if err != nil {
		return nil, err
	}
	r.plans[r.next] = redistPlan{src: src, dst: dst, plan: plan, ok: true}
	r.next = (r.next + 1) % len(r.plans)
	return plan, nil
}

// NewDoubles allocates a distributed double sequence of the given
// global length, distributed by spec over p threads; rank identifies
// the calling thread. Every thread of the SPMD section must construct
// with equal arguments.
func NewDoubles(length int, spec dist.Spec, p, rank int) (*Doubles, error) {
	layout, err := spec.Apply(length, p)
	if err != nil {
		return nil, err
	}
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("%w: rank %d of %d", ErrBounds, rank, p)
	}
	return &Doubles{layout: layout, rank: rank, local: make([]float64, layout.Count(rank))}, nil
}

// DoublesFromLocal is the conversion constructor: it wraps an existing
// local block, and the sequence owns it from then on (a later
// Redistribute may reuse it as scratch). The block length must equal
// the thread's share under layout.
func DoublesFromLocal(layout dist.Layout, rank int, data []float64) (*Doubles, error) {
	if rank < 0 || rank >= layout.P() {
		return nil, fmt.Errorf("%w: rank %d of %d", ErrBounds, rank, layout.P())
	}
	if len(data) != layout.Count(rank) {
		return nil, fmt.Errorf("%w: local block has %d elements, layout assigns %d to rank %d",
			ErrMismatch, len(data), layout.Count(rank), rank)
	}
	return &Doubles{layout: layout, rank: rank, local: data}, nil
}

// Len returns the global length.
func (s *Doubles) Len() int { return s.layout.Len() }

// Layout returns the sequence's block layout.
func (s *Doubles) Layout() dist.Layout { return s.layout }

// Rank returns the calling thread's rank.
func (s *Doubles) Rank() int { return s.rank }

// LocalData returns the thread's local block (aliased, not copied) —
// the local_data() accessor of the PARDIS mapping.
func (s *Doubles) LocalData() []float64 { return s.local }

// LocalLen returns the number of locally owned elements.
func (s *Doubles) LocalLen() int { return len(s.local) }

// Lo returns the global index of the first local element.
func (s *Doubles) Lo() int { return s.layout.Lo(s.rank) }

// LocalIndex translates a global index into a local offset, reporting
// whether this thread owns it.
func (s *Doubles) LocalIndex(global int) (int, bool) {
	if global < s.layout.Lo(s.rank) || global >= s.layout.Hi(s.rank) {
		return 0, false
	}
	return global - s.layout.Lo(s.rank), true
}

// SetLength changes the sequence length at run time following the
// PARDIS rules: shrinking discards the data above the new length;
// growing appends zero elements owned by the thread that owned the
// last element. Every thread must call it with the same argument. It
// is a local operation (no communication): the layout change is
// deterministic. Growing a block reallocates it.
func (s *Doubles) SetLength(newLen int) error {
	nl, err := s.layout.Relength(newLen)
	if err != nil {
		return err
	}
	oldCount := s.layout.Count(s.rank)
	newCount := nl.Count(s.rank)
	switch {
	case newCount == oldCount:
		// Block unchanged.
	case newCount < oldCount:
		s.local = s.local[:newCount]
	default:
		grown := make([]float64, newCount)
		copy(grown, s.local)
		s.local = grown
	}
	s.layout = nl
	return nil
}

// At performs a location-transparent element read: the owning thread
// broadcasts the element's 8 bytes (IEEE 754 bits, big-endian) to all
// threads. It is collective — every thread of the section must call it
// with the same index — matching the paper's SPMD-style operator[]
// contract.
func (s *Doubles) At(th rts.Thread, global int) (float64, error) {
	owner, err := s.layout.Owner(global)
	if err != nil {
		return 0, err
	}
	var payload []byte
	if th.Rank() == owner {
		local, _ := s.LocalIndex(global)
		payload = binary.BigEndian.AppendUint64(nil, math.Float64bits(s.local[local]))
	}
	out, err := th.Bcast(owner, payload)
	if err != nil {
		return 0, err
	}
	if len(out) != 8 {
		return 0, fmt.Errorf("%w: element broadcast of %d bytes", ErrMismatch, len(out))
	}
	return math.Float64frombits(binary.BigEndian.Uint64(out)), nil
}

// Set performs a location-transparent element write, collectively:
// every thread must call it with the same index and value; the owner
// stores it.
func (s *Doubles) Set(th rts.Thread, global int, v float64) error {
	owner, err := s.layout.Owner(global)
	if err != nil {
		return err
	}
	if th.Rank() == owner {
		local, _ := s.LocalIndex(global)
		s.local[local] = v
	}
	// A barrier keeps the SPMD threads in lockstep so a following At
	// observes the write.
	return th.Barrier()
}

// Redistribute moves the sequence contents to a new layout with the
// same global length, according to the dist.Plan — the same
// block-intersection computation that drives multi-port argument
// transfer. It is one ShareDoubles round of the old blocks, after which
// each thread copies its new block's pieces straight out of them.
//
// There is no closing barrier: a peer may still read a thread's old
// block after that thread returns. So the old block belongs to the
// sequence from the call on (the slice LocalData returned before must
// not be written), and the sequence writes it only as the next call's
// destination, after that call's share round, which no thread enters
// before it has finished reading this call's blocks.
func (s *Doubles) Redistribute(th rts.Thread, newLayout dist.Layout) error {
	if newLayout.Len() != s.Len() {
		return fmt.Errorf("%w: redistribute to length %d, have %d",
			ErrMismatch, newLayout.Len(), s.Len())
	}
	if newLayout.P() != s.layout.P() {
		return fmt.Errorf("%w: redistribute to %d threads, have %d",
			ErrMismatch, newLayout.P(), s.layout.P())
	}
	if s.redist == nil {
		s.redist = new(redistState)
	}
	r := s.redist
	plan, err := r.planFor(s.layout, newLayout)
	if err != nil {
		return err
	}
	old, err := th.ShareDoubles(s.local)
	if err != nil {
		return err
	}
	// Every thread checks the same blocks against its layout, so a
	// block the layout disagrees with fails the call on every thread
	// instead of being read out of range.
	for t := range s.layout.P() {
		if t >= len(old) || len(old[t]) != s.layout.Count(t) {
			return fmt.Errorf("%w: thread %d's block disagrees with the layout", ErrMismatch, t)
		}
	}
	// Destination storage: the scratch block (the local slice displaced
	// by the previous call) when it is big enough. Every destination
	// element is covered by exactly one transfer, so stale contents need
	// no clearing.
	need := newLayout.Count(s.rank)
	fresh := r.scratch
	if cap(fresh) >= need {
		fresh = fresh[:need]
	} else {
		fresh = make([]float64, need)
	}
	for _, tr := range plan {
		if tr.To == s.rank {
			copy(fresh[tr.DstOff:tr.DstOff+tr.Count], old[tr.From][tr.SrcOff:])
		}
	}
	s.layout = newLayout
	r.scratch = s.local
	s.local = fresh
	return nil
}

// GatherDoubles collects the full sequence at root, concatenated in
// rank order, out of the threads' lent blocks; non-roots return nil.
func GatherDoubles(s *Doubles, th rts.Thread, root int) ([]float64, error) {
	blocks, err := th.LendDoubles(root, s.LocalData(), s.Layout().Counts())
	if err != nil {
		return nil, err
	}
	var whole []float64
	if th.Rank() == root {
		whole = make([]float64, 0, s.Len())
		for _, blk := range blocks {
			whole = append(whole, blk...)
		}
	}
	// The lend ends here: no lender touches its block before root has
	// copied it.
	return whole, th.Barrier()
}

// ScatterDoubles overwrites the sequence contents from a full array
// present at root, splitting by the sequence's layout: root shares the
// array and every thread copies its block out of it.
func ScatterDoubles(s *Doubles, th rts.Thread, root int, data []float64) error {
	if th.Rank() == root && len(data) != s.Len() {
		return fmt.Errorf("%w: scatter %d elements into sequence of %d",
			ErrMismatch, len(data), s.Len())
	}
	shared, err := th.ShareDoubles(data)
	if err != nil {
		return err
	}
	copy(s.LocalData(), shared[root][s.Lo():])
	// Root's array stays untouched until every thread has its block.
	return th.Barrier()
}
