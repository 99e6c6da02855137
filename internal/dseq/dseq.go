// Package dseq implements the PARDIS distributed sequence: a
// generalization of the CORBA sequence whose elements are distributed
// over the address spaces of the computing threads of an SPMD object
// (§2.2 of the paper). A sequence has an element type, a run-time
// length, and a distribution; each computing thread holds one
// contiguous block.
//
// As in PARDIS, all methods that move data are SPMD-style: they must
// be called collectively from every computing thread. Purely local
// accessors (LocalData, LocalLen, Len, Layout) are thread-private.
//
// The IDL-mapped type dsequence_double of the paper corresponds to
// Seq[float64] here; the conversion constructor (FromLocal) and the
// local access operations (LocalData/LocalLen) mirror the generated
// C++ mapping.
package dseq

import (
	"errors"
	"fmt"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/giop"
	"pardis/internal/rts"
)

// Errors returned by sequence operations.
var (
	ErrBounds   = errors.New("dseq: index out of bounds")
	ErrMismatch = errors.New("dseq: local data inconsistent with layout")
)

// Codec marshals a block of elements for transport between computing
// threads or onto the wire. Implementations must be stateless.
type Codec[T any] interface {
	// Encode appends the elements to the encoder.
	Encode(e *cdr.Encoder, v []T)
	// Decode reads exactly n elements.
	Decode(d *cdr.Decoder, n int) ([]T, error)
	// DecodeInto reads exactly len(dst) elements straight into dst
	// (no intermediate slice).
	DecodeInto(d *cdr.Decoder, dst []T) error
}

// DoubleCodec marshals float64 blocks (the dsequence<double> of the
// paper's experiments).
type DoubleCodec struct{}

// Encode implements Codec.
func (DoubleCodec) Encode(e *cdr.Encoder, v []float64) { e.PutDoubleSeq(v) }

// Decode implements Codec. The destination is sized up front from the
// declared count, so the bulk decoder fills it in one pass (a single
// memcpy when the wire order matches the host).
func (DoubleCodec) Decode(d *cdr.Decoder, n int) ([]float64, error) {
	v, err := d.DoubleSeqInto(make([]float64, 0, n))
	if err != nil {
		return nil, err
	}
	if len(v) != n {
		return nil, fmt.Errorf("dseq: decoded %d doubles, want %d", len(v), n)
	}
	return v, nil
}

// DecodeInto implements Codec. The three-index slice caps the bulk
// decoder's capacity at len(dst), so on success the elements are
// guaranteed to have been written in place.
func (DoubleCodec) DecodeInto(d *cdr.Decoder, dst []float64) error {
	v, err := d.DoubleSeqInto(dst[:0:len(dst)])
	if err != nil {
		return err
	}
	if len(v) != len(dst) {
		return fmt.Errorf("dseq: decoded %d doubles, want %d", len(v), len(dst))
	}
	return nil
}

// Seq is one computing thread's view of a distributed sequence of T.
type Seq[T any] struct {
	layout dist.Layout
	rank   int
	local  []T
	codec  Codec[T]

	// Redistribute scratch state, recycled across calls so a steady
	// redistribution pattern (e.g. alternating between two layouts in
	// a solver loop) stops allocating: the displaced local block
	// becomes the next call's destination buffer, transfer plans are
	// memoized per (src, dst) layout pair, and the send-completion
	// channel is reused.
	scratch  []T
	plans    [2]redistPlan
	nextPlan int
	sendDone chan error
}

// redistPlan memoizes one dist.Plan result keyed by its layout pair,
// along with the put-count vector the one-sided window path needs
// (expect[src] = transfers src directs at this rank, self excluded).
type redistPlan struct {
	src, dst dist.Layout
	plan     []dist.Transfer
	expect   []int
	ok       bool
}

// planFor returns the (read-only) transfer plan from s.layout to dst
// and the rank's expected-put vector, serving repeat layout pairs from
// a two-entry memo — enough to make an alternating redistribution loop
// plan-allocation-free.
func (s *Seq[T]) planFor(dst dist.Layout) ([]dist.Transfer, []int, error) {
	for _, p := range s.plans {
		if p.ok && p.src.Equal(s.layout) && p.dst.Equal(dst) {
			return p.plan, p.expect, nil
		}
	}
	plan, err := dist.Plan(s.layout, dst)
	if err != nil {
		return nil, nil, err
	}
	expect := make([]int, s.layout.P())
	for _, tr := range plan {
		if tr.To == s.rank && tr.From != s.rank {
			expect[tr.From]++
		}
	}
	s.plans[s.nextPlan] = redistPlan{src: s.layout, dst: dst, plan: plan, expect: expect, ok: true}
	s.nextPlan = (s.nextPlan + 1) % len(s.plans)
	return plan, expect, nil
}

// New allocates a distributed sequence of the given global length,
// distributed by spec over p threads; rank identifies the calling
// thread. Every thread of the SPMD section must construct with equal
// arguments.
func New[T any](codec Codec[T], length int, spec dist.Spec, p, rank int) (*Seq[T], error) {
	layout, err := spec.Apply(length, p)
	if err != nil {
		return nil, err
	}
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("%w: rank %d of %d", ErrBounds, rank, p)
	}
	return &Seq[T]{
		layout: layout,
		rank:   rank,
		local:  make([]T, layout.Count(rank)),
		codec:  codec,
	}, nil
}

// FromLocal is the conversion constructor: it wraps an existing local
// block, and the sequence owns it from then on (a later Redistribute
// may reuse it as scratch). The block length must equal the thread's
// share under layout.
func FromLocal[T any](codec Codec[T], layout dist.Layout, rank int, data []T) (*Seq[T], error) {
	if rank < 0 || rank >= layout.P() {
		return nil, fmt.Errorf("%w: rank %d of %d", ErrBounds, rank, layout.P())
	}
	if len(data) != layout.Count(rank) {
		return nil, fmt.Errorf("%w: local block has %d elements, layout assigns %d to rank %d",
			ErrMismatch, len(data), layout.Count(rank), rank)
	}
	return &Seq[T]{layout: layout, rank: rank, local: data, codec: codec}, nil
}

// Len returns the global length.
func (s *Seq[T]) Len() int { return s.layout.Len() }

// Layout returns the sequence's block layout.
func (s *Seq[T]) Layout() dist.Layout { return s.layout }

// Rank returns the calling thread's rank.
func (s *Seq[T]) Rank() int { return s.rank }

// LocalData returns the thread's local block (aliased, not copied) —
// the local_data() accessor of the PARDIS mapping.
func (s *Seq[T]) LocalData() []T { return s.local }

// LocalLen returns the number of locally owned elements.
func (s *Seq[T]) LocalLen() int { return len(s.local) }

// Lo returns the global index of the first local element.
func (s *Seq[T]) Lo() int { return s.layout.Lo(s.rank) }

// LocalIndex translates a global index into a local offset, reporting
// whether this thread owns it.
func (s *Seq[T]) LocalIndex(global int) (int, bool) {
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
func (s *Seq[T]) SetLength(newLen int) error {
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
		grown := make([]T, newCount)
		copy(grown, s.local)
		s.local = grown
	}
	s.layout = nl
	return nil
}

// At performs a location-transparent element read: the owning thread
// broadcasts the value to all threads. It is collective — every
// thread of the section must call it with the same index — matching
// the paper's SPMD-style operator[] contract.
func (s *Seq[T]) At(th rts.Thread, global int) (T, error) {
	var zero T
	owner, err := s.layout.Owner(global)
	if err != nil {
		return zero, err
	}
	var payload []byte
	if th.Rank() == owner {
		local, _ := s.LocalIndex(global)
		e := cdr.NewEncoder(cdr.BigEndian)
		s.codec.Encode(e, s.local[local:local+1])
		payload = e.Bytes()
	}
	out, err := th.Bcast(owner, payload)
	if err != nil {
		return zero, err
	}
	d := cdr.NewDecoder(cdr.BigEndian, out)
	vs, err := s.codec.Decode(d, 1)
	if err != nil {
		return zero, err
	}
	return vs[0], nil
}

// Set performs a location-transparent element write, collectively:
// every thread must call it with the same index and value; the owner
// stores it.
func (s *Seq[T]) Set(th rts.Thread, global int, v T) error {
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
// same global length, exchanging blocks point-to-point according to
// the dist.Plan — the same block-intersection computation that drives
// multi-port argument transfer. After it returns on every thread, the
// sequence has the new layout and the same global contents.
func (s *Seq[T]) Redistribute(th rts.Thread, newLayout dist.Layout) error {
	if newLayout.Len() != s.Len() {
		return fmt.Errorf("%w: redistribute to length %d, have %d",
			ErrMismatch, newLayout.Len(), s.Len())
	}
	if newLayout.P() != s.layout.P() {
		return fmt.Errorf("%w: redistribute to %d threads, have %d",
			ErrMismatch, newLayout.P(), s.layout.P())
	}
	plan, expect, err := s.planFor(newLayout)
	if err != nil {
		return err
	}
	// Destination storage: recycle the scratch block (the local slice
	// displaced by the previous redistribution) when it is big enough.
	// Every destination element is covered by exactly one transfer, so
	// stale contents need no clearing.
	need := newLayout.Count(s.rank)
	var fresh []T
	if cap(s.scratch) >= need {
		fresh = s.scratch[:need]
	} else {
		fresh = make([]T, need)
	}
	rank := th.Rank()

	// One-sided fast path for double sequences: expose the destination
	// block as a put window and land every transfer directly — no
	// encode, no payload copy, no send goroutine; the fence subsumes
	// the closing barrier.
	if src, isF64 := any(s.local).([]float64); isF64 {
		if wt, ok := rts.AsWindowThread(th); ok {
			dst := any(fresh).([]float64)
			if err := redistributeWindow(wt, plan, expect, rank, src, dst); err != nil {
				return err
			}
			s.commit(newLayout, fresh)
			return nil
		}
	}

	// Local intersection first: a straight copy, no encoding.
	for _, tr := range plan {
		if tr.From == rank && tr.To == rank {
			copy(fresh[tr.DstOff:tr.DstOff+tr.Count], s.local[tr.SrcOff:tr.SrcOff+tr.Count])
		}
	}

	// Post all sends from their own goroutine, then drain receives on
	// this one: the RTS tags every message (by its index in the global
	// plan, so concurrent blocks between the same pair stay distinct),
	// which makes the posting order deadlock-free even under a
	// rendezvous-style RTS where SendBytes blocks until the receiver
	// arrives. Payloads are encoded native-order (flag octet + block)
	// on pooled encoders — within a process both directions are then a
	// single memcpy, and the buffers recycle instead of allocating per
	// transfer.
	if s.sendDone == nil {
		s.sendDone = make(chan error, 1)
	}
	sendDone := s.sendDone
	go func() {
		for i, tr := range plan {
			if tr.From != rank || tr.To == rank {
				continue
			}
			e := giop.AcquireEncoder(cdr.NativeOrder)
			e.PutOctet(byte(cdr.NativeOrder) & 1)
			s.codec.Encode(e.Encoder, s.local[tr.SrcOff:tr.SrcOff+tr.Count])
			err := th.SendBytes(tr.To, i, e.Bytes())
			e.Release() // SendBytes copies (or fully consumes) the payload
			if err != nil {
				sendDone <- err
				return
			}
		}
		sendDone <- nil
	}()

	var recvErr error
	for i, tr := range plan {
		if tr.To != rank || tr.From == rank {
			continue
		}
		raw, err := th.RecvBytes(tr.From, i)
		if err != nil {
			recvErr = err
			break
		}
		if len(raw) < 1 {
			recvErr = fmt.Errorf("%w: empty redistribute payload", ErrMismatch)
			break
		}
		d := cdr.NewDecoderAt(cdr.ByteOrder(raw[0]&1), raw[1:], 1)
		if err := s.codec.DecodeInto(d, fresh[tr.DstOff:tr.DstOff+tr.Count]); err != nil {
			recvErr = err
			break
		}
	}
	sendErr := <-sendDone
	if recvErr != nil {
		return recvErr
	}
	if sendErr != nil {
		return sendErr
	}
	if err := th.Barrier(); err != nil {
		return err
	}
	s.commit(newLayout, fresh)
	return nil
}

// commit installs the redistributed block: the displaced local slice
// becomes the next call's scratch.
func (s *Seq[T]) commit(newLayout dist.Layout, fresh []T) {
	s.layout = newLayout
	s.scratch = s.local
	s.local = fresh
}

// redistributeWindow executes a transfer plan over the RTS one-sided
// window primitive: dst is exposed for one put epoch, every source
// block this rank owns is put straight at its destination offset
// (self-puts copy locally), and the fence completes the epoch — each
// block moves with at most one copy end to end and zero encodes.
func redistributeWindow(wt rts.WindowThread, plan []dist.Transfer, expect []int, rank int, src, dst []float64) error {
	w, err := wt.ExposeWindow(dst, expect)
	if err != nil {
		return err
	}
	for _, tr := range plan {
		if tr.From != rank {
			continue
		}
		if err := w.Put(tr.To, tr.DstOff, src[tr.SrcOff:tr.SrcOff+tr.Count]); err != nil {
			return err
		}
	}
	return w.Fence()
}

// Doubles is the dsequence<double> of the paper: a Seq[float64] with
// the double codec and direct RTS gather/scatter fast paths.
type Doubles = Seq[float64]

// NewDoubles allocates a distributed double sequence.
func NewDoubles(length int, spec dist.Spec, p, rank int) (*Doubles, error) {
	return New[float64](DoubleCodec{}, length, spec, p, rank)
}

// DoublesFromLocal wraps a local block of doubles; the sequence owns
// it from then on.
func DoublesFromLocal(layout dist.Layout, rank int, data []float64) (*Doubles, error) {
	return FromLocal[float64](DoubleCodec{}, layout, rank, data)
}

// GatherDoubles collects the full sequence at root using the RTS
// gather (the centralized method's building block); non-roots return
// nil.
func GatherDoubles(s *Doubles, th rts.Thread, root int) ([]float64, error) {
	return th.GatherDoubles(root, s.LocalData(), s.Layout().Counts())
}

// ScatterDoubles overwrites the sequence contents from a full array
// present at root, splitting by the sequence's layout.
func ScatterDoubles(s *Doubles, th rts.Thread, root int, data []float64) error {
	if th.Rank() == root && len(data) != s.Len() {
		return fmt.Errorf("%w: scatter %d elements into sequence of %d",
			ErrMismatch, len(data), s.Len())
	}
	blk, err := th.ScatterDoubles(root, data, s.Layout().Counts())
	if err != nil {
		return err
	}
	copy(s.LocalData(), blk)
	return nil
}
