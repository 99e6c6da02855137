package spmd

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/rts"
)

// TransferMethod selects how distributed arguments move between the
// client's and the server's computing threads — the two methods of §3.
type TransferMethod int

const (
	// Centralized gathers the argument to the communicator thread,
	// ships it inside the request/reply message over the single
	// communicator connection, and scatters on the far side (§3.2).
	Centralized TransferMethod = iota
	// MultiPort ships the invocation header centrally but moves the
	// argument blocks point-to-point between computing threads over
	// per-thread ports (§3.3).
	MultiPort
)

func (m TransferMethod) String() string {
	if m == Centralized {
		return "centralized"
	}
	return "multi-port"
}

// ArgMode is the IDL parameter-passing mode of a distributed argument.
type ArgMode int

// Argument modes.
const (
	// In arguments travel client → server only.
	In ArgMode = iota
	// Out arguments travel server → client only.
	Out
	// InOut arguments travel both ways.
	InOut
)

func (m ArgMode) String() string {
	switch m {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	default:
		return fmt.Sprintf("ArgMode(%d)", int(m))
	}
}

// DescribeOperation is the implicit operation every SPMD object
// answers, returning its OpSpec table so clients can plan transfers
// (the server may have fixed non-default distributions before
// registering, §2.2).
const DescribeOperation = "_pardis_describe"

// RenewOperation is the implicit lease-renewal ping: a bound client
// whose binding has gone idle sends it (Binding.Renew) to keep its
// server-side lease — and with it any rank-side state — alive. The
// communicator answers inline without engaging the collective.
const RenewOperation = "_pardis_renew"

// Errors returned by the SPMD layer.
var (
	ErrInconsistent = errors.New("spmd: computing threads disagree on invocation")
	ErrBadCall      = errors.New("spmd: malformed call specification")
	ErrRemote       = errors.New("spmd: remote invocation failed")
	ErrClosed       = errors.New("spmd: object closed")
	// ErrPartialFailure reports that a collective phase failed on a
	// subset of the computing threads; the message names the first
	// failed rank. Every thread returns it instead of some ranks
	// deadlocking in a collective the failed thread never enters.
	ErrPartialFailure = errors.New("spmd: partial failure")
)

// collectiveVerdict agrees collectively, in one allgather, on whether
// a per-thread phase succeeded everywhere. Each thread contributes its
// local error (nil for success). On any failure every thread returns
// an error: a failed thread its own, every other thread remote(r) for
// the first failed rank r. If the allgather itself fails, a failed
// thread still returns its own error and the others the allgather's.
func collectiveVerdict(th rts.Thread, local error, remote func(rank int) error) error {
	flag := uint64(0)
	if local != nil {
		flag = 1
	}
	flags, err := th.AllgatherU64(flag)
	if local != nil {
		return local
	}
	if err != nil {
		return err
	}
	for r, f := range flags {
		if f != 0 {
			return remote(r)
		}
	}
	return nil
}

// setupVerdict is collectiveVerdict for a setup phase, what describing
// it (e.g. "open its receive port"): every thread's error is an
// ErrPartialFailure naming the failed rank, the failed thread's also
// carrying its local detail.
func setupVerdict(th rts.Thread, local error, what string) error {
	if local != nil {
		local = fmt.Errorf("%w: thread %d failed to %s: %w", ErrPartialFailure, th.Rank(), what, local)
	}
	return collectiveVerdict(th, local, func(r int) error {
		return fmt.Errorf("%w: thread %d failed to %s", ErrPartialFailure, r, what)
	})
}

// argWire is the per-argument metadata the client sends in the
// invocation body.
type argWire struct {
	Mode ArgMode
	// Length is the sequence's global length.
	Length int
	// ClientCounts is the client-side layout (per client thread), so
	// the server can compute both transfer plans.
	ClientCounts []int
	// ClientEndpoints carries the client threads' listening
	// endpoints when out-data must return multi-port.
	ClientEndpoints []string
	// Blocks is the inline element data of a centralized in/inout
	// argument on the encoding side: the client threads' local blocks in
	// rank order, lent to the communicator (nil otherwise). They marshal
	// as the elements of one sequence<double>; the gathered sequence
	// never exists, and on a pooled encoder in the host's order the
	// blocks are spliced, not copied, so they must stay unmodified until
	// the request has been written.
	Blocks [][]float64
	// Inline is the number of inline elements on the decoding side. They
	// are not decoded with the metadata: the communicator lands them
	// (requestLanding).
	Inline int
}

// minArgWire is the fewest bytes an encoded argument's metadata takes:
// mode, length, two empty sequence counts and the has-data flag.
const minArgWire = 1 + 4 + 4 + 4 + 1

// putCounts marshals a layout's counts as a sequence<unsigned long>.
func putCounts(e *cdr.Encoder, counts []int) {
	e.PutULong(uint32(len(counts)))
	for _, c := range counts {
		e.PutULong(uint32(c))
	}
}

// putDoubleBlocks marshals rank-ordered blocks as the one
// sequence<double> they partition. Each block goes in by PutDoublesRef:
// spliced — written to the socket straight from the block — when e is
// a pooled encoder in the host's order, copied (and swapped) otherwise.
func putDoubleBlocks(e *cdr.Encoder, blocks [][]float64) {
	n := 0
	for _, blk := range blocks {
		n += len(blk)
	}
	e.PutULong(uint32(n))
	for _, blk := range blocks {
		e.PutDoublesRef(blk)
	}
}

// encode marshals the argument's metadata, which ends, for inline data,
// in the element count; the elements follow every argument's metadata
// (invocationWire.encode).
func (a *argWire) encode(e *cdr.Encoder) {
	e.PutOctet(byte(a.Mode))
	e.PutULong(uint32(a.Length))
	putCounts(e, a.ClientCounts)
	e.PutStringSeq(a.ClientEndpoints)
	e.PutBoolean(a.Blocks != nil)
	if a.Blocks != nil {
		n := 0
		for _, blk := range a.Blocks {
			n += len(blk)
		}
		e.PutULong(uint32(n))
	}
}

// decodeArgWire decodes one argument's metadata.
func decodeArgWire(d *cdr.Decoder) (*argWire, error) {
	var a argWire
	m, err := d.Octet()
	if err != nil {
		return nil, err
	}
	if m > byte(InOut) {
		return nil, fmt.Errorf("%w: argument mode %d", ErrBadCall, m)
	}
	a.Mode = ArgMode(m)
	n, err := d.ULong()
	if err != nil {
		return nil, err
	}
	a.Length = int(n)
	counts, err := d.ULongSeq()
	if err != nil {
		return nil, err
	}
	a.ClientCounts = make([]int, len(counts))
	for i, c := range counts {
		a.ClientCounts[i] = int(c)
	}
	if a.ClientEndpoints, err = d.StringSeq(); err != nil {
		return nil, err
	}
	hasData, err := d.Boolean()
	if err != nil || !hasData {
		return &a, err
	}
	n, err = d.ULong()
	a.Inline = int(n)
	return &a, err
}

// invocationWire is the invocation body the client communicator sends
// after the request header: the method, the scalars, every argument's
// metadata, then every argument's inline elements, in argument order,
// each argument's 8-aligned. A body with one argument is laid out as
// the argument's sequence<double> would be.
type invocationWire struct {
	Method  TransferMethod
	Scalars []byte // client-order CDR encapsulation of scalar in-args; decoded, it aliases the request frame
	Args    []*argWire
	// elems is, on the decoding side, the stream offset at which the
	// metadata ends and the inline elements start.
	elems int
}

func (w *invocationWire) encode(e *cdr.Encoder) {
	e.PutOctet(byte(w.Method))
	e.PutOctetSeq(w.Scalars)
	e.PutULong(uint32(len(w.Args)))
	for _, a := range w.Args {
		a.encode(e)
	}
	for _, a := range w.Args {
		for _, blk := range a.Blocks {
			e.PutDoublesRef(blk) // as in putDoubleBlocks
		}
	}
}

// walk lays out the inline elements as the wire does and hands read
// every block of blocks[i], argument i's lent blocks (which hold exactly
// its inline elements), with the stream offset of the block's first
// element, in argument order. It returns the stream offset past the last
// inline element. An argument whose blocks are nil — all of them, with
// blocks nil — is only measured.
func (w *invocationWire) walk(blocks [][][]float64, read func(off int, blk []float64) error) (int, error) {
	off := w.elems
	for i, a := range w.Args {
		if a.Inline == 0 {
			continue
		}
		off = (off + 7) &^ 7 // a sequence<double>'s elements are 8-aligned
		if blocks != nil {
			at := off
			for _, blk := range blocks[i] {
				if err := read(at, blk); err != nil {
					return 0, err
				}
				at += 8 * len(blk)
			}
		}
		off += 8 * a.Inline
	}
	return off, nil
}

// hasInline reports whether any argument carries inline elements.
func (w *invocationWire) hasInline() bool {
	return slices.ContainsFunc(w.Args, func(a *argWire) bool { return a.Inline > 0 })
}

// decodeInvocation decodes the metadata of the invocation body b, which
// starts at stream offset base: all of it up to the inline elements,
// which it leaves where they are.
func decodeInvocation(order cdr.ByteOrder, b []byte, base int) (*invocationWire, error) {
	d := cdr.NewDecoderAt(order, b, base)
	var w invocationWire
	m, err := d.Octet()
	if err != nil {
		return nil, err
	}
	if m > byte(MultiPort) {
		return nil, fmt.Errorf("%w: transfer method %d", ErrBadCall, m)
	}
	w.Method = TransferMethod(m)
	if w.Scalars, err = d.OctetSeq(); err != nil {
		return nil, err
	}
	n, err := d.ULong()
	if err != nil {
		return nil, err
	}
	// Refuse a count the rest of the body cannot hold before allocating
	// anything for it.
	if uint64(n)*minArgWire > uint64(d.Remaining()) {
		return nil, fmt.Errorf("%w: %d arguments", ErrBadCall, n)
	}
	w.Args = make([]*argWire, n)
	for i := range w.Args {
		if w.Args[i], err = decodeArgWire(d); err != nil {
			return nil, err
		}
	}
	w.elems = base + d.Pos()
	return &w, nil
}

// replyWire is the reply body the communicator sends after the
// ReplyHeader: the scalar results as a big-endian encapsulation, then
// the centralized out-arguments, each marshaled from the server
// threads' blocks as the one sequence<double> they partition (landed
// by Pending.LandReply).
type replyWire struct {
	// Scalars is the encapsulation's payload, encoded at stream offset 1
	// (after the byte-order flag octet).
	Scalars []byte
	// Args holds each centralized out/inout argument's blocks in rank
	// order, lent to the communicator until the reply has been written.
	Args [][][]float64
}

func (w *replyWire) encode(e *cdr.Encoder) {
	e.PutEncapsulation(cdr.BigEndian, func(ie *cdr.Encoder) {
		ie.PutOctets(w.Scalars)
	})
	e.PutULong(uint32(len(w.Args)))
	for _, blocks := range w.Args {
		putDoubleBlocks(e, blocks)
	}
}

// ArgSpec describes one distributed parameter of an operation as the
// server declares it: its mode and the distribution the server wants
// the argument delivered in (§2.2: set before registering, defaulting
// to uniform BLOCK).
type ArgSpec struct {
	Mode ArgMode
	Dist dist.Spec
}

// OpSpec describes one operation of an SPMD object's interface.
type OpSpec struct {
	// Args lists the operation's distributed parameters in order.
	Args []ArgSpec
}

// describeWire is the payload of the DescribeOperation reply.
type describeWire struct {
	Threads   int
	MultiPort bool
	Ops       map[string]*OpSpec
}

func (w *describeWire) encode(e *cdr.Encoder) {
	e.PutULong(uint32(w.Threads))
	e.PutBoolean(w.MultiPort)
	e.PutULong(uint32(len(w.Ops)))
	// Deterministic order is unnecessary for correctness but keeps
	// byte-level tests stable.
	names := make([]string, 0, len(w.Ops))
	for name := range w.Ops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		op := w.Ops[name]
		e.PutString(name)
		e.PutULong(uint32(len(op.Args)))
		for _, a := range op.Args {
			e.PutOctet(byte(a.Mode))
			e.PutOctet(byte(a.Dist.Kind()))
			putCounts(e, a.Dist.Weights())
		}
	}
}

func decodeDescribeWire(d *cdr.Decoder) (*describeWire, error) {
	var w describeWire
	n, err := d.ULong()
	if err != nil {
		return nil, err
	}
	w.Threads = int(n)
	if w.MultiPort, err = d.Boolean(); err != nil {
		return nil, err
	}
	nops, err := d.ULong()
	if err != nil {
		return nil, err
	}
	if uint64(nops) > uint64(d.Remaining())+1 {
		return nil, fmt.Errorf("%w: %d operations", ErrBadCall, nops)
	}
	w.Ops = make(map[string]*OpSpec, nops)
	for i := uint32(0); i < nops; i++ {
		name, err := d.String()
		if err != nil {
			return nil, err
		}
		nargs, err := d.ULong()
		if err != nil {
			return nil, err
		}
		if uint64(nargs) > uint64(d.Remaining())+1 {
			return nil, fmt.Errorf("%w: %d args", ErrBadCall, nargs)
		}
		op := &OpSpec{Args: make([]ArgSpec, nargs)}
		for j := range op.Args {
			m, err := d.Octet()
			if err != nil {
				return nil, err
			}
			k, err := d.Octet()
			if err != nil {
				return nil, err
			}
			u, err := d.ULongSeq()
			if err != nil {
				return nil, err
			}
			ws := make([]int, len(u))
			for x, v := range u {
				ws[x] = int(v)
			}
			spec, err := specFromWire(dist.Kind(k), ws)
			if err != nil {
				return nil, err
			}
			op.Args[j] = ArgSpec{Mode: ArgMode(m), Dist: spec}
		}
		w.Ops[name] = op
	}
	return &w, nil
}

func specFromWire(k dist.Kind, weights []int) (dist.Spec, error) {
	switch k {
	case dist.KindBlock:
		return dist.Block(), nil
	case dist.KindProportions:
		return dist.Proportions(weights...)
	case dist.KindExplicit:
		return dist.Explicit(weights...)
	default:
		return dist.Spec{}, fmt.Errorf("%w: distribution kind %d", ErrBadCall, k)
	}
}
