package spmd

import (
	"errors"
	"fmt"
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

// collectiveVerdict agrees collectively on whether a per-thread setup
// phase succeeded everywhere. Each thread contributes its local error
// (nil for success); on any failure every thread returns an
// ErrPartialFailure naming the first failed rank (the failing thread
// itself additionally carries its local error detail). what describes
// the phase, e.g. "open its receive port".
func collectiveVerdict(th rts.Thread, localErr error, what string) error {
	flag := uint64(0)
	if localErr != nil {
		flag = 1
	}
	flags, err := th.AllgatherU64(flag)
	if err != nil {
		if localErr != nil {
			return localErr
		}
		return err
	}
	for r, f := range flags {
		if f == 0 {
			continue
		}
		if localErr != nil {
			return fmt.Errorf("%w: thread %d failed to %s: %w",
				ErrPartialFailure, th.Rank(), what, localErr)
		}
		return fmt.Errorf("%w: thread %d failed to %s", ErrPartialFailure, r, what)
	}
	return nil
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
	// as one sequence<double>; the gathered sequence never exists.
	Blocks [][]float64
	// Raw is the same data on the decoding side: the still-encoded
	// elements in the request's byte order, aliasing the request frame
	// (empty when the argument carried none).
	Raw []byte
}

// putCounts marshals a layout's counts as a sequence<unsigned long>.
func putCounts(e *cdr.Encoder, counts []int) {
	e.PutULong(uint32(len(counts)))
	for _, c := range counts {
		e.PutULong(uint32(c))
	}
}

// putDoubleBlocks marshals rank-ordered blocks as the one
// sequence<double> they partition.
func putDoubleBlocks(e *cdr.Encoder, blocks [][]float64) {
	n := 0
	for _, blk := range blocks {
		n += len(blk)
	}
	e.Reserve(16 + n*8) // count, alignment, elements
	e.PutULong(uint32(n))
	for _, blk := range blocks {
		e.PutDoubles(blk)
	}
}

// decodeDoubleBlocks is putDoubleBlocks' inverse: it unmarshals raw
// (the element data of one sequence<double>, at least as long as the
// blocks together) straight into the blocks that partition it.
func decodeDoubleBlocks(blocks [][]float64, raw []byte, order cdr.ByteOrder) {
	for _, blk := range blocks {
		cdr.DecodeDoubles(blk, raw[:len(blk)*8], order)
		raw = raw[len(blk)*8:]
	}
}

func (a *argWire) encode(e *cdr.Encoder) {
	e.PutOctet(byte(a.Mode))
	e.PutULong(uint32(a.Length))
	putCounts(e, a.ClientCounts)
	e.PutStringSeq(a.ClientEndpoints)
	e.PutBoolean(a.Blocks != nil)
	if a.Blocks != nil {
		putDoubleBlocks(e, a.Blocks)
	}
}

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
	if err != nil {
		return nil, err
	}
	if hasData {
		if a.Raw, err = d.DoubleSeqRaw(); err != nil {
			return nil, err
		}
	}
	return &a, nil
}

// invocationWire is the invocation body the client communicator sends
// after the request header.
type invocationWire struct {
	Method  TransferMethod
	Scalars []byte // client-order CDR encapsulation of scalar in-args
	Args    []*argWire
	// order is the byte order of the request a decoded wire came from,
	// in which its arguments' Raw element data still is.
	order cdr.ByteOrder
}

func (w *invocationWire) encode(e *cdr.Encoder) {
	e.PutOctet(byte(w.Method))
	e.PutOctetSeq(w.Scalars)
	e.PutULong(uint32(len(w.Args)))
	for _, a := range w.Args {
		a.encode(e)
	}
}

func decodeInvocationWire(d *cdr.Decoder) (*invocationWire, error) {
	w := invocationWire{order: d.Order()}
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
	if uint64(n) > uint64(d.Remaining())+1 {
		return nil, fmt.Errorf("%w: %d arguments", ErrBadCall, n)
	}
	w.Args = make([]*argWire, n)
	for i := range w.Args {
		if w.Args[i], err = decodeArgWire(d); err != nil {
			return nil, err
		}
	}
	return &w, nil
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
