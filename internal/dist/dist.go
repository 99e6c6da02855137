// Package dist implements the data-distribution model behind PARDIS
// distributed sequences: how the elements of a sequence of global
// length L are partitioned into contiguous blocks over the P computing
// threads of an SPMD object, and how blocks held under one distribution
// map onto blocks held under another (the transfer plan that drives
// multi-port argument transfer).
//
// Two layers are provided. A Spec is the distribution as written in
// IDL or chosen by a client/server before the length is known: uniform
// BLOCK, weighted Proportions, or explicit per-thread counts. A Layout
// is a Spec applied to a concrete (length, threads) pair: the exact
// block boundaries.
package dist

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Kind enumerates the distribution families PARDIS defines.
type Kind int

const (
	// KindBlock is the uniform blockwise distribution (the PARDIS
	// BLOCK constant and the default for unspecified distributions).
	KindBlock Kind = iota
	// KindProportions distributes proportionally to integer weights,
	// the PARDIS Proportions(...) object.
	KindProportions
	// KindExplicit fixes an exact element count per thread.
	KindExplicit
)

func (k Kind) String() string {
	switch k {
	case KindBlock:
		return "BLOCK"
	case KindProportions:
		return "PROPORTIONS"
	case KindExplicit:
		return "EXPLICIT"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Errors returned by this package.
var (
	ErrBadSpec    = errors.New("dist: invalid distribution spec")
	ErrBadLayout  = errors.New("dist: invalid layout")
	ErrOutOfRange = errors.New("dist: index out of range")
)

// Spec is a distribution before it is applied to a concrete length and
// thread count. The zero value is the uniform BLOCK distribution.
type Spec struct {
	kind    Kind
	weights []int // Proportions weights or Explicit counts
}

// Block returns the uniform blockwise Spec.
func Block() Spec { return Spec{kind: KindBlock} }

// Proportions returns a Spec distributing elements in the ratio of the
// given positive weights; the number of weights fixes the thread count.
func Proportions(weights ...int) (Spec, error) {
	if len(weights) == 0 {
		return Spec{}, fmt.Errorf("%w: Proportions needs at least one weight", ErrBadSpec)
	}
	total := 0
	for i, w := range weights {
		if w <= 0 {
			return Spec{}, fmt.Errorf("%w: Proportions weight %d is %d (must be > 0)", ErrBadSpec, i, w)
		}
		total += w
	}
	if total <= 0 {
		return Spec{}, fmt.Errorf("%w: Proportions weights sum to %d", ErrBadSpec, total)
	}
	return Spec{kind: KindProportions, weights: append([]int(nil), weights...)}, nil
}

// Explicit returns a Spec assigning exactly counts[r] elements to
// thread r. Counts may be zero but not negative.
func Explicit(counts ...int) (Spec, error) {
	if len(counts) == 0 {
		return Spec{}, fmt.Errorf("%w: Explicit needs at least one count", ErrBadSpec)
	}
	for i, c := range counts {
		if c < 0 {
			return Spec{}, fmt.Errorf("%w: Explicit count %d is %d (must be >= 0)", ErrBadSpec, i, c)
		}
	}
	return Spec{kind: KindExplicit, weights: append([]int(nil), counts...)}, nil
}

// Kind reports the distribution family.
func (s Spec) Kind() Kind { return s.kind }

// Weights returns a copy of the Proportions weights or Explicit
// counts; nil for BLOCK.
func (s Spec) Weights() []int {
	if s.weights == nil {
		return nil
	}
	return append([]int(nil), s.weights...)
}

// Threads reports the thread count a Spec is pinned to, or 0 if the
// Spec applies to any thread count (BLOCK).
func (s Spec) Threads() int { return len(s.weights) }

func (s Spec) String() string {
	switch s.kind {
	case KindBlock:
		return "BLOCK"
	case KindProportions, KindExplicit:
		parts := make([]string, len(s.weights))
		for i, w := range s.weights {
			parts[i] = fmt.Sprint(w)
		}
		name := "Proportions"
		if s.kind == KindExplicit {
			name = "Explicit"
		}
		return name + "(" + strings.Join(parts, ",") + ")"
	default:
		return s.kind.String()
	}
}

// Equal reports whether two Specs denote the same distribution.
func (s Spec) Equal(t Spec) bool {
	if s.kind != t.kind || len(s.weights) != len(t.weights) {
		return false
	}
	for i := range s.weights {
		if s.weights[i] != t.weights[i] {
			return false
		}
	}
	return true
}

// Apply materializes the Spec for a sequence of length elements over p
// threads, returning the concrete Layout.
//
// BLOCK gives each of the first (length mod p) threads one extra
// element on top of length/p. Proportions allocates floor shares by
// weight and deals the remainder to the highest-remainder threads
// (ties to lower ranks), so the block sizes differ from the exact
// ratio by less than one element. Explicit requires p == len(counts)
// and sum(counts) == length.
func (s Spec) Apply(length, p int) (Layout, error) {
	if length < 0 {
		return Layout{}, fmt.Errorf("%w: negative length %d", ErrBadSpec, length)
	}
	if p <= 0 {
		return Layout{}, fmt.Errorf("%w: thread count %d (must be > 0)", ErrBadSpec, p)
	}
	if s.Threads() != 0 && s.Threads() != p {
		return Layout{}, fmt.Errorf("%w: %v is pinned to %d threads, got %d",
			ErrBadSpec, s, s.Threads(), p)
	}
	counts := make([]int, p)
	switch s.kind {
	case KindBlock:
		q, r := length/p, length%p
		for i := range counts {
			counts[i] = q
			if i < r {
				counts[i]++
			}
		}
	case KindProportions:
		total := 0
		for _, w := range s.weights {
			total += w
		}
		// Largest-remainder apportionment.
		type rem struct {
			idx  int
			frac int // remainder numerator, denominator is total
		}
		assigned := 0
		rems := make([]rem, p)
		for i, w := range s.weights {
			share := length * w
			counts[i] = share / total
			rems[i] = rem{idx: i, frac: share % total}
			assigned += counts[i]
		}
		sort.SliceStable(rems, func(a, b int) bool {
			if rems[a].frac != rems[b].frac {
				return rems[a].frac > rems[b].frac
			}
			return rems[a].idx < rems[b].idx
		})
		for i := 0; assigned < length; i++ {
			counts[rems[i%p].idx]++
			assigned++
		}
	case KindExplicit:
		sum := 0
		for i, c := range s.weights {
			counts[i] = c
			sum += c
		}
		if sum != length {
			return Layout{}, fmt.Errorf("%w: Explicit counts sum to %d, length is %d",
				ErrBadSpec, sum, length)
		}
	default:
		return Layout{}, fmt.Errorf("%w: unknown kind %v", ErrBadSpec, s.kind)
	}
	return FromCounts(counts)
}

// MustApply is Apply for statically correct arguments; it panics on
// error and is intended for tests and examples.
func (s Spec) MustApply(length, p int) Layout {
	l, err := s.Apply(length, p)
	if err != nil {
		panic(err)
	}
	return l
}

// Layout is a concrete partition of [0, Len()) into P() contiguous
// blocks, one per thread. It is immutable once constructed.
type Layout struct {
	// offs has P+1 entries; thread r owns [offs[r], offs[r+1]).
	offs []int
}

// FromCounts builds a Layout from per-thread element counts.
func FromCounts(counts []int) (Layout, error) {
	if len(counts) == 0 {
		return Layout{}, fmt.Errorf("%w: no threads", ErrBadLayout)
	}
	offs := make([]int, len(counts)+1)
	for i, c := range counts {
		if c < 0 {
			return Layout{}, fmt.Errorf("%w: negative count %d at thread %d", ErrBadLayout, c, i)
		}
		offs[i+1] = offs[i] + c
	}
	return Layout{offs: offs}, nil
}

// P returns the number of threads.
func (l Layout) P() int { return len(l.offs) - 1 }

// Len returns the global sequence length.
func (l Layout) Len() int {
	if len(l.offs) == 0 {
		return 0
	}
	return l.offs[len(l.offs)-1]
}

// Lo returns the first global index owned by thread r.
func (l Layout) Lo(r int) int { return l.offs[r] }

// Hi returns one past the last global index owned by thread r.
func (l Layout) Hi(r int) int { return l.offs[r+1] }

// Count returns the number of elements owned by thread r.
func (l Layout) Count(r int) int { return l.offs[r+1] - l.offs[r] }

// Counts returns the per-thread element counts.
func (l Layout) Counts() []int {
	out := make([]int, l.P())
	for r := range out {
		out[r] = l.Count(r)
	}
	return out
}

// Owner returns the thread owning global index i. For indices on a
// block boundary it returns the thread whose half-open block contains
// i. Threads with empty blocks never own anything.
func (l Layout) Owner(i int) (int, error) {
	if i < 0 || i >= l.Len() {
		return 0, fmt.Errorf("%w: index %d, length %d", ErrOutOfRange, i, l.Len())
	}
	// offs is sorted; find the last r with offs[r] <= i.
	r := sort.Search(len(l.offs), func(k int) bool { return l.offs[k] > i }) - 1
	// Skip backward over empty blocks that share the boundary: the
	// half-open interval containing i is the one with offs[r+1] > i.
	for l.offs[r+1] <= i {
		r++
	}
	return r, nil
}

// Equal reports whether two layouts have identical block boundaries.
func (l Layout) Equal(m Layout) bool {
	if len(l.offs) != len(m.offs) {
		return false
	}
	for i := range l.offs {
		if l.offs[i] != m.offs[i] {
			return false
		}
	}
	return true
}

func (l Layout) String() string {
	parts := make([]string, l.P())
	for r := 0; r < l.P(); r++ {
		parts[r] = fmt.Sprintf("[%d,%d)", l.Lo(r), l.Hi(r))
	}
	return "Layout{" + strings.Join(parts, " ") + "}"
}

// Validate checks internal consistency; FromCounts outputs
// always validate, so this exists for layouts decoded off the wire.
func (l Layout) Validate() error {
	if len(l.offs) < 2 {
		return fmt.Errorf("%w: too few offsets", ErrBadLayout)
	}
	if l.offs[0] != 0 {
		return fmt.Errorf("%w: first offset not 0", ErrBadLayout)
	}
	for i := 1; i < len(l.offs); i++ {
		if l.offs[i] < l.offs[i-1] {
			return fmt.Errorf("%w: offsets decrease at %d", ErrBadLayout, i)
		}
	}
	return nil
}

// Relength returns the layout for the sequence after a run-time length
// change, following the PARDIS rule: shrinking discards data above the
// new length (blocks are truncated); growing assigns all new elements
// to the thread that owned the last element of the old sequence (the
// last thread with a non-empty block, or the last thread if the
// sequence was empty).
func (l Layout) Relength(newLen int) (Layout, error) {
	if newLen < 0 {
		return Layout{}, fmt.Errorf("%w: negative length %d", ErrBadLayout, newLen)
	}
	p := l.P()
	counts := make([]int, p)
	switch {
	case newLen == l.Len():
		copy(counts, l.Counts())
	case newLen < l.Len():
		for r := 0; r < p; r++ {
			lo, hi := l.Lo(r), l.Hi(r)
			if hi > newLen {
				hi = newLen
			}
			if lo > newLen {
				lo = newLen
			}
			counts[r] = hi - lo
		}
	default:
		copy(counts, l.Counts())
		owner := p - 1
		for r := p - 1; r >= 0; r-- {
			if l.Count(r) > 0 {
				owner = r
				break
			}
		}
		counts[owner] += newLen - l.Len()
	}
	return FromCounts(counts)
}

// Transfer is one contiguous block move in a redistribution plan:
// Count elements starting at the sender's local offset SrcOff (global
// index Global) land at the receiver's local offset DstOff.
type Transfer struct {
	From   int // sending thread (rank in the source layout)
	To     int // receiving thread (rank in the destination layout)
	Global int // global index of the first element moved
	SrcOff int // offset within the sender's local block
	DstOff int // offset within the receiver's local block
	Count  int // number of elements
}

func (t Transfer) String() string {
	return fmt.Sprintf("%d->%d global=%d src+%d dst+%d n=%d",
		t.From, t.To, t.Global, t.SrcOff, t.DstOff, t.Count)
}

// Plan computes the minimal set of contiguous transfers that move a
// sequence from layout src to layout dst. Both layouts must describe
// the same global length. Transfers are emitted in (From, Global)
// order and each global element appears in exactly one transfer.
//
// This is the computation the paper describes in §3.3: "The client ...
// first calculates to which threads of the server it should send
// data." The same plan drives the real multi-port engine and the
// discrete-event performance model.
func Plan(src, dst Layout) ([]Transfer, error) {
	if src.Len() != dst.Len() {
		return nil, fmt.Errorf("%w: source length %d != destination length %d",
			ErrBadLayout, src.Len(), dst.Len())
	}
	var plan []Transfer
	j := 0 // current destination block
	for i := 0; i < src.P(); i++ {
		sLo, sHi := src.Lo(i), src.Hi(i)
		if sLo == sHi {
			continue
		}
		// Advance j past destination blocks that end at or before sLo.
		for j < dst.P() && dst.Hi(j) <= sLo {
			j++
		}
		for k := j; k < dst.P() && dst.Lo(k) < sHi; k++ {
			lo := max(sLo, dst.Lo(k))
			hi := min(sHi, dst.Hi(k))
			if lo >= hi {
				continue
			}
			plan = append(plan, Transfer{
				From:   i,
				To:     k,
				Global: lo,
				SrcOff: lo - sLo,
				DstOff: lo - dst.Lo(k),
				Count:  hi - lo,
			})
		}
	}
	return plan, nil
}

// PlanFor filters a full plan down to the transfers a single sender
// participates in.
func PlanFor(plan []Transfer, sender int) []Transfer {
	var out []Transfer
	for _, t := range plan {
		if t.From == sender {
			out = append(out, t)
		}
	}
	return out
}

// Chunk splits every transfer in plan whose Count exceeds maxCount
// into consecutive sub-transfers of at most maxCount elements, with
// Global/SrcOff/DstOff advanced accordingly, so large blocks can be
// pipelined as independently routable chunks. A maxCount <= 0 disables
// chunking; if no transfer exceeds maxCount the original slice is
// returned unchanged (and unaliased growth is avoided).
func Chunk(plan []Transfer, maxCount int) []Transfer {
	if maxCount <= 0 {
		return plan
	}
	needed := false
	for _, t := range plan {
		if t.Count > maxCount {
			needed = true
			break
		}
	}
	if !needed {
		return plan
	}
	out := make([]Transfer, 0, len(plan)+4)
	for _, t := range plan {
		for off := 0; off < t.Count; off += maxCount {
			n := min(maxCount, t.Count-off)
			out = append(out, Transfer{
				From:   t.From,
				To:     t.To,
				Global: t.Global + off,
				SrcOff: t.SrcOff + off,
				DstOff: t.DstOff + off,
				Count:  n,
			})
		}
	}
	return out
}
