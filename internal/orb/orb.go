// Package orb implements the PARDIS Object Request Broker core: the
// client-side invocation engine (connection caching, request/reply
// matching, cancellation, locate queries) and the server-side object
// adapter (endpoint listeners, request dispatch, reply writing), plus
// the routing of multi-port block-transfer messages that distinguishes
// PARDIS from a conventional ORB.
//
// The ORB is deliberately mechanism-only: argument marshaling lives in
// compiler-generated stubs (package idlgen) and the SPMD collective
// logic lives in package spmd. Both sides of an SPMD object — client
// threads and server threads — each hold a Client and/or Server from
// this package.
package orb

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/telemetry"
)

// Errors returned by ORB operations.
var (
	ErrClosed         = errors.New("orb: closed")
	ErrCanceled       = errors.New("orb: request canceled")
	ErrConnectionLost = errors.New("orb: connection lost")
	ErrTooManyBlocks  = errors.New("orb: too many unmatched block transfers buffered")
	// ErrPendingBlockBytes means the byte budget for unmatched block
	// transfers is exhausted: a peer pushed more early-block payload
	// than the router is willing to buffer before a sink registers.
	ErrPendingBlockBytes = errors.New("orb: unmatched block-transfer byte budget exceeded")
	// ErrDeadlineExpired wraps a TIMEOUT system exception: the server
	// shed the request because its propagated deadline had already
	// passed. Retrying cannot help — the caller's budget is gone — so
	// the retry layer returns it immediately instead of failing over.
	ErrDeadlineExpired = errors.New("orb: request deadline expired at server")
	// ErrServerClosed means the server announced an orderly shutdown
	// (MsgCloseConnection): it processed nothing further on this
	// connection, so pending invocations are always safe to re-issue
	// at another endpoint.
	ErrServerClosed = errors.New("orb: server closed connection")
	// ErrUnreachable marks dial-stage failures: the request never
	// left this process, so retrying elsewhere is always safe.
	ErrUnreachable = errors.New("orb: endpoint unreachable")
	// ErrTransient wraps a TRANSIENT system exception: the server
	// explicitly asked the client to retry (e.g. it is draining).
	ErrTransient = errors.New("orb: transient server condition")
	// ErrForwardCycle reports a LOCATION_FORWARD loop (an endpoint
	// forwarded back to a location already visited).
	ErrForwardCycle = errors.New("orb: location forward cycle")
)

// Block is one received block-transfer message: a slice of a
// distributed argument in flight between a client thread and a server
// thread.
type Block struct {
	// Header describes where the payload lands.
	Header giop.BlockTransferHeader
	// Order is the byte order of Payload.
	Order cdr.ByteOrder
	// Payload is the CDR-encoded element data following the header.
	Payload []byte
}

// Defaults for the pending-block buffer (blocks race the invocation
// header across separate connections, so a router must buffer early
// arrivals — but only so much, for so long).
const (
	// defaultMaxPendingBlocks bounds how many block transfers may be
	// buffered while waiting for their invocation to register a sink.
	defaultMaxPendingBlocks = 4096
	// defaultMaxPendingBytes bounds the payload bytes those buffered
	// blocks may hold in total, so a peer cannot park 4096 maximal
	// frames (a multi-GiB hostage) behind an invocation that never
	// registers.
	defaultMaxPendingBytes = 64 << 20
	// defaultPendingTTL is how long an invocation's early blocks may
	// sit without any new arrival before a sweep reclaims them — the
	// signature of a client that died between sending blocks and
	// issuing (or completing) the invocation.
	defaultPendingTTL = 30 * time.Second
	// defaultPendingSweepInterval is how often a Server's background
	// sweeper scans for abandoned pending buffers.
	defaultPendingSweepInterval = 5 * time.Second
)

// PendingPolicy bounds the early-block pending buffer of a Server (or
// any block router): how many blocks and payload bytes may wait for a
// sink, and how long an invocation's buffer may go without traffic
// before the periodic sweep reclaims it. Zero fields take the
// defaults above.
type PendingPolicy struct {
	MaxBlocks     int
	MaxBytes      int
	TTL           time.Duration
	SweepInterval time.Duration
}

// DefaultPendingPolicy returns the default pending-buffer bounds.
func DefaultPendingPolicy() PendingPolicy {
	return PendingPolicy{
		MaxBlocks:     defaultMaxPendingBlocks,
		MaxBytes:      defaultMaxPendingBytes,
		TTL:           defaultPendingTTL,
		SweepInterval: defaultPendingSweepInterval,
	}
}

func (p PendingPolicy) withDefaults() PendingPolicy {
	d := DefaultPendingPolicy()
	if p.MaxBlocks <= 0 {
		p.MaxBlocks = d.MaxBlocks
	}
	if p.MaxBytes <= 0 {
		p.MaxBytes = d.MaxBytes
	}
	if p.TTL <= 0 {
		p.TTL = d.TTL
	}
	if p.SweepInterval <= 0 {
		p.SweepInterval = d.SweepInterval
	}
	return p
}

// Pending-buffer instruments are process-wide (no labels), interned
// once: routers account deltas so the gauge stays correct across any
// number of clients and servers in the process.
var (
	pendingBlockBytes     = telemetry.Default.Gauge("pardis_orb_pending_blocks_bytes")
	pendingBlockReclaimed = telemetry.Default.Counter("pardis_orb_pending_reclaimed_total")
)

// blockSink is one registered consumer of block transfers: a callback
// invoked directly on the connection's read goroutine. Multiple
// connections delivering to the same invocation run it concurrently, so
// it must be safe for concurrent use and must not block.
type blockSink func(Block) error

// pendingEntry is one invocation's buffered early blocks plus the
// accounting the byte budget and TTL sweep need.
type pendingEntry struct {
	blocks []Block
	bytes  int
	last   time.Time // most recent arrival; staleness is measured from here
}

// blockRouter delivers incoming blocks to the invocation engines
// expecting them, buffering early arrivals under a block-count and
// byte budget and reclaiming buffers abandoned past a TTL.
type blockRouter struct {
	mu           sync.Mutex
	sinks        map[uint64]blockSink
	pending      map[uint64]*pendingEntry
	windows      map[uint64]*Window
	wpending     map[uint64]*windowPendingEntry
	pendingLen   int
	pendingBytes int
	pol          PendingPolicy
}

func newBlockRouter() *blockRouter {
	return &blockRouter{
		sinks:    make(map[uint64]blockSink),
		pending:  make(map[uint64]*pendingEntry),
		windows:  make(map[uint64]*Window),
		wpending: make(map[uint64]*windowPendingEntry),
		pol:      DefaultPendingPolicy(),
	}
}

// BlockRouterStats is a point-in-time snapshot of a block router, used
// by tests and health checks to assert sinks are not leaked.
type BlockRouterStats struct {
	// Sinks is the number of registered (not yet cancelled) sinks.
	Sinks int
	// Windows is the number of registered (not yet cancelled)
	// one-sided destination windows.
	Windows int
	// Pending is the number of buffered early blocks and window puts
	// awaiting a sink or window.
	Pending int
	// PendingBytes is the payload bytes those blocks hold.
	PendingBytes int
}

func (r *blockRouter) stats() BlockRouterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return BlockRouterStats{
		Sinks:        len(r.sinks),
		Windows:      len(r.windows),
		Pending:      r.pendingLen,
		PendingBytes: r.pendingBytes,
	}
}

// deliver hands a block to its registered sink, which runs inline on
// the calling goroutine, or buffers it until the sink registers.
func (r *blockRouter) deliver(b Block) error {
	r.mu.Lock()
	sink, ok := r.sinks[b.Header.InvocationID]
	if !ok {
		if r.pendingLen >= r.pol.MaxBlocks {
			r.mu.Unlock()
			return fmt.Errorf("%w: invocation %d", ErrTooManyBlocks, b.Header.InvocationID)
		}
		if r.pendingBytes+len(b.Payload) > r.pol.MaxBytes {
			r.mu.Unlock()
			return fmt.Errorf("%w: invocation %d (%d buffered + %d new > %d)",
				ErrPendingBlockBytes, b.Header.InvocationID, r.pendingBytes, len(b.Payload), r.pol.MaxBytes)
		}
		pe := r.pending[b.Header.InvocationID]
		if pe == nil {
			pe = &pendingEntry{}
			r.pending[b.Header.InvocationID] = pe
		}
		pe.blocks = append(pe.blocks, b)
		pe.bytes += len(b.Payload)
		pe.last = time.Now()
		r.pendingLen++
		r.pendingBytes += len(b.Payload)
		pendingBlockBytes.Add(int64(len(b.Payload)))
		r.mu.Unlock()
		return nil
	}
	r.mu.Unlock()
	return sink(b)
}

// sweep reclaims every pending buffer whose last arrival is older than
// the router's TTL (an invocation that will plainly never register a
// sink — its client died or gave up). It returns the number of blocks
// dropped.
func (r *blockRouter) sweep(now time.Time) int {
	r.mu.Lock()
	var dropped, droppedBytes int
	for inv, pe := range r.pending {
		if now.Sub(pe.last) < r.pol.TTL {
			continue
		}
		dropped += len(pe.blocks)
		droppedBytes += pe.bytes
		r.pendingLen -= len(pe.blocks)
		r.pendingBytes -= pe.bytes
		delete(r.pending, inv)
	}
	r.mu.Unlock()
	if droppedBytes > 0 {
		pendingBlockBytes.Add(-int64(droppedBytes))
	}
	if dropped > 0 {
		pendingBlockReclaimed.Add(uint64(dropped))
	}
	return dropped
}

// registerFunc installs a callback sink for an invocation id, flushing
// any blocks that arrived early: every block for inv is handed to sink
// on the delivering connection's read goroutine. A non-nil error from
// sink tears down the delivering connection. The returned cancel
// function removes the sink; later strays buffer and age out.
func (r *blockRouter) registerFunc(inv uint64, sink blockSink) (cancel func(), err error) {
	r.mu.Lock()
	if _, dup := r.sinks[inv]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("orb: duplicate block sink for invocation %d", inv)
	}
	r.sinks[inv] = sink
	var early []Block
	if pe := r.pending[inv]; pe != nil {
		early = pe.blocks
		delete(r.pending, inv)
		r.pendingLen -= len(pe.blocks)
		r.pendingBytes -= pe.bytes
		pendingBlockBytes.Add(-int64(pe.bytes))
	}
	r.mu.Unlock()
	cancel = func() {
		r.mu.Lock()
		delete(r.sinks, inv)
		r.mu.Unlock()
	}
	for _, b := range early {
		if err := sink(b); err != nil {
			cancel()
			return nil, err
		}
	}
	return cancel, nil
}
