// Package orb implements the PARDIS Object Request Broker core: the
// client-side invocation engine (connection caching, request/reply
// matching, cancellation, locate queries) and the server-side object
// adapter (endpoint listeners, request dispatch, reply writing), plus
// the one-sided window puts that carry multi-port arguments straight
// into registered destination slices, which distinguish PARDIS from a
// conventional ORB.
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
	ErrTooManyBlocks  = errors.New("orb: too many early window puts buffered")
	// ErrPendingBlockBytes means the byte budget for early window puts
	// is exhausted: a peer pushed more early-put payload than the
	// router is willing to buffer before the window registers.
	ErrPendingBlockBytes = errors.New("orb: early window-put byte budget exceeded")
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
	// ErrLandingTorn means the connection failed while a ReplyLander
	// was writing its destination: that now holds part of the reply,
	// which a retry would send back as in-data, so it is not retried.
	ErrLandingTorn = errors.New("orb: reply landing torn")
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

// Defaults for the early-put pending buffer (a window put can beat its
// window's registration, arriving on another connection than the
// request that announces the window, so a router must buffer early
// puts — but only so much, for so long).
const (
	// defaultMaxPendingBlocks bounds how many window puts may be
	// buffered while waiting for their window to register.
	defaultMaxPendingBlocks = 4096
	// defaultMaxPendingBytes bounds the payload bytes those buffered
	// puts may hold in total, so a peer cannot park 4096 maximal
	// puts (a multi-GiB hostage) behind a window that never
	// registers.
	defaultMaxPendingBytes = 64 << 20
	// defaultPendingTTL is how long a window's early puts may sit
	// without any new arrival before a sweep reclaims them — the
	// signature of a client that died between sending puts and
	// issuing (or completing) the invocation.
	defaultPendingTTL = 30 * time.Second
	// defaultPendingSweepInterval is how often a Server's background
	// sweeper scans for abandoned pending buffers.
	defaultPendingSweepInterval = 5 * time.Second
)

// PendingPolicy bounds the early-put pending buffer of a Server: how
// many window puts and payload bytes may wait for their window, and
// how long a window's buffer may go without traffic before the
// periodic sweep reclaims it. Zero fields take the defaults above.
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
// number of servers in the process.
var (
	pendingBlockBytes     = telemetry.Default.Gauge("pardis_orb_pending_blocks_bytes")
	pendingBlockReclaimed = telemetry.Default.Counter("pardis_orb_pending_reclaimed_total")
)

// blockSink is one registered consumer of block transfers: a callback
// invoked directly on the connection's read goroutine. Multiple
// connections delivering to the same invocation run it concurrently, so
// it must be safe for concurrent use and must not block.
type blockSink func(Block) error

// blockRouter delivers incoming block transfers to the sinks expecting
// them and window puts to their registered windows, buffering early
// puts under a put-count and byte budget and reclaiming buffers
// abandoned past a TTL.
type blockRouter struct {
	mu           sync.Mutex
	sinks        map[uint64]blockSink
	windows      map[uint64]*Window
	pending      map[uint64]*windowPendingEntry
	pendingLen   int
	pendingBytes int
	pol          PendingPolicy
}

func newBlockRouter() *blockRouter {
	return &blockRouter{
		sinks:   make(map[uint64]blockSink),
		windows: make(map[uint64]*Window),
		pending: make(map[uint64]*windowPendingEntry),
		pol:     DefaultPendingPolicy(),
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
	// Pending is the number of buffered early window puts awaiting
	// their window.
	Pending int
	// PendingBytes is the payload bytes those puts hold.
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
// the calling goroutine. A block nobody expects is a protocol error:
// the sink must register before its sender ships the block, and the
// caller fails the delivering connection.
func (r *blockRouter) deliver(b Block) error {
	r.mu.Lock()
	sink, ok := r.sinks[b.Header.InvocationID]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("orb: block transfer for invocation %d has no sink", b.Header.InvocationID)
	}
	return sink(b)
}

// registerFunc installs a callback sink for an invocation id: every
// block for inv is handed to sink on the delivering connection's read
// goroutine. A non-nil error from sink tears down the delivering
// connection. The returned cancel function removes the sink.
func (r *blockRouter) registerFunc(inv uint64, sink blockSink) (cancel func(), err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.sinks[inv]; dup {
		return nil, fmt.Errorf("orb: duplicate block sink for invocation %d", inv)
	}
	r.sinks[inv] = sink
	return func() {
		r.mu.Lock()
		delete(r.sinks, inv)
		r.mu.Unlock()
	}, nil
}
