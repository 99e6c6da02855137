// Package orb implements the PARDIS Object Request Broker core: the
// client-side invocation engine (connection caching, request/reply
// matching, cancellation) and the server-side object adapter
// (endpoint listeners, request dispatch, reply writing), plus
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
)

// Errors returned by ORB operations.
var (
	ErrClosed         = errors.New("orb: closed")
	ErrCanceled       = errors.New("orb: request canceled")
	ErrConnectionLost = errors.New("orb: connection lost")
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

// The bound on a put's wait for its window (see awaitWindow), and how
// often a Server's sweeper wakes the waiting puts to check it.
const (
	putWaitTTL       = 30 * time.Second
	putSweepInterval = 5 * time.Second
)

// blockSink is one registered consumer of block transfers: a callback
// invoked directly on the connection's read goroutine. Multiple
// connections delivering to the same invocation run it concurrently, so
// it must be safe for concurrent use and must not block.
type blockSink func(Block) error

// blockRouter delivers incoming block transfers to the sinks expecting
// them and window puts to the windows armed for them; a put whose epoch
// is not armed yet waits for it on its connection's read loop.
type blockRouter struct {
	mu    sync.Mutex
	sinks map[uint64]blockSink
	// bindings holds each client's windows, by the client's invocation
	// prefix (windowClient), and armed counts the windows armed.
	bindings map[uint64]*windowSet
	armed    int
	// arrived is broadcast on r.mu by everything that may end a put's
	// wait: an arming, a disarming, an ended epoch, a drop, a
	// connection's end, a sweep.
	arrived sync.Cond
	waiting int           // puts waiting for their window
	ttl     time.Duration // the bound on one wait
}

func newBlockRouter() *blockRouter {
	r := &blockRouter{
		sinks:    make(map[uint64]blockSink),
		bindings: make(map[uint64]*windowSet),
		ttl:      putWaitTTL,
	}
	r.arrived.L = &r.mu
	return r
}

// BlockRouterStats is a point-in-time snapshot of a block router, used
// by tests and health checks to assert sinks are not leaked.
type BlockRouterStats struct {
	// Sinks is the number of registered (not yet cancelled) sinks.
	Sinks int
	// Windows is the number of one-sided destination windows armed
	// (registered and not yet cancelled); between invocations it is 0.
	Windows int
	// Pending is the number of window puts waiting for their epoch to
	// be armed, each on its connection's read loop.
	Pending int
}

func (r *blockRouter) stats() BlockRouterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return BlockRouterStats{
		Sinks:   len(r.sinks),
		Windows: r.armed,
		Pending: r.waiting,
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
