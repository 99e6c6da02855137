// Fault-tolerant invocation support: retry policy with exponential
// backoff, plus the per-endpoint health
// table (a consecutive-failure circuit breaker with half-open probes)
// that drives failover across a reference's replica endpoints.
package orb

import (
	"context"
	"errors"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	"pardis/internal/telemetry"
)

// RetryPolicy governs how a Client re-issues invocations that failed
// inside the safe-to-retry window (dial and write failures, and
// connection loss before the reply message arrived — see
// DESIGN.md "Failure semantics"). The zero value never retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per invocation
	// (1 or 0 means a single attempt, i.e. no retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry (default 5ms
	// when retries are enabled).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 500ms).
	MaxBackoff time.Duration
	// Multiplier scales the delay between retries (default 2).
	Multiplier float64
	// Jitter is the fraction of each delay randomized away, in
	// [0, 1] (default 0.2): delay*(1-Jitter) .. delay. Jitter breaks
	// retry synchronization across clients hammering a recovering
	// server.
	Jitter float64
}

// DefaultRetryPolicy is a sensible production policy: three attempts,
// 5ms initial backoff doubling to 500ms, 20% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 5 * time.Millisecond,
		MaxBackoff: 500 * time.Millisecond, Multiplier: 2, Jitter: 0.2}
}

// attempts returns the effective total attempt count.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the jittered delay to sleep before retry number n
// (n = 1 is the first retry).
func (p RetryPolicy) backoff(n int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = 500 * time.Millisecond
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	d := float64(base)
	for i := 1; i < n; i++ {
		d *= mult
		if d >= float64(maxB) {
			d = float64(maxB)
			break
		}
	}
	jitter := p.Jitter
	if jitter < 0 {
		jitter = 0
	} else if jitter > 1 {
		jitter = 1
	}
	if jitter > 0 {
		d *= 1 - jitter*jitterRand()
	}
	return time.Duration(d)
}

// jitterRand samples the shared jitter RNG.
var jitterRand = func() func() float64 {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return rng.Float64()
	}
}()

// Circuit-breaker defaults.
const (
	// defaultBreakerThreshold is the consecutive-failure count that
	// opens an endpoint's breaker.
	defaultBreakerThreshold = 3
	// defaultBreakerCooldown is how long an open breaker rejects the
	// endpoint before allowing a half-open probe.
	defaultBreakerCooldown = 2 * time.Second
)

// breakerState is one endpoint's circuit-breaker state.
type breakerState int

const (
	breakerClosed   breakerState = iota // healthy, requests flow
	breakerOpen                         // failing, skipped until cooldown
	breakerHalfOpen                     // one probe in flight
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// endpointHealth tracks one endpoint.
type endpointHealth struct {
	state       breakerState
	consecFails int
	openUntil   time.Time
	// lastChange and lastReason record the breaker's most recent state
	// transition — when it happened and why — for Health snapshots.
	lastChange time.Time
	lastReason string
}

// healthTable is a Client's per-endpoint circuit breaker: after
// threshold consecutive transport-level failures an endpoint is
// marked down for cooldown; the first caller after the cooldown gets
// through as a half-open probe whose outcome closes or re-opens the
// breaker.
type healthTable struct {
	mu        sync.Mutex
	m         map[string]*endpointHealth
	threshold int
	cooldown  time.Duration
	now       func() time.Time
}

func newHealthTable(threshold int, cooldown time.Duration) *healthTable {
	if threshold <= 0 {
		threshold = defaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	return &healthTable{
		m:         make(map[string]*endpointHealth),
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
	}
}

func (h *healthTable) get(ep string) *endpointHealth {
	e, ok := h.m[ep]
	if !ok {
		e = &endpointHealth{}
		h.m[ep] = e
	}
	return e
}

// transition moves one endpoint's breaker to a new state, stamping
// when and why. Caller holds h.mu. A no-op when the state is
// unchanged.
func (h *healthTable) transition(ep string, e *endpointHealth, to breakerState, reason string) {
	if e.state == to {
		return
	}
	from := e.state
	e.state = to
	e.lastChange = h.now()
	e.lastReason = reason
	if telemetry.LogEnabled(slog.LevelInfo) {
		telemetry.Logger().Info("breaker transition",
			"endpoint", ep, "from", from.String(), "to", to.String(), "reason", reason)
	}
}

// allow reports whether the endpoint should be tried now. An expired
// open breaker transitions to half-open and admits this caller as the
// probe.
func (h *healthTable) allow(ep string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.get(ep)
	switch e.state {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		return false // a probe is already in flight
	default: // open
		if h.now().Before(e.openUntil) {
			return false
		}
		h.transition(ep, e, breakerHalfOpen, "cooldown expired; admitting probe")
		return true
	}
}

// onSuccess records a successful invocation at ep, closing its
// breaker.
func (h *healthTable) onSuccess(ep string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.get(ep)
	h.transition(ep, e, breakerClosed, "invocation succeeded")
	e.consecFails = 0
}

// onFailure records a transport-level failure at ep (cause says what
// went wrong); enough in a row (or a failed half-open probe) opens the
// breaker.
func (h *healthTable) onFailure(ep string, cause error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.get(ep)
	e.consecFails++
	if e.state == breakerHalfOpen || e.consecFails >= h.threshold {
		reason := "transport failure"
		if cause != nil {
			reason = cause.Error()
		}
		if e.state == breakerHalfOpen {
			reason = "half-open probe failed: " + reason
		}
		h.transition(ep, e, breakerOpen, reason)
		e.openUntil = h.now().Add(h.cooldown)
	}
}

// up reports whether the endpoint is currently believed healthy
// (breaker not open). Unknown endpoints are presumed healthy.
func (h *healthTable) up(ep string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.m[ep]
	if !ok {
		return true
	}
	if e.state == breakerOpen && h.now().Before(e.openUntil) {
		return false
	}
	return true
}

// EndpointState is an exported snapshot of one endpoint's breaker.
type EndpointState struct {
	// State is "closed", "open" or "half-open".
	State string
	// ConsecutiveFailures counts transport failures since the last
	// success.
	ConsecutiveFailures int
	// Since is when the breaker last changed state (zero if it has
	// never transitioned).
	Since time.Time
	// Reason explains the last transition — the failure that opened
	// the breaker, the probe admission, or the success that closed it.
	Reason string
}

// snapshot exports the table for diagnostics.
func (h *healthTable) snapshot() map[string]EndpointState {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]EndpointState, len(h.m))
	for ep, e := range h.m {
		out[ep] = EndpointState{
			State:               e.state.String(),
			ConsecutiveFailures: e.consecFails,
			Since:               e.lastChange,
			Reason:              e.lastReason,
		}
	}
	return out
}

// retryable reports whether an invocation error happened inside the
// safe-to-retry window: the request provably did not produce a reply.
// Dial failures and write failures never reached the server intact;
// ErrServerClosed means the server drained us off deliberately;
// ErrConnectionLost means the connection died with no reply framed
// for this request (the server may still have executed it — see
// "Failure semantics" in DESIGN.md for the at-least-once caveat).
func retryable(err error) bool {
	return errors.Is(err, ErrConnectionLost) ||
		errors.Is(err, ErrServerClosed) ||
		errors.Is(err, ErrUnreachable) ||
		errors.Is(err, ErrTransient)
}

// sleepCtx sleeps for d unless the context ends first, in which case
// it returns the context error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
