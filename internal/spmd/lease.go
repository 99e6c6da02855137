// Lease-based reclamation of rank-side binding state.
//
// Every client of an SPMD object holds an implicit lease on each
// server rank, identified by the 24-bit random prefix of its
// invocation ids (one prefix per client ORB process). Traffic renews
// the lease: requests and describe/renew calls at the communicator,
// put arrivals at every rank. When a client dies — between
// `_spmd_bind` and invoke, or mid-transfer — its traffic stops, the
// lease expires TTL later, and every rank-side wait tied to it
// unwinds with ErrLeaseExpired: windows are cancelled by their
// owning dispatch, the collective agrees on the failure, and the
// object keeps serving other clients. Idle-but-alive clients keep
// their lease with the cheap RenewOperation ping (Binding.Renew).
package spmd

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"pardis/internal/telemetry"
)

// DefaultLeaseTTL is how long a client lease survives without traffic
// before its rank-side state is reclaimed.
const DefaultLeaseTTL = 30 * time.Second

// ErrLeaseExpired means a dispatch was abandoned because its client's
// lease ran out: the client stopped sending traffic (and renew pings)
// for a full TTL, so the ranks stopped waiting for it.
var ErrLeaseExpired = errors.New("spmd: client lease expired")

// Interned once; both are process-wide and accounted in deltas, so
// they stay correct across any number of objects and ranks.
var (
	leasesActive  = telemetry.Default.Gauge("pardis_spmd_leases_active")
	leasesExpired = telemetry.Default.Counter("pardis_spmd_leases_expired_total")
)

// ActiveLeases reports the live client leases across every SPMD rank
// in this process (the pardis_spmd_leases_active gauge) — the load
// signal agent heartbeats piggyback: each lease is a client holding
// rank-side transfer state here.
func ActiveLeases() int { return int(leasesActive.Value()) }

// ExpiredLeases reports the cumulative count of client leases this
// process has reclaimed (the pardis_spmd_leases_expired_total
// counter) — the slow-moving companion to ActiveLeases that heartbeat
// metrics digests and /healthz carry so an agent can see a replica
// shedding abandoned rank state.
func ExpiredLeases() uint64 { return leasesExpired.Value() }

// leaseClient extracts the lease identity from an invocation id: the
// client ORB's random prefix (bits 32-55), shared by every invocation
// and block the same client process sends.
func leaseClient(inv uint64) uint64 { return inv >> 32 }

// lease is one client's liveness record on one rank.
type lease struct {
	// expired closes exactly once, when the sweep declares the client
	// dead; waits select on it alongside their other unwind channels.
	expired chan struct{}
	// last is the unix-nano timestamp of the client's most recent
	// traffic on this rank.
	last atomic.Int64
}

// leaseTable tracks the live clients of one rank.
type leaseTable struct {
	ttl time.Duration
	mu  sync.Mutex
	m   map[uint64]*lease
}

func newLeaseTable(ttl time.Duration) *leaseTable {
	return &leaseTable{ttl: ttl, m: make(map[uint64]*lease)}
}

// acquire returns the client's lease, created fresh on first contact,
// and renews it. The renewal happens under the table lock so a lease
// handed out here can never be swept in the same instant it was
// touched.
func (t *leaseTable) acquire(client uint64) *lease {
	now := time.Now().UnixNano()
	t.mu.Lock()
	l := t.m[client]
	if l == nil {
		l = &lease{expired: make(chan struct{})}
		t.m[client] = l
		leasesActive.Inc()
	}
	l.last.Store(now)
	t.mu.Unlock()
	return l
}

// touch renews the client's lease if it exists (block arrivals renew
// without creating: a stray block from an unknown client must not
// fabricate liveness state — the orb pending sweep handles strays).
func (t *leaseTable) touch(client uint64) {
	now := time.Now().UnixNano()
	t.mu.Lock()
	if l := t.m[client]; l != nil {
		l.last.Store(now)
	}
	t.mu.Unlock()
}

// sweep expires every lease without traffic for the TTL: the lease
// leaves the table (the client's next contact starts a fresh one) and
// its expired channel closes, unblocking any dispatch waiting on that
// client's blocks. Returns the number of leases expired.
func (t *leaseTable) sweep(now time.Time) int {
	cut := now.UnixNano() - int64(t.ttl)
	n := 0
	t.mu.Lock()
	for id, l := range t.m {
		if l.last.Load() > cut {
			continue
		}
		delete(t.m, id)
		close(l.expired)
		n++
	}
	t.mu.Unlock()
	if n > 0 {
		leasesActive.Add(-int64(n))
		leasesExpired.Add(uint64(n))
	}
	return n
}

// size reports the number of live leases.
func (t *leaseTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// drop clears the table without counting expirations — object
// teardown, not client death.
func (t *leaseTable) drop() {
	t.mu.Lock()
	n := len(t.m)
	t.m = make(map[uint64]*lease)
	t.mu.Unlock()
	if n > 0 {
		leasesActive.Add(-int64(n))
	}
}

// leaseSweepInterval picks the sweep cadence for a TTL: a quarter of
// it, clamped to stay responsive for test-sized TTLs and cheap for
// production ones.
func leaseSweepInterval(ttl time.Duration) time.Duration {
	iv := ttl / 4
	if iv < 5*time.Millisecond {
		iv = 5 * time.Millisecond
	}
	if iv > 5*time.Second {
		iv = 5 * time.Second
	}
	return iv
}
