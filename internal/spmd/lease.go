// Lease-based reclamation of rank-side binding state.
//
// Every client of an SPMD object holds an implicit lease on each
// server rank, identified by the 24-bit random prefix of its
// invocation ids (one prefix per client ORB process). Traffic renews
// the lease: requests and describe calls at the communicator, the
// arming of its windows and each put landed in them at every rank (a
// put still waiting for its epoch renews nothing, and survives the
// lease: the windows that go with it skim only puts for epochs they
// armed or ended). When a client dies — between `_spmd_bind` and
// invoke, or mid-transfer — its traffic stops, the lease expires TTL
// later, and every rank-side wait tied to it unwinds with
// ErrLeaseExpired: the client's windows go with the lease
// (orb.Server.DropWindows), the collective agrees on the
// failure, and the object keeps serving other clients. An idle
// client's lease lapses the same way, taking its windows with it; its
// next invocation opens a fresh lease and arms fresh windows.
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
// lease ran out: the client stopped sending traffic for a full TTL,
// so the ranks stopped waiting for it.
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
	// renew stores the current time in last: the onPut hook of the
	// windows the client's puts land in, made once per lease.
	renew func()
	// epoch is the last multi-port epoch the communicator dispatched or
	// refused for the client (passed), once passed is set. Only the
	// communicator's serve loop touches either.
	epoch  uint32
	passed bool
}

// pass records that the communicator dispatches or refuses the client's
// multi-port invocation of epoch e, and reports whether e comes in
// order: not before an epoch it passed already. The ranks arm a
// binding's epochs in the order the communicator passes them, and a put
// for an epoch they have passed is skimmed (orb.Server.RegisterWindow).
func (l *lease) pass(e uint32) bool {
	if l.passed && int32(e-l.epoch) < 0 {
		return false
	}
	l.epoch, l.passed = e, true
	return true
}

// leaseTable tracks the live clients of one rank.
type leaseTable struct {
	ttl time.Duration
	mu  sync.Mutex
	m   map[uint64]*lease
	// onExpire, when set, releases what the rank holds for an expired
	// client. The sweep runs it under mu, so a client that comes back
	// acquires its fresh lease only after its old state is gone.
	onExpire func(client uint64)
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
		l.renew = func() { l.last.Store(time.Now().UnixNano()) }
		t.m[client] = l
		leasesActive.Inc()
	}
	l.last.Store(now)
	t.mu.Unlock()
	return l
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
		if t.onExpire != nil {
			t.onExpire(id)
		}
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
