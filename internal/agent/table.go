package agent

import (
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"pardis/internal/ior"
	"pardis/internal/telemetry"
)

// NameRef is one name→reference pair carried by a registration.
type NameRef struct {
	Name string
	Ref  *ior.Ref
}

// Registration is one server instance's heartbeat payload: the names
// it serves, the TTL it asks for, and its current load.
type Registration struct {
	// Instance uniquely identifies the registering server process;
	// re-registrations under the same instance replace its previous
	// entries (and a deregistration removes them all at once).
	Instance string
	// TTL is how long the registration stays live without a renewal.
	// The registrar derives it from its heartbeat interval (TTLFactor
	// x interval); the table clamps unreasonable values.
	TTL time.Duration
	// Names lists the objects this instance serves.
	Names []NameRef
	// Load is the instance's point-in-time load signal.
	Load LoadReport
	// Digest is the instance's cumulative metrics digest (see
	// MetricsDigest); a zero digest is valid and simply yields empty
	// fleet rows.
	Digest MetricsDigest
}

// replica is one instance's live registration of one name. Alongside
// the load signal it keeps the two most recent metrics digests so the
// fleet view can difference them into rates.
type replica struct {
	instance string
	ref      *ior.Ref
	load     LoadReport
	lastSeen time.Time
	deadline time.Time

	digest   MetricsDigest
	digestAt time.Time
	prev     MetricsDigest
	prevAt   time.Time
}

// ReplicaInfo is an exported snapshot of one replica, for list/debug.
type ReplicaInfo struct {
	Instance  string
	Ref       *ior.Ref
	Score     float64
	Draining  bool
	SinceSeen time.Duration
}

// MinTTL floors the per-registration TTL so a misconfigured registrar
// cannot flap its replicas in and out of the table.
const MinTTL = 50 * time.Millisecond

// MinTombstoneTTL floors how long a deregistration tombstone is
// remembered, so a peer that held second-scale registrations cannot
// resurrect a drained instance after the tombstone of a
// millisecond-TTL test registration has been pruned.
const MinTombstoneTTL = time.Second

// tombstone remembers an explicit deregistration so peer-sync merges
// cannot resurrect the drained instance from a snapshot whose rows
// predate the drain. A tombstone loses to any strictly newer direct
// registration (a restarted instance under the same identity), and is
// pruned once every peer's copy of the old rows must have expired.
type tombstone struct {
	at  time.Time
	ttl time.Duration
}

// Table is the agent's weighted replica table: per object name, the
// set of live registrations ranked by load. All state is soft — it
// exists only between one heartbeat and the next TTL.
//
// With agent replication, several tables converge independently from
// the same heartbeat stream (registrars fan every beat out to all
// agents) and exchange snapshots at sweep cadence (Snapshot/Merge).
// Merge is newest-renewal-wins per (name, instance): `seen` holds the
// newest renewal this table knows per instance — a heartbeat is
// authoritative for the instance's whole name set, so a peer row
// older than it is a name the instance has since dropped — and
// `tombs` holds deregistration tombstones so a drained instance
// cannot be resurrected from a partitioned peer's stale rows.
type Table struct {
	mu    sync.Mutex
	names map[string]map[string]*replica // name → instance → replica
	seen  map[string]time.Time           // instance → newest renewal known
	tombs map[string]tombstone           // instance → deregistration marker
	now   func() time.Time               // test seam
	// expired counts the replicas Sweep aged out, for /healthz.
	expired uint64
}

// NewTable returns an empty replica table.
func NewTable() *Table {
	return &Table{
		names: make(map[string]map[string]*replica),
		seen:  make(map[string]time.Time),
		tombs: make(map[string]tombstone),
		now:   time.Now,
	}
}

// Register upserts one instance's registration: every carried name
// gains (or renews) a replica owned by the instance, and names the
// instance previously registered but no longer carries are dropped.
// Register doubles as the heartbeat — the paths are deliberately the
// same so an agent restart needs nothing but the next heartbeat to
// rebuild the row.
func (t *Table) Register(r Registration) error {
	if r.Instance == "" {
		return fmt.Errorf("%w: empty instance", ErrProtocol)
	}
	ttl := r.TTL
	if ttl < MinTTL {
		ttl = MinTTL
	}
	for _, nr := range r.Names {
		if nr.Name == "" {
			return fmt.Errorf("%w: empty name in registration", ErrProtocol)
		}
		if err := nr.Ref.Validate(); err != nil {
			return err
		}
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	// A direct registration is the instance itself speaking: it clears
	// any deregistration tombstone (restart under the same identity)
	// and advances the per-instance renewal high-water mark that
	// peer-sync merges compare against.
	delete(t.tombs, r.Instance)
	if now.After(t.seen[r.Instance]) {
		t.seen[r.Instance] = now
	}
	carried := make(map[string]bool, len(r.Names))
	for _, nr := range r.Names {
		carried[nr.Name] = true
		reps := t.names[nr.Name]
		if reps == nil {
			reps = make(map[string]*replica)
			t.names[nr.Name] = reps
		}
		old := reps[r.Instance]
		rep := &replica{
			instance: r.Instance,
			ref:      nr.Ref,
			load:     r.Load,
			lastSeen: now,
			deadline: now.Add(ttl),
			digest:   r.Digest,
			digestAt: now,
		}
		if old != nil {
			// Shift the previous digest down so Fleet can difference
			// consecutive heartbeats into a rate window.
			rep.prev, rep.prevAt = old.digest, old.digestAt
		}
		reps[r.Instance] = rep
	}
	// Names the instance stopped carrying (object unexported, drain
	// of one object) leave immediately rather than aging out.
	for name, reps := range t.names {
		if carried[name] {
			continue
		}
		if _, had := reps[r.Instance]; had {
			t.removeLocked(name, r.Instance)
		}
	}
	return nil
}

// Deregister removes every replica owned by instance — the graceful
// path, taken by a draining server so no stale registration outlives
// it. Unknown instances are a no-op: deregistration must be safe to
// repeat.
func (t *Table) Deregister(instance string) {
	t.mu.Lock()
	n := 0
	tombTTL := MinTombstoneTTL
	for name, reps := range t.names {
		if rep, had := reps[instance]; had {
			if ttl := 2 * rep.deadline.Sub(rep.lastSeen); ttl > tombTTL {
				tombTTL = ttl
			}
			t.removeLocked(name, instance)
			n++
		}
	}
	// Tombstone the instance (even when it held no rows here — a peer
	// may still hold some) so a subsequent peer-sync merge cannot
	// resurrect rows that predate the drain. The tombstone outlives
	// twice the instance's registration TTL: by then every peer's
	// stale copy has expired on its own.
	t.tombs[instance] = tombstone{at: t.now(), ttl: tombTTL}
	t.mu.Unlock()
	if n > 0 && telemetry.LogEnabled(slog.LevelInfo) {
		telemetry.Logger().Info("agent: instance deregistered",
			"instance", instance, "names", n)
	}
}

// removeLocked drops one replica and, when it was the last, its name
// row. Caller holds t.mu.
func (t *Table) removeLocked(name, instance string) {
	reps := t.names[name]
	delete(reps, instance)
	if len(reps) == 0 {
		delete(t.names, name)
	}
}

// Sweep expires every replica whose TTL has lapsed — the crash path:
// a dead server stops heartbeating and its replicas age out of every
// row they were in. Returns the number of replicas expired.
func (t *Table) Sweep(now time.Time) int {
	n := 0
	t.mu.Lock()
	for name, reps := range t.names {
		for instance, rep := range reps {
			if now.Before(rep.deadline) {
				continue
			}
			t.removeLocked(name, instance)
			n++
		}
	}
	// Prune control metadata that can no longer matter: tombstones
	// past their own TTL, and renewal high-water marks for instances
	// with no live rows that have been silent long enough that any
	// peer row they could still veto has expired anyway.
	for instance, tb := range t.tombs {
		if !now.Before(tb.at.Add(tb.ttl)) {
			delete(t.tombs, instance)
		}
	}
	live := make(map[string]bool)
	for _, reps := range t.names {
		for instance := range reps {
			live[instance] = true
		}
	}
	for instance, at := range t.seen {
		if !live[instance] && now.Sub(at) > MinTombstoneTTL {
			delete(t.seen, instance)
		}
	}
	t.expired += uint64(n)
	t.mu.Unlock()
	if n > 0 && telemetry.LogEnabled(slog.LevelInfo) {
		telemetry.Logger().Info("agent: replicas expired", "count", n)
	}
	return n
}

// StartSweeper runs Sweep on a ticker until the returned stop
// function is called. The cadence is a quarter of the smallest TTL
// the agent expects (callers pass their heartbeat interval).
func (t *Table) StartSweeper(interval time.Duration) (stop func()) {
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				t.Sweep(time.Now())
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// ranked returns name's live replicas sorted best-first (score, then
// instance for determinism). Caller holds t.mu.
func (t *Table) ranked(name string, now time.Time) []*replica {
	reps := t.names[name]
	if len(reps) == 0 {
		return nil
	}
	out := make([]*replica, 0, len(reps))
	for _, rep := range reps {
		if now.Before(rep.deadline) {
			out = append(out, rep)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := out[i].load.Score(), out[j].load.Score()
		if si != sj {
			return si < sj
		}
		return out[i].instance < out[j].instance
	})
	return out
}

// Resolve answers a client's lookup with a load-ranked reference and
// the number of live replicas behind it.
//
// Conventional (single-thread) replicas merge into one multi-profile
// reference: the endpoints of every live replica, best-ranked first,
// exactly the replica profile list InvokeRef's failover chain walks.
// SPMD replicas pin each computing thread to its own port, so their
// profiles are not interchangeable — Resolve returns the best-ranked
// replica's full reference and failover happens by re-resolving.
func (t *Table) Resolve(name string) (*ior.Ref, int, error) {
	now := t.now()
	t.mu.Lock()
	reps := t.ranked(name, now)
	if len(reps) == 0 {
		t.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	best := reps[0]
	merged := *best.ref
	if !best.ref.IsSPMD() {
		seen := make(map[string]bool, len(reps))
		eps := make([]string, 0, len(reps))
		for _, rep := range reps {
			if rep.ref.IsSPMD() {
				continue // a mixed row merges only conventional profiles
			}
			for _, ep := range rep.ref.Endpoints {
				if !seen[ep] {
					seen[ep] = true
					eps = append(eps, ep)
				}
			}
		}
		merged.Endpoints = eps
	}
	n := len(reps)
	t.mu.Unlock()
	return &merged, n, nil
}

// List returns a snapshot of the table's rows with the given name
// prefix: name → replicas, best-ranked first.
func (t *Table) List(prefix string) map[string][]ReplicaInfo {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]ReplicaInfo)
	for name := range t.names {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		reps := t.ranked(name, now)
		infos := make([]ReplicaInfo, 0, len(reps))
		for _, rep := range reps {
			infos = append(infos, ReplicaInfo{
				Instance:  rep.instance,
				Ref:       rep.ref,
				Score:     rep.load.Score(),
				Draining:  rep.load.Draining,
				SinceSeen: now.Sub(rep.lastSeen),
			})
		}
		if len(infos) > 0 {
			out[name] = infos
		}
	}
	return out
}

// Size reports the table's row and replica counts.
func (t *Table) Size() (names, replicas int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, reps := range t.names {
		replicas += len(reps)
	}
	return len(t.names), replicas
}

// SyncEntry is one live replica row in a peer-sync snapshot. Renewal
// time travels as an age relative to the sender's clock at snapshot
// time, so merging is immune to wall-clock skew between agents. (Raw
// transit delay would make an arriving row look *newer* — the age is
// frozen at encode time — so Client.Sync anchors a reply's ages at the
// instant the caller took its own snapshot, erring old, never new.)
type SyncEntry struct {
	Name     string
	Instance string
	Ref      *ior.Ref
	Load     LoadReport
	// Age is how long before the snapshot the row was last renewed.
	Age time.Duration
	// TTL is the row's registration time-to-live from that renewal.
	TTL time.Duration
}

// SyncTombstone is one deregistration marker in a peer-sync snapshot.
type SyncTombstone struct {
	Instance string
	Age      time.Duration
	TTL      time.Duration
}

// SyncSnapshot is the peer-sync exchange unit: every live row plus
// the current tombstones. Metrics digests deliberately stay out — the
// fleet observability plane is fed by the direct heartbeat fan-out,
// not by peer sync, which only has to keep *resolution* converged.
type SyncSnapshot struct {
	Entries []SyncEntry
	Tombs   []SyncTombstone

	// at is the instant, on the clock of the table that took the
	// snapshot, that its ages count back from; zero once decoded.
	at time.Time
	// anchor, when set, is the instant on the merging table's clock that
	// Merge counts the ages back from, in place of its own now.
	anchor time.Time
}

// Snapshot captures the table's live rows and tombstones for a peer
// exchange. Expired-but-unswept rows are excluded so a zombie never
// travels.
func (t *Table) Snapshot() SyncSnapshot {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := SyncSnapshot{at: now}
	for name, reps := range t.names {
		for _, rep := range reps {
			if !now.Before(rep.deadline) {
				continue
			}
			s.Entries = append(s.Entries, SyncEntry{
				Name:     name,
				Instance: rep.instance,
				Ref:      rep.ref,
				Load:     rep.load,
				Age:      now.Sub(rep.lastSeen),
				TTL:      rep.deadline.Sub(rep.lastSeen),
			})
		}
	}
	for instance, tb := range t.tombs {
		s.Tombs = append(s.Tombs, SyncTombstone{
			Instance: instance,
			Age:      now.Sub(tb.at),
			TTL:      tb.ttl,
		})
	}
	return s
}

// Merge folds a peer's snapshot into the table, newest renewal wins:
//
//   - a row is adopted only if it is strictly newer than the local
//     row for the same (name, instance), and — when there is no local
//     row — strictly newer than the newest renewal this table has
//     seen from the instance at all (a heartbeat names the instance's
//     *whole* object set, so an older peer row for a missing name is
//     a name the instance has since dropped, not news);
//   - a tombstone removes every local row of its instance not renewed
//     after it, and is itself vetoed by newer direct knowledge (the
//     instance re-registered after the drain the peer saw).
//
// Merge never extends a deadline beyond what some heartbeat actually
// paid for, so a partitioned pair cannot keep each other's dead rows
// alive by bouncing snapshots back and forth. Returns the number of
// rows adopted (inserted or renewed) and removed by tombstones.
//
// Renewal times are reconstructed as the snapshot's anchor (Client.Sync
// sets it; otherwise the table's now) minus each age.
func (t *Table) Merge(s SyncSnapshot) (adopted, removed int) {
	now := t.now()
	anchor := s.anchor
	if anchor.IsZero() {
		anchor = now
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ts := range s.Tombs {
		at := anchor.Add(-ts.Age)
		if t.seen[ts.Instance].After(at) {
			continue
		}
		if old, ok := t.tombs[ts.Instance]; !ok || at.After(old.at) {
			ttl := ts.TTL
			if ttl < MinTombstoneTTL {
				ttl = MinTombstoneTTL
			}
			t.tombs[ts.Instance] = tombstone{at: at, ttl: ttl}
		}
		for name, reps := range t.names {
			if rep, ok := reps[ts.Instance]; ok && !rep.lastSeen.After(at) {
				t.removeLocked(name, ts.Instance)
				removed++
			}
		}
	}
	for _, e := range s.Entries {
		if e.Name == "" || e.Instance == "" || e.Ref == nil || e.Ref.Validate() != nil {
			continue // a malformed peer row is dropped, never adopted
		}
		ls := anchor.Add(-e.Age)
		if tb, ok := t.tombs[e.Instance]; ok && !ls.After(tb.at) {
			continue
		}
		reps := t.names[e.Name]
		old := reps[e.Instance]
		if old != nil {
			if !ls.After(old.lastSeen) {
				continue
			}
		} else if !ls.After(t.seen[e.Instance]) {
			continue
		}
		ttl := e.TTL
		if ttl < MinTTL {
			ttl = MinTTL
		}
		if !now.Before(ls.Add(ttl)) {
			continue // aged past its own TTL in flight
		}
		if reps == nil {
			reps = make(map[string]*replica)
			t.names[e.Name] = reps
		}
		rep := &replica{
			instance: e.Instance,
			ref:      e.Ref,
			load:     e.Load,
			lastSeen: ls,
			deadline: ls.Add(ttl),
		}
		if old != nil {
			// Keep the digest chain the direct heartbeats built; peer
			// rows carry no digests.
			rep.digest, rep.digestAt = old.digest, old.digestAt
			rep.prev, rep.prevAt = old.prev, old.prevAt
		}
		reps[e.Instance] = rep
		if ls.After(t.seen[e.Instance]) {
			t.seen[e.Instance] = ls
		}
		adopted++
	}
	return adopted, removed
}
