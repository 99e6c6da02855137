// Tests for the replicated control plane's convergence machinery:
// table snapshot/merge semantics (newest-renewal-wins, tombstones, the
// per-instance renewal high-water mark), the sync wire codec, the
// registrar's multi-agent fan-out, the resolver's rotation, and the
// Peers exchange loop.
package agent

import (
	"context"
	"errors"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/orb"
	"pardis/internal/transport"
)

// regAt registers one (instance, name, endpoint) row on a fake-clock
// table.
func regAt(t *testing.T, tbl *Table, inst, name, ep string, ttl time.Duration) {
	t.Helper()
	if err := tbl.Register(Registration{
		Instance: inst, TTL: ttl,
		Names: []NameRef{{Name: name, Ref: convRef("e", ep)}},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTableSnapshotMergeConverges(t *testing.T) {
	a, clkA := newFakeTable()
	b, clkB := newFakeTable()
	// Deliberate wall-clock skew: B runs an hour ahead of A. Snapshots
	// carry ages, not timestamps, so the merge must not care.
	clkB.advance(time.Hour)

	regAt(t, a, "inst-1", "svc/e", "inproc:r1", time.Second)
	regAt(t, a, "inst-2", "svc/e", "inproc:r2", time.Second)

	adopted, removed := b.Merge(a.Snapshot())
	if adopted != 2 || removed != 0 {
		t.Fatalf("merge = (%d adopted, %d removed), want (2, 0)", adopted, removed)
	}
	ref, n, err := b.Resolve("svc/e")
	if err != nil || n != 2 || len(ref.Endpoints) != 2 {
		t.Fatalf("resolve on merged table: n=%d ref=%v err=%v", n, ref, err)
	}

	// Re-merging the same snapshot is a no-op: nothing is strictly
	// newer the second time.
	if adopted, removed = b.Merge(a.Snapshot()); adopted != 0 || removed != 0 {
		t.Fatalf("idempotent re-merge = (%d, %d), want (0, 0)", adopted, removed)
	}

	// The merged rows keep their original TTL budget: one second after
	// the registration (on B's skewed clock) they expire like any
	// directly heartbeated row.
	clkA.advance(1500 * time.Millisecond)
	clkB.advance(1500 * time.Millisecond)
	if n := b.Sweep(clkB.now()); n != 2 {
		t.Fatalf("sweep expired %d merged rows, want 2", n)
	}
}

func TestTableMergeNewestRenewalWins(t *testing.T) {
	a, clkA := newFakeTable()
	b, clkB := newFakeTable()

	regAt(t, a, "inst-1", "svc/e", "inproc:old", time.Second)
	old := a.Snapshot()

	// B hears a newer heartbeat directly (the instance moved ports).
	clkA.advance(100 * time.Millisecond)
	clkB.advance(100 * time.Millisecond)
	regAt(t, b, "inst-1", "svc/e", "inproc:new", time.Second)

	// The stale peer row must not displace the newer local one.
	if adopted, _ := b.Merge(old); adopted != 0 {
		t.Fatalf("stale peer row adopted (%d), want 0", adopted)
	}
	ref, _, err := b.Resolve("svc/e")
	if err != nil || ref.Endpoints[0] != "inproc:new" {
		t.Fatalf("resolve after stale merge: %v, %v (want inproc:new)", ref, err)
	}

	// The other direction: A adopts B's strictly newer renewal.
	if adopted, _ := a.Merge(b.Snapshot()); adopted != 1 {
		t.Fatalf("newer peer row not adopted")
	}
	ref, _, _ = a.Resolve("svc/e")
	if ref.Endpoints[0] != "inproc:new" {
		t.Fatalf("A after merge resolves %v, want inproc:new", ref.Endpoints)
	}
}

func TestTableMergeTombstoneBlocksResurrection(t *testing.T) {
	a, clkA := newFakeTable()
	b, clkB := newFakeTable()

	regAt(t, a, "inst-1", "svc/e", "inproc:r1", time.Second)
	preDrain := a.Snapshot() // a partitioned peer's stale view
	if adopted, _ := b.Merge(preDrain); adopted != 1 {
		t.Fatalf("seed merge failed")
	}

	// The instance drains at A; the tombstone travels to B and removes
	// the row B adopted earlier.
	clkA.advance(10 * time.Millisecond)
	clkB.advance(10 * time.Millisecond)
	a.Deregister("inst-1")
	if adopted, removed := b.Merge(a.Snapshot()); adopted != 0 || removed != 1 {
		t.Fatalf("tombstone merge = (%d, %d), want (0, 1)", adopted, removed)
	}
	if _, _, err := b.Resolve("svc/e"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("resolve after tombstone merge: %v, want ErrNotFound", err)
	}

	// The stale pre-drain snapshot bounces back (partition heals the
	// other way): the tombstone must veto resurrection.
	if adopted, _ := b.Merge(preDrain); adopted != 0 {
		t.Fatalf("tombstoned instance resurrected from stale snapshot")
	}

	// But the instance itself re-registering (restart under the same
	// identity) clears the tombstone — direct speech beats markers.
	clkB.advance(10 * time.Millisecond)
	regAt(t, b, "inst-1", "svc/e", "inproc:r1b", time.Second)
	if _, _, err := b.Resolve("svc/e"); err != nil {
		t.Fatalf("resolve after re-register: %v", err)
	}
}

func TestTableMergeSeenVetoesDroppedNames(t *testing.T) {
	a, clkA := newFakeTable()
	b, clkB := newFakeTable()

	// The instance serves two names; both tables know.
	reg2 := Registration{Instance: "inst-1", TTL: time.Second, Names: []NameRef{
		{Name: "svc/x", Ref: convRef("x", "inproc:r1")},
		{Name: "svc/y", Ref: convRef("y", "inproc:r1")},
	}}
	if err := a.Register(reg2); err != nil {
		t.Fatal(err)
	}
	if err := b.Register(reg2); err != nil {
		t.Fatal(err)
	}

	// B hears a newer heartbeat carrying only svc/x — the instance
	// dropped svc/y. A (partitioned) still holds the old two-name view.
	clkA.advance(50 * time.Millisecond)
	clkB.advance(50 * time.Millisecond)
	regAt(t, b, "inst-1", "svc/x", "inproc:r1", time.Second)
	if _, _, err := b.Resolve("svc/y"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("svc/y survived the narrowing heartbeat: %v", err)
	}

	// Merging A's stale snapshot must not resurrect svc/y: the row is
	// older than the newest renewal B has seen from the instance.
	if adopted, _ := b.Merge(a.Snapshot()); adopted != 0 {
		t.Fatalf("dropped name resurrected by stale peer row (%d adopted)", adopted)
	}
	if _, _, err := b.Resolve("svc/y"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("svc/y resurrected: %v", err)
	}
}

func TestTableMergePingPongCannotExtendLife(t *testing.T) {
	a, clkA := newFakeTable()
	b, clkB := newFakeTable()

	regAt(t, a, "inst-1", "svc/e", "inproc:r1", 100*time.Millisecond)
	b.Merge(a.Snapshot())

	// The instance dies (no more heartbeats). A and B keep exchanging
	// snapshots; the row's deadline must never move, so both tables
	// forget it once its one registration's TTL lapses.
	for i := 0; i < 20; i++ {
		clkA.advance(10 * time.Millisecond)
		clkB.advance(10 * time.Millisecond)
		b.Merge(a.Snapshot())
		a.Merge(b.Snapshot())
		a.Sweep(clkA.now())
		b.Sweep(clkB.now())
	}
	if _, _, err := a.Resolve("svc/e"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("A kept a dead row alive through sync ping-pong: %v", err)
	}
	if _, _, err := b.Resolve("svc/e"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("B kept a dead row alive through sync ping-pong: %v", err)
	}
}

func TestSyncWireRoundTrip(t *testing.T) {
	in := SyncSnapshot{
		Entries: []SyncEntry{
			{Name: "svc/e", Instance: "inst-1", Ref: convRef("e", "inproc:r1", "inproc:r2"),
				Load: LoadReport{AdmissionQueued: 3, Inflight: 7, Draining: true},
				Age:  1500 * time.Microsecond, TTL: 75 * time.Millisecond},
			{Name: "svc/f", Instance: "inst-2", Ref: convRef("f", "inproc:r3"),
				Age: 0, TTL: time.Second},
		},
		Tombs: []SyncTombstone{{Instance: "inst-3", Age: 2 * time.Millisecond, TTL: time.Second}},
	}
	e := cdr.NewEncoder(cdr.BigEndian)
	encodeSnapshot(e, in)
	out, err := decodeSnapshot(cdr.NewDecoder(cdr.BigEndian, e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 2 || len(out.Tombs) != 1 {
		t.Fatalf("round trip sizes: %d entries, %d tombs", len(out.Entries), len(out.Tombs))
	}
	for i, want := range in.Entries {
		got := out.Entries[i]
		if got.Name != want.Name || got.Instance != want.Instance ||
			got.Age != want.Age || got.TTL != want.TTL ||
			got.Load.AdmissionQueued != want.Load.AdmissionQueued ||
			got.Load.Draining != want.Load.Draining ||
			got.Ref.Stringify() != want.Ref.Stringify() {
			t.Fatalf("entry %d round trip: got %+v, want %+v", i, got, want)
		}
	}
	if tb := out.Tombs[0]; tb != in.Tombs[0] {
		t.Fatalf("tombstone round trip: got %+v, want %+v", tb, in.Tombs[0])
	}

	// An empty snapshot travels too (a freshly started agent's first
	// sync is exactly this).
	e = cdr.NewEncoder(cdr.BigEndian)
	encodeSnapshot(e, SyncSnapshot{})
	if out, err = decodeSnapshot(cdr.NewDecoder(cdr.BigEndian, e.Bytes())); err != nil ||
		len(out.Entries) != 0 || len(out.Tombs) != 0 {
		t.Fatalf("empty round trip: %+v, %v", out, err)
	}
}

// newTwinAgents starts two agent services over one shared transport
// registry (distinct endpoints, unlike two independent wire fixtures
// whose inproc namespaces collide) and returns their tables and
// clients.
func newTwinAgents(t *testing.T) (tblA *Table, acA *Client, tblB *Table, acB *Client) {
	t.Helper()
	tblA, tblB = NewTable(), NewTable()
	cs := serveTables(t, tblA, tblB)
	return tblA, cs[0], tblB, cs[1]
}

// serveTables serves each table as an agent over one inproc registry
// and returns their clients, in order.
func serveTables(t *testing.T, tbls ...*Table) []*Client {
	t.Helper()
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	oc := orb.NewClient(reg, orb.WithDefaultDeadline(2*time.Second))
	t.Cleanup(func() { oc.Close() })
	var cs []*Client
	for _, tbl := range tbls {
		srv := orb.NewServer(reg)
		Serve(srv, tbl)
		ep, err := srv.Listen("inproc:*")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cs = append(cs, NewClient(oc, ep))
	}
	return cs
}

func TestSyncOpConvergesBothSides(t *testing.T) {
	tblA, acA, tblB, acB := newTwinAgents(t)
	ctx := context.Background()

	if err := tblA.Register(Registration{Instance: "inst-a", TTL: time.Minute,
		Names: []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:ra")}}}); err != nil {
		t.Fatal(err)
	}
	if err := tblB.Register(Registration{Instance: "inst-b", TTL: time.Minute,
		Names: []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:rb")}}}); err != nil {
		t.Fatal(err)
	}

	// One exchange: A pushes its snapshot to B and merges B's reply —
	// both sides hold the union afterwards.
	remote, err := acB.Sync(ctx, tblA.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if adopted, _ := tblA.Merge(remote); adopted != 1 {
		t.Fatalf("A adopted %d rows from B's reply, want 1", adopted)
	}
	for side, tbl := range map[string]*Table{"A": tblA, "B": tblB} {
		if _, n, err := tbl.Resolve("svc/e"); err != nil || n != 2 {
			t.Fatalf("%s after one sync round: n=%d err=%v, want 2 replicas", side, n, err)
		}
	}
	_ = acA
}

// TestSyncEchoAdoptsNothing: B's reply to A's sync echoes A's own row,
// which B adopted from A's request. Merging it must not renew the row on
// A, however long A takes from its snapshot to the request and from the
// reply to its merge: the hand-cranked clocks stretch both gaps to a
// second, where a real host's scheduling stretches them to microseconds.
func TestSyncEchoAdoptsNothing(t *testing.T) {
	tblA, clkA := newFakeTable()
	tblB, _ := newFakeTable()
	acB := serveTables(t, tblB)[0]
	regAt(t, tblA, "inst-a", "svc/e", "inproc:ra", time.Minute)
	regAt(t, tblB, "inst-b", "svc/e", "inproc:rb", time.Minute)
	clkA.advance(time.Second)

	local := tblA.Snapshot()
	clkA.advance(time.Second)
	remote, err := acB.Sync(context.Background(), local)
	if err != nil {
		t.Fatal(err)
	}
	clkA.advance(time.Second)
	if adopted, _ := tblA.Merge(remote); adopted != 1 {
		t.Fatalf("A adopted %d rows from B's reply, want 1 (B's own)", adopted)
	}
	seen := map[string]time.Duration{}
	for _, rep := range tblA.List("svc/")["svc/e"] {
		seen[rep.Instance] = rep.SinceSeen
	}
	if got, ok := seen["inst-a"]; !ok || got != 3*time.Second {
		t.Fatalf("A's own row last seen %v ago (present %v), want 3s: its echo renewed it", got, ok)
	}
}

func TestRegistrarFansOutToAllAgents(t *testing.T) {
	tblA, acA, tblB, acB := newTwinAgents(t)

	r := NewRegistrar(RegistrarConfig{
		Clients:  []*Client{acA, acB, acA}, // duplicate collapses
		Instance: "inst-1",
		Interval: 20 * time.Millisecond,
	})
	r.Add("svc/e", convRef("e", "inproc:r1"))
	r.Start()

	deadline := time.Now().Add(2 * time.Second)
	for {
		_, nA := tblA.Size()
		_, nB := tblB.Size()
		if nA == 1 && nB == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fan-out never landed: A=%d B=%d replicas", nA, nB)
		}
		time.Sleep(time.Millisecond)
	}

	// Stop deregisters from every agent, synchronously.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := r.Stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if _, nA := tblA.Size(); nA != 0 {
		t.Fatalf("A still holds %d replicas after Stop", nA)
	}
	if _, nB := tblB.Size(); nB != 0 {
		t.Fatalf("B still holds %d replicas after Stop", nB)
	}
}

func TestResolverRotatesAcrossAgents(t *testing.T) {
	// Agent A is a black void (nothing listens); agent B is live and
	// holds the row. The resolver must rotate past A within its RPC
	// timeout and answer from B.
	tblB, acB := newWireFixture(t)
	if err := tblB.Register(Registration{Instance: "inst-b", TTL: time.Minute,
		Names: []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:rb")}}}); err != nil {
		t.Fatal(err)
	}
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	oc := orb.NewClient(reg, orb.WithDefaultDeadline(time.Second))
	defer oc.Close()
	acDead := NewClient(oc, "inproc:no-such-agent")

	res := NewResolver(ResolverConfig{
		Agents:          []*Client{acDead, acB},
		FreshFor:        time.Millisecond,
		RPCTimeout:      250 * time.Millisecond,
		BreakerCooldown: 200 * time.Millisecond,
	})
	ref, err := res.RefFor(context.Background(), "svc/e")
	if err != nil || len(ref.Endpoints) != 1 || ref.Endpoints[0] != "inproc:rb" {
		t.Fatalf("rotated resolve: %v, %v", ref, err)
	}
	health := agentHealth(res)
	if health[acDead.Endpoint()] {
		t.Fatalf("dead agent's breaker not open: %v", health)
	}
	if !health[acB.Endpoint()] {
		t.Fatalf("live agent's breaker open: %v", health)
	}

	// With lastGood set to B, later resolutions never pay A's timeout.
	time.Sleep(2 * time.Millisecond)
	start := time.Now()
	if _, err = res.RefFor(context.Background(), "svc/e"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Fatalf("last-known-good resolve took %v; it re-dialed the dead agent", took)
	}
}

func TestPeersLoopConvergesAndReportsStatus(t *testing.T) {
	tblA, _, tblB, acB := newTwinAgents(t)
	if err := tblB.Register(Registration{Instance: "inst-b", TTL: time.Minute,
		Names: []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:rb")}}}); err != nil {
		t.Fatal(err)
	}

	p := NewPeers(PeersConfig{
		Table:    tblA,
		Clients:  []*Client{acB},
		Interval: 20 * time.Millisecond,
	})
	p.Start()
	defer p.Stop()

	// The immediate first round pulls B's row into A.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, n := tblA.Size(); n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer sync never converged A onto B's row")
		}
		time.Sleep(time.Millisecond)
	}

	sts := p.Status()
	if len(sts) != 1 || !sts[0].Live || sts[0].Endpoint != acB.Endpoint() {
		t.Fatalf("peer status = %+v, want one live peer at %s", sts, acB.Endpoint())
	}
	if sts[0].SinceSync < 0 {
		t.Fatalf("SinceSync = %v after a successful round", sts[0].SinceSync)
	}
	if sts[0].RemoteRows != 1 || sts[0].Divergence != 0 {
		t.Fatalf("peer status rows/divergence = %d/%d, want 1/0", sts[0].RemoteRows, sts[0].Divergence)
	}
	p.Stop() // idempotent with the deferred one
}

// agentHealth reports each configured agent's endpoint and whether its
// breaker currently lets it into the rotation.
func agentHealth(r *Resolver) map[string]bool {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]bool, len(r.agents))
	for i, c := range r.agents {
		out[c.Endpoint()] = !now.Before(r.breakers[i].openUntil)
	}
	return out
}
