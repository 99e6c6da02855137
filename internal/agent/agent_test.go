package agent

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/naming"
	"pardis/internal/orb"
	"pardis/internal/telemetry"
	"pardis/internal/transport"
)

// convRef builds a conventional (single-thread) reference.
func convRef(key string, eps ...string) *ior.Ref {
	return &ior.Ref{TypeID: "IDL:echo:1.0", Key: key, Threads: 1, Endpoints: eps}
}

// fakeClock gives a table a hand-cranked time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newFakeTable() (*Table, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tbl := NewTable()
	tbl.now = clk.now
	return tbl, clk
}

func TestTableRegisterRanksByLoad(t *testing.T) {
	tbl, _ := newFakeTable()
	reg := func(inst, ep string, queued int) {
		err := tbl.Register(Registration{
			Instance: inst, TTL: time.Second,
			Names: []NameRef{{Name: "svc/e", Ref: convRef("e", ep)}},
			Load:  LoadReport{AdmissionQueued: queued},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	reg("inst-a", "inproc:a", 5)
	reg("inst-b", "inproc:b", 0)

	ref, n, err := tbl.Resolve("svc/e")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replicas = %d, want 2", n)
	}
	// b is less loaded: its endpoint must lead the merged profile list.
	if len(ref.Endpoints) != 2 || ref.Endpoints[0] != "inproc:b" || ref.Endpoints[1] != "inproc:a" {
		t.Fatalf("merged endpoints = %v, want [inproc:b inproc:a]", ref.Endpoints)
	}

	// A heartbeat carrying new load re-ranks: a drops to zero queue,
	// b reports queueing — a now leads.
	reg("inst-a", "inproc:a", 0)
	reg("inst-b", "inproc:b", 9)
	ref, _, err = tbl.Resolve("svc/e")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Endpoints[0] != "inproc:a" {
		t.Fatalf("after re-rank, endpoints = %v, want inproc:a first", ref.Endpoints)
	}
}

func TestTableDrainingRanksLast(t *testing.T) {
	tbl, _ := newFakeTable()
	for _, r := range []Registration{
		{Instance: "inst-a", TTL: time.Second,
			Names: []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:a")}},
			Load:  LoadReport{Draining: true}},
		{Instance: "inst-b", TTL: time.Second,
			Names: []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:b")}},
			Load:  LoadReport{AdmissionQueued: 100, AdmissionRunning: 100}},
	} {
		if err := tbl.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	ref, _, err := tbl.Resolve("svc/e")
	if err != nil {
		t.Fatal(err)
	}
	// However loaded, a live replica outranks a draining one.
	if ref.Endpoints[0] != "inproc:b" {
		t.Fatalf("endpoints = %v, want the non-draining replica first", ref.Endpoints)
	}
}

func TestTableSweepExpiresMissedHeartbeats(t *testing.T) {
	tbl, clk := newFakeTable()
	r := Registration{Instance: "inst-a", TTL: 100 * time.Millisecond,
		Names: []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:a")}}}
	if err := tbl.Register(r); err != nil {
		t.Fatal(err)
	}

	// Renewals push the deadline out.
	clk.advance(80 * time.Millisecond)
	if err := tbl.Register(r); err != nil {
		t.Fatal(err)
	}
	clk.advance(80 * time.Millisecond)
	if n := tbl.Sweep(clk.now()); n != 0 {
		t.Fatalf("sweep expired %d replicas despite renewal", n)
	}
	if _, _, err := tbl.Resolve("svc/e"); err != nil {
		t.Fatalf("resolve after renewal: %v", err)
	}

	// A missed heartbeat ages the replica out.
	clk.advance(200 * time.Millisecond)
	if n := tbl.Sweep(clk.now()); n != 1 {
		t.Fatalf("sweep expired %d replicas, want 1", n)
	}
	if _, _, err := tbl.Resolve("svc/e"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("resolve after expiry: %v, want ErrNotFound", err)
	}
	if names, reps := tbl.Size(); names != 0 || reps != 0 {
		t.Fatalf("table still holds %d names / %d replicas", names, reps)
	}
}

func TestTableHeartbeatDropsAbandonedNames(t *testing.T) {
	tbl, _ := newFakeTable()
	if err := tbl.Register(Registration{Instance: "inst-a", TTL: time.Second,
		Names: []NameRef{
			{Name: "svc/x", Ref: convRef("x", "inproc:a")},
			{Name: "svc/y", Ref: convRef("y", "inproc:a")},
		}}); err != nil {
		t.Fatal(err)
	}
	// The next heartbeat no longer carries svc/y: it must leave
	// immediately, not age out.
	if err := tbl.Register(Registration{Instance: "inst-a", TTL: time.Second,
		Names: []NameRef{{Name: "svc/x", Ref: convRef("x", "inproc:a")}}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.Resolve("svc/y"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("abandoned name still resolves: %v", err)
	}
	if _, _, err := tbl.Resolve("svc/x"); err != nil {
		t.Fatalf("kept name lost: %v", err)
	}
}

func TestTableDeregisterIsImmediateAndIdempotent(t *testing.T) {
	tbl, _ := newFakeTable()
	for _, inst := range []string{"inst-a", "inst-b"} {
		if err := tbl.Register(Registration{Instance: inst, TTL: time.Hour,
			Names: []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:"+inst)}}}); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Deregister("inst-a")
	ref, n, err := tbl.Resolve("svc/e")
	if err != nil || n != 1 || len(ref.Endpoints) != 1 || ref.Endpoints[0] != "inproc:inst-b" {
		t.Fatalf("after deregister: ref=%v n=%d err=%v", ref, n, err)
	}
	tbl.Deregister("inst-a") // repeat must be a no-op
	tbl.Deregister("inst-b")
	if _, _, err := tbl.Resolve("svc/e"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("resolve after full deregister: %v", err)
	}
}

func TestTableSPMDResolvePicksBestWithoutMerging(t *testing.T) {
	tbl, _ := newFakeTable()
	spmdRef := func(eps ...string) *ior.Ref {
		return &ior.Ref{TypeID: "IDL:sim:1.0", Key: "sim", Threads: len(eps), Endpoints: eps}
	}
	for _, r := range []Registration{
		{Instance: "inst-a", TTL: time.Second,
			Names: []NameRef{{Name: "svc/sim", Ref: spmdRef("inproc:a0", "inproc:a1")}},
			Load:  LoadReport{SPMDLeases: 40}},
		{Instance: "inst-b", TTL: time.Second,
			Names: []NameRef{{Name: "svc/sim", Ref: spmdRef("inproc:b0", "inproc:b1")}}},
	} {
		if err := tbl.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	ref, n, err := tbl.Resolve("svc/sim")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replicas = %d, want 2", n)
	}
	// SPMD profiles pin threads to ports: no merging, the best-ranked
	// replica's reference comes back whole.
	if len(ref.Endpoints) != 2 || ref.Endpoints[0] != "inproc:b0" || ref.Endpoints[1] != "inproc:b1" {
		t.Fatalf("SPMD resolve merged endpoints: %v", ref.Endpoints)
	}
}

func TestTableRejectsBadRegistrations(t *testing.T) {
	tbl, _ := newFakeTable()
	if err := tbl.Register(Registration{TTL: time.Second,
		Names: []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:a")}}}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("empty instance accepted: %v", err)
	}
	if err := tbl.Register(Registration{Instance: "i", TTL: time.Second,
		Names: []NameRef{{Name: "", Ref: convRef("e", "inproc:a")}}}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("empty name accepted: %v", err)
	}
	if err := tbl.Register(Registration{Instance: "i", TTL: time.Second,
		Names: []NameRef{{Name: "svc/e", Ref: &ior.Ref{}}}}); err == nil {
		t.Fatal("invalid ref accepted")
	}
}

// newWireFixture starts an agent service over inproc and returns a
// client for it.
func newWireFixture(t *testing.T) (*Table, *Client) {
	t.Helper()
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	tbl := NewTable()
	srv := orb.NewServer(reg)
	Serve(srv, tbl)
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	oc := orb.NewClient(reg, orb.WithDefaultDeadline(2*time.Second))
	t.Cleanup(func() { oc.Close(); srv.Close() })
	return tbl, NewClient(oc, ep)
}

func TestAgentWireRoundTrip(t *testing.T) {
	_, ac := newWireFixture(t)
	ctx := context.Background()

	for _, r := range []Registration{
		{Instance: "inst-a", TTL: time.Minute,
			Names: []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:a")}},
			Load:  LoadReport{AdmissionRunning: 2, AdmissionQueued: 7, SPMDLeases: 1}},
		{Instance: "inst-b", TTL: time.Minute,
			Names: []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:b")}}},
	} {
		if err := ac.Register(ctx, r); err != nil {
			t.Fatal(err)
		}
	}

	ref, n, err := ac.Resolve(ctx, "svc/e")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(ref.Endpoints) != 2 || ref.Endpoints[0] != "inproc:b" {
		t.Fatalf("resolve = %v (n=%d), want b-first merge of 2", ref.Endpoints, n)
	}

	rows, err := ac.List(ctx, "svc/")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Name != "svc/e" || len(rows[0].Replicas) != 2 {
		t.Fatalf("list = %+v", rows)
	}
	best := rows[0].Replicas[0]
	if best.Instance != "inst-b" || best.Score != 0 {
		t.Fatalf("best replica = %+v, want idle inst-b", best)
	}
	if rows[0].Replicas[1].Score <= 0 {
		t.Fatalf("loaded replica scored %v, want > 0", rows[0].Replicas[1].Score)
	}

	if err := ac.Deregister(ctx, "inst-a"); err != nil {
		t.Fatal(err)
	}
	if err := ac.Deregister(ctx, "inst-b"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ac.Resolve(ctx, "svc/e"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("resolve after deregister = %v, want ErrNotFound", err)
	}
}

func TestRegistrarHeartbeatsAndStops(t *testing.T) {
	tbl, ac := newWireFixture(t)
	r := NewRegistrar(RegistrarConfig{
		Client:   ac,
		Interval: 20 * time.Millisecond,
		Load:     func() LoadReport { return LoadReport{Inflight: 3} },
	})
	r.Add("svc/e", convRef("e", "inproc:a"))
	r.Start()

	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, reps := tbl.Size(); reps == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("registration never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	rows := tbl.List("svc/")
	if len(rows["svc/e"]) != 1 || rows["svc/e"][0].Score != 3 {
		t.Fatalf("registered replica = %+v, want inflight load 3", rows["svc/e"])
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := r.Stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
	// Deregistration is synchronous: the table is empty the moment
	// Stop returns, no TTL wait.
	if names, reps := tbl.Size(); names != 0 || reps != 0 {
		t.Fatalf("table after Stop: %d names / %d replicas", names, reps)
	}
	if err := r.Stop(ctx); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

func TestResolverLadder(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())

	// Agent with one row.
	tbl := NewTable()
	asrv := orb.NewServer(reg)
	Serve(asrv, tbl)
	aep, err := asrv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Register(Registration{Instance: "inst-a", TTL: time.Hour,
		Names: []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:a", "inproc:b")}}}); err != nil {
		t.Fatal(err)
	}

	// Naming fallback with a different (distinguishable) binding.
	nreg := naming.NewRegistry()
	if err := nreg.Bind("svc/e", convRef("e", "inproc:static"), false); err != nil {
		t.Fatal(err)
	}
	nsrv := orb.NewServer(reg)
	naming.Serve(nsrv, nreg)
	nep, err := nsrv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer nsrv.Close()

	oc := orb.NewClient(reg, orb.WithDefaultDeadline(time.Second))
	defer oc.Close()
	res := NewResolver(ResolverConfig{
		Agent:      NewClient(oc, aep),
		Naming:     naming.NewClient(oc, nep),
		FreshFor:   50 * time.Millisecond,
		RPCTimeout: 200 * time.Millisecond,
	})
	ctx := context.Background()

	// Every answer is counted once, under the rung that gave it, in
	// pardis_agent_resolver_total{source}.
	sources := func() map[string]uint64 {
		m := map[string]uint64{}
		for _, src := range []string{"agent", "fresh_cache", "stale_cache", "naming"} {
			m[src] = telemetry.Default.Counter("pardis_agent_resolver_total", "source", src).Value()
		}
		return m
	}
	counted := sources()
	answeredBy := func(rung string) {
		t.Helper()
		now := sources()
		for src, n := range now {
			want := counted[src]
			if src == rung {
				want++
			}
			if n != want {
				t.Errorf("after the %s rung, resolver_total{source=%q} = %d, want %d", rung, src, n, want)
			}
		}
		counted = now
	}

	// Rung 2: the agent answers with its 2-endpoint merge.
	ref, err := res.RefFor(ctx, "svc/e")
	if err != nil || len(ref.Endpoints) != 2 {
		t.Fatalf("agent rung: %v, %v", ref, err)
	}
	answeredBy("agent")

	// Rung 1: within FreshFor the cache answers even with the agent
	// gone.
	asrv.Close()
	ref, err = res.RefFor(ctx, "svc/e")
	if err != nil || len(ref.Endpoints) != 2 {
		t.Fatalf("fresh-cache rung: %v, %v", ref, err)
	}
	answeredBy("fresh_cache")

	// Rung 3: past FreshFor the agent is consulted, fails, and the
	// stale cache keeps the client going... but this resolver also has
	// a naming fallback, which outranks nothing — stale cache is only
	// used when the agent errs. Per the ladder, an unreachable agent
	// with a cached answer serves the stale cache.
	time.Sleep(60 * time.Millisecond)
	ref, err = res.RefFor(ctx, "svc/e")
	if err != nil || len(ref.Endpoints) != 2 {
		t.Fatalf("stale-cache rung: %v, %v", ref, err)
	}
	answeredBy("stale_cache")

	// Rung 4: with no cache at all, the static naming registry is the
	// last rung.
	res.Invalidate("svc/e")
	ref, err = res.RefFor(ctx, "svc/e")
	if err != nil || len(ref.Endpoints) != 1 || ref.Endpoints[0] != "inproc:static" {
		t.Fatalf("naming rung: %v, %v", ref, err)
	}
	answeredBy("naming")

	// Unknown names miss every rung.
	if _, err := res.RefFor(ctx, "svc/none"); err == nil {
		t.Fatal("unknown name resolved")
	}
}

func TestLoadReportScoreOrdersSensibly(t *testing.T) {
	idle := LoadReport{}
	queued := LoadReport{AdmissionQueued: 3}
	busy := LoadReport{AdmissionRunning: 3}
	draining := LoadReport{Draining: true}
	if !(idle.Score() < busy.Score() && busy.Score() < queued.Score()) {
		t.Fatalf("score order: idle=%v busy=%v queued=%v", idle.Score(), busy.Score(), queued.Score())
	}
	if draining.Score() < queued.Score() {
		t.Fatalf("draining (%v) must outrank any load (%v)", draining.Score(), queued.Score())
	}
}

// TestWireLabelsAddNoSeries: the registry never forgets a series, so
// no label value may come off the wire. A peer that sends requests
// for 10 000 distinct unknown object keys, and for distinct unknown
// operations on the agent and naming services, must not grow the
// process registry by more than a small constant, nor the flight
// recorder by more than its per-side op cap (256) plus the overflow
// shard.
func TestWireLabelsAddNoSeries(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := orb.NewServer(reg)
	Serve(srv, NewTable())
	naming.Serve(srv, naming.NewRegistry())
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := reg.Dial(ep)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var id uint32
	send := func(key, op string) {
		t.Helper()
		id++
		hdr := giop.RequestHeader{RequestID: id, ResponseExpected: true,
			ObjectKey: key, Operation: op, ThreadRank: -1, ThreadCount: 1}
		e := cdr.NewEncoder(cdr.BigEndian)
		hdr.Encode(e)
		if err := giop.WriteMessage(conn, cdr.BigEndian, giop.MsgRequest, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		if mt, _, _, err := giop.ReadMessage(conn); err != nil || mt != giop.MsgReply {
			t.Fatalf("request %d (%s.%s): reply %v, %v", id, key, op, mt, err)
		}
	}
	// One of each first, so every series these paths legitimately own
	// (per served key, per process) exists before the count.
	send("no-such-key", "op")
	send(ServiceKey, "no-such-op")
	send(naming.ServiceKey, "no-such-op")
	before := len(telemetry.Default.Snapshot())
	flightBefore := len(telemetry.DefaultFlight.Snapshot())
	for i := range 10000 {
		send(fmt.Sprintf("unknown-key-%d", i), "op")
	}
	for i := range 1000 {
		send(ServiceKey, fmt.Sprintf("unknown-op-%d", i))
		send(naming.ServiceKey, fmt.Sprintf("unknown-op-%d", i))
	}
	if grew := len(telemetry.Default.Snapshot()) - before; grew > 4 {
		t.Fatalf("12 000 requests with wire-chosen keys and operations added %d registry series", grew)
	}
	if grew := len(telemetry.DefaultFlight.Snapshot()) - flightBefore; grew > 256+1 {
		t.Fatalf("1 000 distinct wire-chosen operations added %d flight recorder shards", grew)
	}
}
