// Chaos suite for the replicated control plane: killing one of N
// agents mid-burst, asymmetric blackholes between registrars, clients
// and agents, peer-link partitions that heal, and agent flap against
// the resolver's breaker. All tests match -run Fault so the chaos tier
// (`make chaos`, `make chaos-agent`, `make soak`) exercises exactly
// these paths.
package agent

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/orb"
	"pardis/internal/telemetry"
	"pardis/internal/transport"
)

// haAgent is one member of a replicated control plane: a table, the
// server answering agent RPCs for it, and the peer-sync loop keeping
// it converged with the other members.
type haAgent struct {
	table     *Table
	srv       *orb.Server
	ep        string
	peers     *Peers
	stopSweep func()
}

// haFixture is a replicated control plane (n peer-synced agents) over
// a shared transport registry, plus echo replicas whose registrars fan
// heartbeats out to every agent.
type haFixture struct {
	reg      *transport.Registry
	oc       *orb.Client
	agents   []*haAgent
	replicas []*chaosReplica
	interval time.Duration // heartbeat interval
	sweep    time.Duration // sweep + peer-sync cadence
	ttl      time.Duration
}

// newHA starts n agents, each peer-synced with all the others over
// plain endpoints, sweeping (and syncing) every interval/2.
func newHA(t *testing.T, n int, interval time.Duration) *haFixture {
	t.Helper()
	fx := &haFixture{
		reg:      transport.NewRegistry(),
		interval: interval,
		sweep:    interval / 2,
		ttl:      TTLFactor * interval,
	}
	fx.reg.Register(transport.NewInproc())
	fx.oc = orb.NewClient(fx.reg, orb.WithDefaultDeadline(2*time.Second))
	t.Cleanup(func() { fx.oc.Close() })

	for i := 0; i < n; i++ {
		a := &haAgent{table: NewTable()}
		a.srv = orb.NewServer(fx.reg)
		Serve(a.srv, a.table)
		ep, err := a.srv.Listen("inproc:*")
		if err != nil {
			t.Fatal(err)
		}
		a.ep = ep
		a.stopSweep = a.table.StartSweeper(fx.sweep)
		fx.agents = append(fx.agents, a)
		t.Cleanup(func() { a.stopSweep(); a.srv.Close() })
	}
	for i, a := range fx.agents {
		var peers []*Client
		for j, b := range fx.agents {
			if j != i {
				peers = append(peers, NewClient(fx.oc, b.ep))
			}
		}
		a.peers = NewPeers(PeersConfig{Table: a.table, Clients: peers, Interval: fx.sweep})
		a.peers.Start()
		t.Cleanup(a.peers.Stop)
	}
	return fx
}

// agentEndpoints returns every agent's endpoint in fixture order.
func (fx *haFixture) agentEndpoints() []string {
	eps := make([]string, len(fx.agents))
	for i, a := range fx.agents {
		eps[i] = a.ep
	}
	return eps
}

// addReplica starts one echo server and fans its heartbeats out to the
// given agent endpoints every interval.
func (fx *haFixture) addReplica(t *testing.T, id string, interval time.Duration, agentEPs []string) *chaosReplica {
	t.Helper()
	srv := orb.NewServer(fx.reg)
	srv.Handle(chaosKey, func(in *orb.Incoming) {
		s, err := in.Decoder().String()
		if err != nil {
			_ = in.ReplySystemException("MARSHAL", err.Error())
			return
		}
		_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutString(id + ":" + s) })
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, len(agentEPs))
	for i, aep := range agentEPs {
		clients[i] = NewClient(fx.oc, aep)
	}
	r := &chaosReplica{id: id, srv: srv, ep: ep}
	r.reg = NewRegistrar(RegistrarConfig{
		Clients:  clients,
		Instance: id,
		Interval: interval,
	})
	r.reg.Add(chaosName, &ior.Ref{TypeID: "IDL:echo:1.0", Key: chaosKey,
		Threads: 1, Endpoints: []string{ep}})
	r.reg.Start()
	fx.replicas = append(fx.replicas, r)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = r.reg.Stop(ctx)
		cancel()
		srv.Close()
	})
	return r
}

// awaitTable polls one agent's table until it holds want replicas.
// Returns how long convergence took.
func awaitTable(t *testing.T, tbl *Table, want int, deadline time.Duration, what string) time.Duration {
	t.Helper()
	start := time.Now()
	for {
		if _, reps := tbl.Size(); reps == want {
			return time.Since(start)
		}
		if time.Since(start) > deadline {
			_, reps := tbl.Size()
			t.Fatalf("%s: table holds %d replicas after %v, want %d", what, reps, deadline, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill stops agent i the hard way: peer loop, sweeper and server all
// die, connections drop, nothing deregisters.
func (fx *haFixture) kill(i int) {
	a := fx.agents[i]
	a.peers.Stop()
	a.stopSweep()
	a.srv.Close()
}

// restart brings agent i back at the same endpoint with a fresh, empty
// table (state is soft) and a fresh peer loop.
func (fx *haFixture) restart(t *testing.T, i int) {
	t.Helper()
	a := fx.agents[i]
	a.table = NewTable()
	a.srv = orb.NewServer(fx.reg)
	Serve(a.srv, a.table)
	relisten := time.Now()
	for {
		if _, err := a.srv.Listen(a.ep); err == nil {
			break
		} else if time.Since(relisten) > 2*time.Second {
			t.Fatalf("relisten at %s: %v", a.ep, err)
		}
		time.Sleep(time.Millisecond)
	}
	a.stopSweep = a.table.StartSweeper(fx.sweep)
	var peers []*Client
	for j, b := range fx.agents {
		if j != i {
			peers = append(peers, NewClient(fx.oc, b.ep))
		}
	}
	a.peers = NewPeers(PeersConfig{Table: a.table, Clients: peers, Interval: fx.sweep})
	a.peers.Start()
	t.Cleanup(func() { a.peers.Stop(); a.stopSweep(); a.srv.Close() })
}

// haResolver builds an InvokeNamed-ready client + resolver over the
// given agent endpoints.
func (fx *haFixture) haResolver(freshFor time.Duration, agentEPs []string) (*orb.Client, *Resolver) {
	cli := orb.NewClient(fx.reg,
		orb.WithRetryPolicy(orb.DefaultRetryPolicy()),
		orb.WithDefaultDeadline(5*time.Second))
	agents := make([]*Client, len(agentEPs))
	for i, aep := range agentEPs {
		agents[i] = NewClient(cli, aep)
	}
	res := NewResolver(ResolverConfig{
		Agents:          agents,
		FreshFor:        freshFor,
		RPCTimeout:      500 * time.Millisecond,
		BreakerCooldown: 250 * time.Millisecond,
	})
	return cli, res
}

// TestFaultAgentKillOneOfTwoMidBurst is the replicated-control-plane
// acceptance scenario: two peer-synced agents, three replicas fanning
// heartbeats to both, a sustained concurrent burst resolving through
// both agents. Killing one agent mid-burst must be invisible to
// clients (the resolver rotates to the survivor), and the restarted
// agent must converge — from empty — within about one sweep via peer
// sync, not one TTL via heartbeats. The second input crashes a replica
// at the same kill point as the agent: still nothing reaches the
// client, and the surviving agent ranks only the two live replicas
// once the dead one's TTL lapses.
func TestFaultAgentKillOneOfTwoMidBurst(t *testing.T) {
	t.Run("agent", func(t *testing.T) { killOneOfTwoMidBurst(t, false) })
	t.Run("agent+replica", func(t *testing.T) { killOneOfTwoMidBurst(t, true) })
}

func killOneOfTwoMidBurst(t *testing.T, killReplica bool) {
	fx := newHA(t, 2, 50*time.Millisecond)
	eps := fx.agentEndpoints()
	for i := 0; i < 3; i++ {
		fx.addReplica(t, fmt.Sprintf("replica-%d", i), fx.interval, eps)
	}
	awaitTable(t, fx.agents[0].table, 3, 2*time.Second, "agent 0 seed")
	awaitTable(t, fx.agents[1].table, 3, 2*time.Second, "agent 1 seed")

	cli, res := fx.haResolver(20*time.Millisecond, eps)
	defer cli.Close()

	const (
		workers = 4
		perW    = 60
		killAt  = workers * perW / 3
	)
	var done atomic.Int64
	killed := make(chan struct{})
	go func() {
		for done.Load() < killAt {
			time.Sleep(time.Millisecond)
		}
		if killReplica {
			fx.replicas[0].crash()
		}
		fx.kill(0)
		close(killed)
	}()

	var wg sync.WaitGroup
	errs := make(chan error, workers*perW)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				msg := fmt.Sprintf("w%d-%d", w, i)
				rh, order, body, err := cli.InvokeNamed(context.Background(), res, chaosName,
					echoHeader(cli), func(e *cdr.Encoder) { e.PutString(msg) })
				if err != nil {
					errs <- fmt.Errorf("op %s: %w", msg, err)
					return
				}
				if rh.Status != giop.ReplyOK {
					errs <- fmt.Errorf("op %s: status %v", msg, rh.Status)
					return
				}
				if s, derr := cdr.NewDecoderAt(order, body, 8).String(); derr != nil || s == "" {
					errs <- fmt.Errorf("op %s: reply %q, %v", msg, s, derr)
					return
				}
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("client-visible failure: %v", err)
	}
	<-killed

	// The survivor alone still answers a fresh resolution — with every
	// live replica, which excludes a crashed one once its TTL lapses.
	live := 3
	if killReplica {
		live = 2
		awaitTable(t, fx.agents[1].table, live, 10*fx.ttl, "survivor reaps the dead replica")
	}
	res.Invalidate(chaosName)
	ref, err := res.RefFor(context.Background(), chaosName)
	if err != nil || len(ref.Endpoints) != live {
		t.Fatalf("resolve against survivor: %v, %v (want %d endpoints)", ref, err, live)
	}

	// Restart the dead agent empty: its Peers loop's immediate first
	// round pulls the survivor's table, so it converges within about
	// one sweep — several times faster than the heartbeat TTL rebuild.
	fx.restart(t, 0)
	took := awaitTable(t, fx.agents[0].table, live, fx.ttl, "restarted agent")
	t.Logf("restarted agent converged in %v (sweep %v, ttl %v)", took, fx.sweep, fx.ttl)
}

// TestFaultAgentAsymmetricBlackhole: the registrar can reach only
// agent A, the client can reach only agent B — every A-ward client
// dial and B-ward heartbeat dial is blackholed — while the peer link
// between A and B stays healthy. Peer sync must carry the replica row
// from A to B within about one sweep, and the client must resolve and
// invoke with zero visible failures.
func TestFaultAgentAsymmetricBlackhole(t *testing.T) {
	fx := newHA(t, 2, 50*time.Millisecond)
	// The faulty wrapper composes over the fixture's own inproc
	// transport, so faulty+inproc:X dials the same listener inproc:X
	// reaches — one listener, a healthy path and a blackholed path.
	faulty := transport.NewFaulty(fx.inproc(t), transport.FaultPlan{Seed: 7, Blackhole: 1})
	fx.reg.Register(faulty)

	epA, epB := fx.agents[0].ep, fx.agents[1].ep
	// Heartbeats: plain path to A, blackholed path to B.
	fx.addReplica(t, "replica-0", fx.interval, []string{epA, "faulty+" + epB})
	awaitTable(t, fx.agents[0].table, 1, 2*time.Second, "agent A via heartbeat")

	// Peer sync is now the only way the row can reach B.
	took := awaitTable(t, fx.agents[1].table, 1, 2*time.Second, "agent B via peer sync")
	t.Logf("asymmetric row reached B in %v (sweep %v, ttl %v)", took, fx.sweep, fx.ttl)

	// Client: blackholed path to A, plain path to B. Resolution rotates
	// past the blackholed agent inside its RPC timeout and answers from
	// B's synced table; the burst sees nothing.
	cli, res := fx.haResolver(20*time.Millisecond, []string{"faulty+" + epA, epB})
	defer cli.Close()
	for i := 0; i < 30; i++ {
		msg := fmt.Sprintf("op-%d", i)
		rh, order, body, err := cli.InvokeNamed(context.Background(), res, chaosName,
			echoHeader(cli), func(e *cdr.Encoder) { e.PutString(msg) })
		if err != nil || rh.Status != giop.ReplyOK {
			t.Fatalf("op %s: %v (status %v)", msg, err, rh.Status)
		}
		if s, derr := cdr.NewDecoderAt(order, body, 8).String(); derr != nil || s != "replica-0:"+msg {
			t.Fatalf("op %s: reply %q, %v", msg, s, derr)
		}
	}
	if faulty.Stats().BlackholedConns == 0 {
		t.Fatalf("fault plan injected nothing (stats %+v); the test proved nothing", faulty.Stats())
	}
}

// inproc digs the fixture's inproc transport back out of its registry
// so a faulty wrapper can compose over the same namespace.
func (fx *haFixture) inproc(t *testing.T) transport.Transport {
	t.Helper()
	tr, err := fx.reg.Lookup("inproc")
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestFaultPeerPartitionHeal: two agents whose peer link runs through
// a fault layer. While the link is blackholed the tables diverge (a
// replica registered only at A never reaches B); once it heals, B
// converges within about one sweep — and a subsequent drain at A
// propagates its tombstone to B well before the row's TTL could have
// expired it.
func TestFaultPeerPartitionHeal(t *testing.T) {
	interval := 200 * time.Millisecond
	reg := transport.NewRegistry()
	inner := transport.NewInproc()
	faulty := transport.NewFaulty(inner, transport.FaultPlan{Seed: 23})
	reg.Register(inner)
	reg.Register(faulty)
	oc := orb.NewClient(reg, orb.WithDefaultDeadline(2*time.Second))
	defer oc.Close()

	fx := &haFixture{reg: reg, oc: oc, interval: interval,
		sweep: interval / 2, ttl: TTLFactor * interval}
	for i := 0; i < 2; i++ {
		a := &haAgent{table: NewTable()}
		a.srv = orb.NewServer(reg)
		Serve(a.srv, a.table)
		ep, err := a.srv.Listen("inproc:*")
		if err != nil {
			t.Fatal(err)
		}
		a.ep = ep
		a.stopSweep = a.table.StartSweeper(fx.sweep)
		fx.agents = append(fx.agents, a)
		t.Cleanup(func() { a.stopSweep(); a.srv.Close() })
	}
	// Peer links go through the fault layer, both directions.
	for i, a := range fx.agents {
		other := fx.agents[1-i]
		a.peers = NewPeers(PeersConfig{Table: a.table,
			Clients:  []*Client{NewClient(oc, "faulty+"+other.ep)},
			Interval: fx.sweep})
		a.peers.Start()
		t.Cleanup(a.peers.Stop)
	}

	epA := fx.agents[0].ep
	// replica-0 heartbeats to A only; B learns it over the (healthy)
	// peer link.
	fx.addReplica(t, "replica-0", interval, []string{epA})
	awaitTable(t, fx.agents[0].table, 1, 2*time.Second, "A direct")
	awaitTable(t, fx.agents[1].table, 1, 2*time.Second, "B via sync")

	// Partition the peer link: all future peer dials are blackholed,
	// and bouncing both servers drops the pooled pre-partition
	// connections (a real partition kills established flows too). The
	// tables survive the bounce — only the sockets die.
	faulty.SetPlan(transport.FaultPlan{Seed: 23, Blackhole: 1})
	for _, a := range fx.agents {
		a.srv.Close()
		a.srv = orb.NewServer(reg)
		Serve(a.srv, a.table)
		relisten := time.Now()
		for {
			if _, err := a.srv.Listen(a.ep); err == nil {
				break
			} else if time.Since(relisten) > 2*time.Second {
				t.Fatalf("relisten: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
		srv := a.srv
		t.Cleanup(func() { srv.Close() })
	}

	// replica-1 arrives on A's side of the partition, with a long
	// heartbeat interval (TTL 3x) so tombstone propagation is clearly
	// distinguishable from TTL expiry later.
	fx.addReplica(t, "replica-1", 500*time.Millisecond, []string{epA})
	awaitTable(t, fx.agents[0].table, 2, 2*time.Second, "A sees replica-1")

	// Several sync cadences pass; B must NOT learn replica-1 through a
	// blackholed link. (Its replica-0 row, learned by sync with a 3x
	// interval TTL, may or may not have aged out by now — that depends
	// on the wall clock, not on the partition, so it is not asserted.)
	time.Sleep(4 * fx.sweep)
	for _, ri := range fx.agents[1].table.List(chaosName)[chaosName] {
		if ri.Instance == "replica-1" {
			t.Fatalf("B learned replica-1 during the partition (the link is blackholed)")
		}
	}
	if faulty.Stats().BlackholedConns == 0 {
		t.Fatalf("partition injected nothing (stats %+v)", faulty.Stats())
	}

	// Heal. B converges on replica-1 within about one sweep (plus the
	// timeout the in-flight blackholed round still has to pay).
	faulty.SetPlan(transport.FaultPlan{Seed: 23})
	healed := awaitTable(t, fx.agents[1].table, 2, 5*time.Second, "B after heal")
	t.Logf("B converged %v after heal (sweep %v)", healed, fx.sweep)

	// Drain replica-1 at A. Its row at B was just renewed by sync (over
	// a second of TTL left), so only the tombstone travelling the peer
	// link can explain B dropping it quickly.
	drained := fx.replicas[1]
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	if err := drained.reg.Stop(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cancel()
	gone := awaitTable(t, fx.agents[1].table, 1, time.Second, "B after tombstone")
	t.Logf("tombstone reached B in %v (row TTL had ≥1s left)", gone)
}

// flakyAgent is an always-reachable agent stub whose resolve op can be
// switched between answering and failing, counting every resolve dial
// that actually lands — the probe-count oracle for breaker tests.
type flakyAgent struct {
	ep       string
	fail     atomic.Bool
	resolves atomic.Int64
}

func newFlakyAgent(t *testing.T, reg *transport.Registry, ref *ior.Ref) *flakyAgent {
	t.Helper()
	fa := &flakyAgent{}
	srv := orb.NewServer(reg)
	srv.Handle(ServiceKey, func(in *orb.Incoming) {
		if in.Header.Operation != "resolve" {
			_ = in.ReplySystemException("BAD_OPERATION", in.Header.Operation)
			return
		}
		fa.resolves.Add(1)
		if fa.fail.Load() {
			_ = in.ReplySystemException("COMM_FAILURE", "injected flap")
			return
		}
		_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) {
			e.PutString(ref.Stringify())
			e.PutULong(1)
		})
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	fa.ep = ep
	t.Cleanup(func() { srv.Close() })
	return fa
}

// TestFaultAgentFlapBreakerCooldown: an agent flapping up and down
// must not thrash the resolver. While the breaker is open the resolver
// serves the stale cache without re-dialing the agent and without
// inflating pardis_agent_resolver_degraded_total; after the cooldown
// it probes exactly once per window; and when the agent comes back a
// probe closes the breaker and resolution returns to the agent rung.
func TestFaultAgentFlapBreakerCooldown(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	ref := convRef(chaosKey, "inproc:r1", "inproc:r2")
	fa := newFlakyAgent(t, reg, ref)

	cli := orb.NewClient(reg, orb.WithDefaultDeadline(2*time.Second))
	defer cli.Close()
	cooldown := 300 * time.Millisecond
	res := NewResolver(ResolverConfig{
		Agent:           NewClient(cli, fa.ep),
		FreshFor:        time.Millisecond, // every resolve walks the ladder
		RPCTimeout:      time.Second,
		BreakerCooldown: cooldown,
	})
	ctx := context.Background()
	degraded := func() uint64 {
		return telemetry.Default.CounterValue("pardis_agent_resolver_degraded_total")
	}

	// Up: resolve lands on the agent and primes the cache.
	got, err := res.RefFor(ctx, chaosName)
	if err != nil || len(got.Endpoints) != 2 {
		t.Fatalf("healthy resolve: %v, %v", got, err)
	}
	if n := fa.resolves.Load(); n != 1 {
		t.Fatalf("healthy resolve dialed %d times, want 1", n)
	}

	// Down: the next resolve pays one probe, opens the breaker, and
	// falls back to the stale cache.
	fa.fail.Store(true)
	time.Sleep(2 * time.Millisecond)
	d0 := degraded()
	opened := time.Now()
	got, err = res.RefFor(ctx, chaosName)
	if err != nil || len(got.Endpoints) != 2 {
		t.Fatalf("first degraded resolve: %v, %v", got, err)
	}
	if n := fa.resolves.Load(); n != 2 {
		t.Fatalf("first degraded resolve dialed %d times total, want 2", n)
	}
	if d := degraded() - d0; d != 1 {
		t.Fatalf("degraded counter moved by %d on breaker open, want 1", d)
	}

	// Hammer resolutions inside the cooldown window: all served from
	// the stale cache — zero new dials, zero degraded-counter thrash.
	d1 := degraded()
	for i := 0; i < 50 && time.Since(opened) < cooldown-50*time.Millisecond; i++ {
		got, err = res.RefFor(ctx, chaosName)
		if err != nil || len(got.Endpoints) != 2 {
			t.Fatalf("cooldown resolve %d: %v, %v", i, got, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := fa.resolves.Load(); n != 2 {
		t.Fatalf("breaker-open window re-dialed the agent (%d dials total, want 2)", n)
	}
	if d := degraded() - d1; d != 0 {
		t.Fatalf("degraded counter thrashed by %d inside the cooldown, want 0", d)
	}

	// Past the cooldown the resolver probes again — still down, so one
	// more dial, stale cache again.
	time.Sleep(time.Until(opened.Add(cooldown + 20*time.Millisecond)))
	if _, err = res.RefFor(ctx, chaosName); err != nil {
		t.Fatalf("post-cooldown resolve: %v", err)
	}
	if n := fa.resolves.Load(); n != 3 {
		t.Fatalf("post-cooldown probe count = %d dials total, want 3", n)
	}

	// Up again: after the new cooldown lapses, a probe succeeds, the
	// breaker closes, and the agent rung serves fresh answers.
	fa.fail.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err = res.RefFor(ctx, chaosName)
		if err == nil && res.AgentHealth()[fa.ep] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after the agent recovered: %v, %v", got, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil || len(got.Endpoints) != 2 {
		t.Fatalf("recovered resolve: %v, %v", got, err)
	}
}
