// Chaos suite for the agent: replica death mid-burst, heartbeat loss,
// agent restart and agent partition. All tests match -run Fault so the
// chaos tier (`go test -run Fault -race ./...`, `make chaos`, `make
// soak`) exercises exactly these paths.
package agent

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/naming"
	"pardis/internal/orb"
	"pardis/internal/transport"
)

// chaosReplica is one echo server plus the registrar heartbeating it
// into the agent.
type chaosReplica struct {
	id  string
	srv *orb.Server
	ep  string
	reg *Registrar
}

// crash simulates process death: the heartbeats stop without a
// deregistration and the server drops its connections, so only the
// TTL can reap the table entry.
func (r *chaosReplica) crash() {
	r.reg.halt()
	r.srv.Close()
}

// chaosFixture is an agent plus n echo replicas registered with it
// over a shared transport registry.
type chaosFixture struct {
	reg      *transport.Registry
	table    *Table
	agentSrv *orb.Server
	agentEp  string
	replicas []*chaosReplica
	oc       *orb.Client // heartbeat-side orb client
	interval time.Duration
	ttl      time.Duration
}

const chaosName = "svc/echo"
const chaosKey = "objects/" + chaosName

// newChaos starts an agent (with sweeper) and n replicas whose
// registrars heartbeat every interval (TTL = TTLFactor x interval).
// agentScheme lets a test put the agent behind "faulty+inproc:" while
// the replicas stay on plain "inproc:".
func newChaos(t *testing.T, n int, interval time.Duration, agentScheme string) *chaosFixture {
	t.Helper()
	fx := &chaosFixture{
		reg:      transport.NewRegistry(),
		table:    NewTable(),
		interval: interval,
		ttl:      TTLFactor * interval,
	}
	fx.reg.Register(transport.NewInproc())

	fx.agentSrv = orb.NewServer(fx.reg)
	Serve(fx.agentSrv, fx.table)
	aep, err := fx.agentSrv.Listen(agentScheme + "*")
	if err != nil {
		t.Fatal(err)
	}
	fx.agentEp = aep
	stopSweep := fx.table.StartSweeper(interval / 2)
	t.Cleanup(stopSweep)

	fx.oc = orb.NewClient(fx.reg, orb.WithDefaultDeadline(2*time.Second))
	t.Cleanup(func() { fx.oc.Close() })

	for i := 0; i < n; i++ {
		fx.addReplica(t, fmt.Sprintf("replica-%d", i))
	}
	return fx
}

// addReplica starts one echo server (its reply names it) and begins
// heartbeating it into the agent.
func (fx *chaosFixture) addReplica(t *testing.T, id string) *chaosReplica {
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
	r := &chaosReplica{id: id, srv: srv, ep: ep}
	r.reg = NewRegistrar(RegistrarConfig{
		Client:   NewClient(fx.oc, fx.agentEp),
		Instance: id,
		Interval: fx.interval,
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

// awaitReplicas polls until the table holds want replicas or the
// deadline passes.
func (fx *chaosFixture) awaitReplicas(t *testing.T, want int, deadline time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	for {
		if _, reps := fx.table.Size(); reps == want {
			return time.Since(start)
		}
		if time.Since(start) > deadline {
			_, reps := fx.table.Size()
			t.Fatalf("table holds %d replicas after %v, want %d", reps, deadline, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// echoHeader builds a request header for the chaos echo object.
func echoHeader(cli *orb.Client) giop.RequestHeader {
	return giop.RequestHeader{
		InvocationID:     cli.NewInvocationID(),
		ResponseExpected: true,
		ObjectKey:        chaosKey,
		Operation:        "echo",
		ThreadRank:       -1,
		ThreadCount:      1,
	}
}

// burstClient is an orb client + resolver wired for InvokeNamed
// against the fixture's agent.
func (fx *chaosFixture) burstClient(freshFor time.Duration) (*orb.Client, *Resolver) {
	cli := orb.NewClient(fx.reg,
		orb.WithRetryPolicy(orb.DefaultRetryPolicy()),
		orb.WithDefaultDeadline(5*time.Second))
	res := NewResolver(ResolverConfig{
		Agent:      NewClient(cli, fx.agentEp),
		FreshFor:   freshFor,
		RPCTimeout: 500 * time.Millisecond,
	})
	return cli, res
}

// TestFaultReplicaDeathMidBurst is the acceptance scenario: three
// heartbeat-tracked replicas under a sustained concurrent burst;
// killing one mid-burst must yield zero client-visible failures (the
// ranked reference's failover chain and re-resolution absorb it), and
// the dead replica must age out of the agent table within a few TTLs.
func TestFaultReplicaDeathMidBurst(t *testing.T) {
	fx := newChaos(t, 3, 25*time.Millisecond, "inproc:")
	fx.awaitReplicas(t, 3, 2*time.Second)

	cli, res := fx.burstClient(20 * time.Millisecond)
	defer cli.Close()

	const (
		workers = 4
		perW    = 60
		killAt  = workers * perW / 3
	)
	var done atomic.Int64
	killed := make(chan struct{})
	// The killer waits for the burst to be well underway, then crashes
	// replica 0 (connection drop + heartbeat stop, no deregistration).
	go func() {
		for done.Load() < killAt {
			time.Sleep(time.Millisecond)
		}
		fx.replicas[0].crash()
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

	// The dead replica misses heartbeats and ages out; resolution
	// converges on the two survivors.
	deadline := time.Now().Add(10 * fx.ttl)
	for {
		ref, n, err := fx.table.Resolve(chaosName)
		if err == nil && n == 2 && len(ref.Endpoints) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead replica still ranked after %v: n=%d err=%v", 10*fx.ttl, n, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFaultHeartbeatLossExpiresReplica: a replica whose heartbeats
// stop (without deregistering) leaves the table by TTL — but not
// before it, so a healthy heartbeat cadence never flaps.
func TestFaultHeartbeatLossExpiresReplica(t *testing.T) {
	fx := newChaos(t, 2, 25*time.Millisecond, "inproc:")
	fx.awaitReplicas(t, 2, 2*time.Second)

	// A couple of TTLs of healthy cadence: nothing may expire.
	time.Sleep(2 * fx.ttl)
	if _, reps := fx.table.Size(); reps != 2 {
		t.Fatalf("healthy replicas flapped: table holds %d", reps)
	}

	fx.replicas[1].crash()
	fx.awaitReplicas(t, 1, 10*fx.ttl)
	ref, n, err := fx.table.Resolve(chaosName)
	if err != nil || n != 1 {
		t.Fatalf("resolve after expiry: n=%d err=%v", n, err)
	}
	if len(ref.Endpoints) != 1 || ref.Endpoints[0] != fx.replicas[0].ep {
		t.Fatalf("survivor endpoints = %v, want %v", ref.Endpoints, fx.replicas[0].ep)
	}
}

// TestFaultDrainDeregisters: a graceful drain (registrar.Stop, the
// pardisd -drain path) removes the replica synchronously — no TTL
// wait, no stale registration window.
func TestFaultDrainDeregisters(t *testing.T) {
	fx := newChaos(t, 2, 25*time.Millisecond, "inproc:")
	fx.awaitReplicas(t, 2, 2*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := fx.replicas[0].reg.Stop(ctx); err != nil {
		t.Fatalf("drain-stop: %v", err)
	}
	// Immediately — not within a TTL — the table holds one replica.
	ref, n, err := fx.table.Resolve(chaosName)
	if err != nil || n != 1 {
		t.Fatalf("resolve right after drain: n=%d err=%v", n, err)
	}
	if len(ref.Endpoints) != 1 || ref.Endpoints[0] != fx.replicas[1].ep {
		t.Fatalf("post-drain endpoints = %v, want only %v", ref.Endpoints, fx.replicas[1].ep)
	}
}

// TestFaultAgentRestartMidBurst: the agent dies and restarts empty;
// heartbeats must rebuild the full table within one TTL of the new
// agent listening, and a client burst spanning the outage sees zero
// failures (it degrades to its cached reference while the agent is
// away).
func TestFaultAgentRestartMidBurst(t *testing.T) {
	fx := newChaos(t, 3, 50*time.Millisecond, "inproc:")
	fx.awaitReplicas(t, 3, 2*time.Second)

	cli, res := fx.burstClient(25 * time.Millisecond)
	defer cli.Close()

	// Sustained background burst across the restart.
	stop := make(chan struct{})
	var burstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				msg := fmt.Sprintf("w%d-%d", w, i)
				_, _, _, err := cli.InvokeNamed(context.Background(), res, chaosName,
					echoHeader(cli), func(e *cdr.Encoder) { e.PutString(msg) })
				if err != nil {
					burstErr.Store(fmt.Errorf("op %s: %w", msg, err))
					return
				}
			}
		}(w)
	}

	// Prime the resolver cache, then kill the agent.
	time.Sleep(2 * fx.interval)
	fx.agentSrv.Close()
	time.Sleep(2 * fx.interval) // a whole outage's worth of burst ops

	// Restart: a fresh, empty table at the same endpoint (state is
	// soft — nothing is carried over).
	fx.table = NewTable()
	fx.agentSrv = orb.NewServer(fx.reg)
	Serve(fx.agentSrv, fx.table)
	var err error
	relisten := time.Now()
	for {
		if _, err = fx.agentSrv.Listen(fx.agentEp); err == nil {
			break
		}
		if time.Since(relisten) > 2*time.Second {
			t.Fatalf("relisten at %s: %v", fx.agentEp, err)
		}
		time.Sleep(time.Millisecond)
	}
	defer fx.agentSrv.Close()
	stopSweep := fx.table.StartSweeper(fx.interval / 2)
	defer stopSweep()

	// The rebuild contract: every replica is back within one TTL.
	rebuilt := fx.awaitReplicas(t, 3, fx.ttl)
	t.Logf("table rebuilt from heartbeats in %v (TTL %v)", rebuilt, fx.ttl)

	close(stop)
	wg.Wait()
	if err, _ := burstErr.Load().(error); err != nil {
		t.Fatalf("client-visible failure across agent restart: %v", err)
	}
}

// TestFaultAgentBlackhole: with the agent one-way partitioned (writes
// vanish, no close), resolution must degrade within its RPC timeout —
// to the stale cache when one exists, else to the static naming
// registry — and recover once the partition heals.
func TestFaultAgentBlackhole(t *testing.T) {
	reg := transport.NewRegistry()
	inner := transport.NewInproc()
	faulty := transport.NewFaulty(inner, transport.FaultPlan{Seed: 11})
	reg.Register(inner)
	reg.Register(faulty)

	// Agent behind the fault layer; its table holds a 3-endpoint row.
	tbl := NewTable()
	asrv := orb.NewServer(reg)
	Serve(asrv, tbl)
	aep, err := asrv.Listen("faulty+inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer asrv.Close()
	if err := tbl.Register(Registration{Instance: "inst-a", TTL: time.Hour,
		Names: []NameRef{{Name: chaosName, Ref: &ior.Ref{TypeID: "IDL:echo:1.0",
			Key: chaosKey, Threads: 1,
			Endpoints: []string{"inproc:r0", "inproc:r1", "inproc:r2"}}}}}); err != nil {
		t.Fatal(err)
	}

	// Static naming fallback with a distinguishable 1-endpoint binding,
	// reachable on the healthy transport.
	nreg := naming.NewRegistry()
	if err := nreg.Bind(chaosName, &ior.Ref{TypeID: "IDL:echo:1.0", Key: chaosKey,
		Threads: 1, Endpoints: []string{"inproc:static"}}, false); err != nil {
		t.Fatal(err)
	}
	nsrv := orb.NewServer(reg)
	naming.Serve(nsrv, nreg)
	nep, err := nsrv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer nsrv.Close()

	cli := orb.NewClient(reg, orb.WithDefaultDeadline(2*time.Second))
	defer cli.Close()
	freshFor := 30 * time.Millisecond
	rpcTimeout := 150 * time.Millisecond
	res := NewResolver(ResolverConfig{
		Agent:      NewClient(cli, aep),
		Naming:     naming.NewClient(cli, nep),
		FreshFor:   freshFor,
		RPCTimeout: rpcTimeout,
	})
	ctx := context.Background()

	// Healthy: the agent's ranked 3-endpoint merge.
	ref, err := res.RefFor(ctx, chaosName)
	if err != nil || len(ref.Endpoints) != 3 {
		t.Fatalf("healthy resolve: %v, %v", ref, err)
	}

	// Partition the agent. The resolver's pooled connection was dialed
	// pre-partition, so close the server side too: the client's next
	// dial goes through the blackhole plan.
	faulty.SetPlan(transport.FaultPlan{Seed: 11, Blackhole: 1})
	asrv.Close()

	// Past FreshFor, the resolver must try the agent, hang only for
	// RPCTimeout, and fall back — to the stale cached ranking first.
	time.Sleep(freshFor + 5*time.Millisecond)
	start := time.Now()
	ref, err = res.RefFor(ctx, chaosName)
	took := time.Since(start)
	if err != nil || len(ref.Endpoints) != 3 {
		t.Fatalf("degraded resolve: %v, %v", ref, err)
	}
	if took > rpcTimeout+time.Second {
		t.Fatalf("degraded resolve took %v, want ~%v (the partition must not stall clients)", took, rpcTimeout)
	}

	// With the cache invalidated (all three replicas "died"), the
	// ladder bottoms out at static naming.
	res.Invalidate(chaosName)
	ref, err = res.RefFor(ctx, chaosName)
	if err != nil || len(ref.Endpoints) != 1 || ref.Endpoints[0] != "inproc:static" {
		t.Fatalf("naming-fallback resolve: %v, %v", ref, err)
	}
	if faulty.Stats().BlackholedConns == 0 {
		t.Fatalf("fault plan injected nothing (stats %+v); the test proved nothing", faulty.Stats())
	}

	// Heal the partition and restart the agent at the same endpoint:
	// resolution must climb back to the ranked agent answer.
	faulty.SetPlan(transport.FaultPlan{Seed: 11})
	asrv2 := orb.NewServer(reg)
	Serve(asrv2, tbl)
	relisten := time.Now()
	for {
		if _, err = asrv2.Listen(aep); err == nil {
			break
		}
		if time.Since(relisten) > 2*time.Second {
			t.Fatalf("relisten: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	defer asrv2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		res.Invalidate(chaosName)
		ref, err = res.RefFor(ctx, chaosName)
		if err == nil && len(ref.Endpoints) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resolution never recovered to the agent: %v, %v", ref, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFaultRegistrarSurvivesAgentOutage: heartbeats failing (agent
// down) never crash or wedge the registrar; once the agent is back the
// next beat re-registers. This is the soft-dependency contract from
// the server's side.
func TestFaultRegistrarSurvivesAgentOutage(t *testing.T) {
	fx := newChaos(t, 1, 25*time.Millisecond, "inproc:")
	fx.awaitReplicas(t, 1, 2*time.Second)

	fx.agentSrv.Close()
	time.Sleep(4 * fx.interval) // several failed beats

	fx.table = NewTable()
	fx.agentSrv = orb.NewServer(fx.reg)
	Serve(fx.agentSrv, fx.table)
	var err error
	relisten := time.Now()
	for {
		if _, err = fx.agentSrv.Listen(fx.agentEp); err == nil {
			break
		}
		if time.Since(relisten) > 2*time.Second {
			t.Fatalf("relisten: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	defer fx.agentSrv.Close()

	fx.awaitReplicas(t, 1, fx.ttl)

	// And a graceful stop against the recovered agent still works.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := fx.replicas[0].reg.Stop(ctx); err != nil {
		t.Fatalf("stop after outage: %v", err)
	}
	if _, _, err := fx.table.Resolve(chaosName); !errors.Is(err, ErrNotFound) {
		t.Fatalf("resolve after stop: %v, want ErrNotFound", err)
	}
}
