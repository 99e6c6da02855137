package spmd

import (
	"context"
	"errors"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/orb"
	"pardis/internal/rts"
)

// TestLeaseTableSweep pins the table semantics: acquire creates and
// renews, sweep expires exactly the silent leases and closes their
// channels. The process-wide rows follow: pardis_spmd_leases_active
// counts live leases, and pardis_spmd_leases_expired_total the swept
// ones only.
func TestLeaseTableSweep(t *testing.T) {
	active0, expired0 := ActiveLeases(), ExpiredLeases()
	rows := func(when string, active int, expired uint64) {
		t.Helper()
		if got := ActiveLeases() - active0; got != active {
			t.Errorf("%s: leases_active moved by %d, want %d", when, got, active)
		}
		if got := ExpiredLeases() - expired0; got != expired {
			t.Errorf("%s: leases_expired_total moved by %d, want %d", when, got, expired)
		}
	}
	lt := newLeaseTable(100 * time.Millisecond)
	a := lt.acquire(1)
	lt.acquire(2)
	if lt.size() != 2 {
		t.Fatalf("size = %d, want 2", lt.size())
	}
	rows("two acquired", 2, 0)
	// A fresh sweep expires nothing.
	if n := lt.sweep(time.Now()); n != 0 {
		t.Fatalf("fresh sweep expired %d leases", n)
	}
	// Renew client 1 into the future, then sweep past client 2's TTL.
	a.last.Store(time.Now().Add(time.Second).UnixNano())
	if n := lt.sweep(time.Now().Add(200 * time.Millisecond)); n != 1 {
		t.Fatalf("sweep expired %d leases, want 1", n)
	}
	if lt.size() != 1 {
		t.Fatalf("size after sweep = %d, want 1", lt.size())
	}
	rows("one swept", 1, 1)
	select {
	case <-a.expired:
		t.Fatal("renewed lease's expired channel closed")
	default:
	}
	lt.drop()
	if lt.size() != 0 {
		t.Fatalf("size after drop = %d, want 0", lt.size())
	}
	rows("dropped", 0, 1)
}

// TestFaultLeaseReclaimsAbandonedTransfer is the headline reclamation
// scenario: a client engages the collective (the invocation control
// reaches every rank and every rank arms a window) and then dies
// without shipping a single argument block. Lease expiry must unwind
// every rank's wait, reclaim every window, answer the orphaned request
// with a timeout-class verdict, end within a second the wait of a put
// the client had shipped for the invocation's second argument, which
// no rank arms (the failed dispatch ends the epoch, and the lease's
// windows go with it; the put waits out the 30 s bound without both),
// and leave the object serving other clients.
func TestFaultLeaseReclaimsAbandonedTransfer(t *testing.T) {
	reg := newReg()
	obj := startObjectCfg(t, reg, 3, true, diffusionOps, func(cfg *ObjectConfig) {
		cfg.LeaseTTL = 150 * time.Millisecond
	})

	// The dying client: raw control traffic only, declaring a
	// multi-port inout argument it will never send.
	cli := orb.NewClient(reg)
	scal := cdr.NewEncoder(cdr.BigEndian)
	scal.PutOctet(byte(cdr.BigEndian))
	inner := cdr.NewEncoderAt(cdr.BigEndian, 1)
	inner.PutLong(1)
	scal.PutOctets(inner.Bytes())
	hdr := giop.RequestHeader{
		InvocationID:     cli.NewInvocationID(),
		ResponseExpected: true,
		ObjectKey:        obj.ref.Key,
		Operation:        "diffusion",
		ThreadRank:       0,
		ThreadCount:      1,
	}
	w := &invocationWire{Method: MultiPort, Scalars: scal.Bytes(),
		Args: []*argWire{{Mode: InOut, Length: 300, ClientCounts: []int{300},
			ClientEndpoints: []string{"inproc:nowhere"}}}}

	// A put for a second argument, which the invocation does not
	// declare, waits on thread 1 for a window that will never be armed
	// there.
	late := orb.NewClient(reg)
	defer late.Close()
	key, err := giop.BlockSinkKey(hdr.InvocationID, 1)
	if err != nil {
		t.Fatal(err)
	}
	skimmed := make(chan error, 1)
	go func() {
		// Over inproc a put's write returns only once the server reads it.
		_, err := late.PutWindow(obj.ref.ThreadEndpoint(1), giop.WindowPutHeader{WindowID: key, Last: true}, make([]float64, 100))
		skimmed <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); obj.threadObjects()[1].BlockStats().Pending != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second argument's put does not wait")
		}
	}

	done := make(chan error, 1)
	go func() {
		_, _, _, err := cli.Invoke(context.Background(), obj.ref.Endpoints[0], hdr, w.encode)
		done <- err
	}()

	// Every rank parks on its window; the lease expires TTL later
	// and the communicator reports the abandoned dispatch as a timeout.
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("abandoned invocation succeeded without its blocks")
		}
		if !errors.Is(err, orb.ErrDeadlineExpired) {
			t.Fatalf("abandoned invocation: want a TIMEOUT-class error, got %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("abandoned invocation never unwound — lease expiry did not fire")
	}
	cli.Close()
	select {
	case err := <-skimmed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatalf("a put of the expired client still waits: %+v", obj.threadObjects()[1].BlockStats())
	}

	// Every rank's window and lease must be reclaimed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		leakErr := obj.noLeak(noLeak)
		leases := 0
		for _, o := range obj.threadObjects() {
			if o != nil {
				leases += o.Leases()
			}
		}
		if leakErr == nil && leases == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank state not reclaimed: %v, %d leases", leakErr, leases)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The object must still serve a well-behaved multi-port client end
	// to end.
	shipped := putsShipped()
	runClient(t, reg, 2, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		return invokeDiffusion(b, th, crossoverElems, 2)
	})
	if err := shipped(); err != nil {
		t.Fatal(err)
	}

	// And every serve loop must unwind cleanly — no rank is stranded
	// in a dispatch the dead client abandoned.
	obj.close()
	for i := 0; i < 3; i++ {
		select {
		case <-obj.donech:
		case <-time.After(20 * time.Second):
			t.Fatal("a server thread did not unwind after Close")
		}
	}
}

// TestFaultLiveClientPutSurvivesLeaseExpiry: a live client's lease
// lapses on a worker rank while its next invocation's puts wait there —
// root is busy with another client's dispatch, and a waiting put renews
// no lease. The expiry drops the client's windows, but the puts, for an
// epoch the windows never armed, wait on, land once root dispatches the
// invocation, and it succeeds. Fails with ErrLeaseExpired when a drop
// skims every put waiting on the dropped windows.
func TestFaultLiveClientPutSurvivesLeaseExpiry(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	ops := func(th rts.Thread) map[string]*Op {
		m := diffusionOps(th)
		m["hold"] = &Op{Handler: func(call *Call) error {
			if call.Thread.Rank() == 0 {
				close(held)
			}
			<-release
			return nil
		}}
		return m
	}
	reg := newReg()
	obj := startObjectCfg(t, reg, 2, true, ops, func(cfg *ObjectConfig) {
		cfg.LeaseTTL = 300 * time.Millisecond
	})
	defer obj.close()
	holder, hw, err := bindPlain(context.Background(), reg, Centralized, "", obj.ref)
	if err != nil {
		t.Fatal(err)
	}
	defer hw.Close()
	defer holder.Close()

	// watch releases root once the client's lease on the worker has
	// expired while its puts wait there.
	worker := obj.threadObjects()[1]
	leased := func(client uint64) bool {
		worker.leases.mu.Lock()
		defer worker.leases.mu.Unlock()
		return worker.leases.m[client] != nil
	}
	watch := func(client uint64) error {
		defer close(release)
		deadline := time.Now().Add(5 * time.Second)
		for worker.BlockStats().Pending == 0 {
			if time.Now().After(deadline) {
				return errors.New("the client's puts do not wait on the worker")
			}
			time.Sleep(time.Millisecond)
		}
		if !leased(client) {
			return errors.New("the client's lease expired before its puts waited: the test shows nothing")
		}
		for leased(client) {
			if time.Now().After(deadline) {
				return errors.New("the client's lease did not expire while its puts waited")
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}

	holdDone, watched := make(chan error, 1), make(chan error, 1)
	runClient(t, reg, 2, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		// The first invocation makes the binding's windows on every rank.
		if err := invokeAsyncDiffusion(context.Background(), b, th, 1000); err != nil {
			return err
		}
		if th.Rank() == 0 {
			client := leaseClient(b.oc.NewInvocationID()) // an epoch left unused
			go func() { holdDone <- holder.Invoke(context.Background(), &CallSpec{Operation: "hold"}) }()
			<-held
			go func() { watched <- watch(client) }()
		}
		if err := th.Barrier(); err != nil {
			return err
		}
		return invokeAsyncDiffusion(context.Background(), b, th, 1000)
	})
	if err := <-watched; err != nil {
		t.Fatal(err)
	}
	if err := <-holdDone; err != nil {
		t.Fatal(err)
	}
	if err := obj.noLeak(noLeak); err != nil {
		t.Fatal(err)
	}
}

// TestFaultLeaseExpiresAbandonedBind covers the client killed between
// _spmd_bind and its first invocation: the bind's describe traffic
// created leases, and with no invocation they
// must expire and leave zero rank-side state behind.
func TestFaultLeaseExpiresAbandonedBind(t *testing.T) {
	reg := newReg()
	obj := startObjectCfg(t, reg, 2, true, diffusionOps, func(cfg *ObjectConfig) {
		cfg.LeaseTTL = 80 * time.Millisecond
	})
	defer obj.close()

	b, w, err := bindPlain(context.Background(), reg, MultiPort, "inproc:*", obj.ref)
	if err != nil {
		t.Fatal(err)
	}
	total := func() int {
		n := 0
		for _, o := range obj.threadObjects() {
			if o != nil {
				n += o.Leases()
			}
		}
		return n
	}
	if total() == 0 {
		t.Fatal("bind left no lease — describe traffic did not acquire one")
	}
	// The client dies here: no invoke, no close handshake.
	deadline := time.Now().Add(10 * time.Second)
	for total() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d leases survived an abandoned bind", total())
		}
		time.Sleep(10 * time.Millisecond)
	}
	b.Close()
	w.Close()
}
