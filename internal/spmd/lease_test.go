package spmd

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/orb"
	"pardis/internal/rts"
)

// TestLeaseTableSweep pins the table semantics: acquire creates and
// renews, touch renews but never creates, sweep expires exactly the
// silent leases and closes their channels.
func TestLeaseTableSweep(t *testing.T) {
	lt := newLeaseTable(100 * time.Millisecond)
	a := lt.acquire(1)
	lt.acquire(2)
	if lt.size() != 2 {
		t.Fatalf("size = %d, want 2", lt.size())
	}
	// touch must not fabricate a lease for an unknown client.
	lt.touch(3)
	if lt.size() != 2 {
		t.Fatalf("stray touch created a lease: size = %d", lt.size())
	}
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
	select {
	case <-a.expired:
		t.Fatal("renewed lease's expired channel closed")
	default:
	}
	lt.drop()
	if lt.size() != 0 {
		t.Fatalf("size after drop = %d, want 0", lt.size())
	}
}

// TestFaultLeaseReclaimsAbandonedTransfer is the headline reclamation
// scenario: a client engages the collective (the invocation control
// reaches every rank and every rank registers a window) and then
// dies without shipping a single argument block. Lease expiry must
// unwind every rank's wait, reclaim every window, answer the
// orphaned request with a timeout-class verdict, and leave the object
// serving other clients.
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

	// The object must still serve a well-behaved client end to end.
	runClient(t, reg, 2, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		return invokeDiffusion(b, th, 200, 2)
	})

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

// TestFaultLeaseExpiresAbandonedBind covers the client killed between
// _spmd_bind and its first invocation: the bind's describe traffic
// created leases, and with no invocation (and no renew pings) they
// must expire and leave zero rank-side state behind.
func TestFaultLeaseExpiresAbandonedBind(t *testing.T) {
	reg := newReg()
	obj := startObjectCfg(t, reg, 2, true, diffusionOps, func(cfg *ObjectConfig) {
		cfg.LeaseTTL = 80 * time.Millisecond
	})
	defer obj.close()

	b, w, err := BindPlain(context.Background(), reg, MultiPort, "inproc:*", obj.ref)
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
	// The client dies here: no invoke, no renew, no close handshake.
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

// TestLeaseRenewKeepsIdleBindingAlive: an idle-but-alive binding keeps
// its lease with explicit Renew pings across several TTLs, and can
// still invoke afterwards.
func TestLeaseRenewKeepsIdleBindingAlive(t *testing.T) {
	reg := newReg()
	obj := startObjectCfg(t, reg, 2, true, diffusionOps, func(cfg *ObjectConfig) {
		cfg.LeaseTTL = 100 * time.Millisecond
	})
	defer obj.close()
	runClient(t, reg, 1, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		stop := time.Now().Add(400 * time.Millisecond)
		for time.Now().Before(stop) {
			if err := b.Renew(context.Background()); err != nil {
				return err
			}
			time.Sleep(20 * time.Millisecond)
		}
		n := 0
		for _, o := range obj.threadObjects() {
			if o != nil {
				n += o.Leases()
			}
		}
		if n == 0 {
			return fmt.Errorf("lease expired despite renew pings")
		}
		return invokeDiffusion(b, th, 100, 1)
	})
}
