package orb

import (
	"context"
	"sync"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/transport"
)

// stripeConns returns how many connections the client currently holds
// for endpoint.
func stripeConns(c *Client, endpoint string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stripes[endpoint]
	if st == nil {
		return 0
	}
	return len(st.conns)
}

// TestStripeSerialStaysOnOneConn: a strictly serial caller never has
// an outstanding request when the next begins, so lazy growth must
// keep the stripe at a single connection.
func TestStripeSerialStaysOnOneConn(t *testing.T) {
	cli, _, ep := newPair(t)
	for i := 0; i < 20; i++ {
		_, _, _, err := cli.Invoke(context.Background(), ep,
			requestHeader(cli, "echo", "op"),
			func(e *cdr.Encoder) { e.PutString("serial") })
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := stripeConns(cli, ep); n != 1 {
		t.Fatalf("serial caller grew the stripe to %d conns, want 1", n)
	}
}

// TestStripeGrowsUnderConcurrency: when every connection is busy the
// stripe dials more, up to the configured width and no further.
func TestStripeGrowsUnderConcurrency(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	release := make(chan struct{})
	srv.Handle("slow", func(in *Incoming) {
		<-release
		_ = in.Reply(giop.ReplyOK, nil)
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	const width = 3
	cli := NewClient(reg, WithStripes(width))
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})

	var wg sync.WaitGroup
	for i := 0; i < 4*width; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _, err := cli.Invoke(context.Background(), ep,
				requestHeader(cli, "slow", "op"), nil)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	// Wait until the stripe has saturated its width (every invoke
	// parks in the handler, so each new arrival sees all conns busy).
	deadline := time.After(5 * time.Second)
	for stripeConns(cli, ep) < width {
		select {
		case <-deadline:
			t.Fatalf("stripe stuck at %d conns, want %d", stripeConns(cli, ep), width)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()
	if n := stripeConns(cli, ep); n > width {
		t.Fatalf("stripe overgrew to %d conns, width %d", n, width)
	}
}

// TestStripeSurvivesMemberDeath: killing one stripe connection must
// fail only the requests riding it; subsequent invokes succeed and
// the dead member leaves the stripe.
func TestStripeSurvivesMemberDeath(t *testing.T) {
	cli, _, ep := newPair(t)
	if _, _, _, err := cli.Invoke(context.Background(), ep,
		requestHeader(cli, "echo", "op"),
		func(e *cdr.Encoder) { e.PutString("warm") }); err != nil {
		t.Fatal(err)
	}

	cli.mu.Lock()
	st := cli.stripes[ep]
	victim := st.conns[0]
	cli.mu.Unlock()
	victim.shutdown(ErrConnectionLost)

	for stripeConns(cli, ep) != 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		if _, _, _, err := cli.Invoke(context.Background(), ep,
			requestHeader(cli, "echo", "op"),
			func(e *cdr.Encoder) { e.PutString("after") }); err != nil {
			t.Fatalf("invoke %d after member death: %v", i, err)
		}
	}
}

// TestStripeDepthGaugeBalanced: after a run of request/reply traffic
// every stripe member's outstanding-depth gauge must read zero — the
// read loop and the invoker's deferred removal share one decrement.
func TestStripeDepthGaugeBalanced(t *testing.T) {
	cli, _, ep := newPair(t)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _, err := cli.Invoke(context.Background(), ep,
				requestHeader(cli, "echo", "op"),
				func(e *cdr.Encoder) { e.PutString("x") })
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	cli.mu.Lock()
	defer cli.mu.Unlock()
	for _, st := range cli.stripes {
		for _, cc := range st.conns {
			if d := cc.depth.Value(); d != 0 {
				t.Fatalf("stripe %d depth gauge leaked: %d", cc.slot, d)
			}
		}
	}
}

// TestWithStripesClamp: widths below one collapse to the single-conn
// behavior rather than disabling the endpoint.
func TestWithStripesClamp(t *testing.T) {
	c := NewClient(nil, WithStripes(-3))
	defer c.Close()
	if c.stripeWidth != 1 {
		t.Fatalf("stripeWidth = %d, want 1", c.stripeWidth)
	}
	if w := DefaultStripeWidth(); w < 1 || w > 4 {
		t.Fatalf("DefaultStripeWidth() = %d, want within [1,4]", w)
	}
}

// TestCancelSendsPreallocatedFrame: a canceled invoke must emit a
// CancelRequest the server can decode (the preallocated cancel body
// is wire-identical to an encoded CancelRequestHeader). The context
// is canceled explicitly rather than by deadline, so the server-side
// wakeup can only come from the cancel frame — not from a propagated
// deadline expiring on its own clock.
func TestCancelSendsPreallocatedFrame(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		reg := transport.NewRegistry()
		reg.Register(transport.NewInproc())
		srv := NewServer(reg)
		canceled := make(chan uint32, 1)
		started := make(chan struct{}, 1)
		srv.Handle("hang", func(in *Incoming) {
			started <- struct{}{}
			<-in.Ctx.Done() // released by the CancelRequest
			canceled <- in.Header.RequestID
			_ = in.Reply(giop.ReplyOK, nil)
		})
		ep, err := srv.Listen("inproc:*")
		if err != nil {
			t.Fatal(err)
		}
		cli := NewClient(reg, WithByteOrder(order))

		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, _, _, err := cli.Invoke(ctx, ep, requestHeader(cli, "hang", "op"), nil)
			errc <- err
		}()
		<-started
		cancel()
		if err := <-errc; err == nil {
			t.Fatal("hung invoke returned without error")
		}
		select {
		case <-canceled:
			// Server matched the CancelRequest to the in-flight id.
		case <-time.After(5 * time.Second):
			t.Fatalf("order %v: server never observed the cancel", order)
		}
		cli.Close()
		srv.Close()
	}
}
