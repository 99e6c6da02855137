// Name-level invocation: one rung above InvokeRef's endpoint
// failover. A RefSource (typically an agent.Resolver) maps an object
// name to its current best reference; InvokeNamed walks that
// reference's replica profiles and, when an entire resolution has
// failed, invalidates it and re-resolves — so a client in a burst
// survives replicas dying faster than any cached ranking can track.
package orb

import (
	"context"
	"fmt"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/ior"
)

// RefSource yields the reference currently bound to an object name.
// Implementations may cache; Invalidate tells them the cached answer's
// endpoints all failed, so the next RefFor must consult upstream.
type RefSource interface {
	RefFor(ctx context.Context, name string) (*ior.Ref, error)
	Invalidate(name string)
}

// maxResolveRounds bounds how many fresh resolutions one logical
// invocation may consume. Each round already spends the full retry
// policy across the resolved replica set, so three rounds is a lot of
// dying infrastructure.
const maxResolveRounds = 3

// InvokeNamed resolves name through src and invokes across the
// resolved reference's failover endpoints. When every endpoint of a
// resolution fails inside the safe-to-retry window, the resolution is
// invalidated and the name re-resolved (up to maxResolveRounds
// rounds) — the client-visible contract is that a request keeps
// completing as long as *some* live replica exists, even if the one
// it was routed to died mid-burst. As with Invoke, the returned body is
// the caller's to keep.
func (c *Client) InvokeNamed(ctx context.Context, src RefSource, name string, hdr giop.RequestHeader, body func(*cdr.Encoder)) (giop.ReplyHeader, cdr.ByteOrder, []byte, error) {
	var lastErr error
	for round := 0; round < maxResolveRounds; round++ {
		ref, err := src.RefFor(ctx, name)
		if err != nil {
			if lastErr != nil {
				return giop.ReplyHeader{}, 0, nil,
					fmt.Errorf("orb: re-resolving %q after %w: %v", name, lastErr, err)
			}
			return giop.ReplyHeader{}, 0, nil, err
		}
		// round doubles as the invocation's re-resolve count so the
		// flight record of the attempt that finally lands shows how
		// many resolutions it burned getting there.
		r, err := c.invokeEndpoints(ctx, ref.FailoverEndpoints(), hdr, body, nil, round)
		if err == nil || !retryable(err) || ctx.Err() != nil {
			return r.Header, r.Order, r.Body, err
		}
		// The whole resolved replica set failed: the ranking is stale
		// (dead replicas, moved object). Drop it and ask again.
		src.Invalidate(name)
		lastErr = err
	}
	return giop.ReplyHeader{}, 0, nil,
		fmt.Errorf("orb: %q failed across %d resolutions: %w", name, maxResolveRounds, lastErr)
}
