package agent

import (
	"context"
	"fmt"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/orb"
)

// Client talks to a remote agent service.
type Client struct {
	orb      *orb.Client
	endpoint string
}

// NewClient returns an agent client talking to the service at
// endpoint through oc.
func NewClient(oc *orb.Client, endpoint string) *Client {
	return &Client{orb: oc, endpoint: endpoint}
}

// Endpoint returns the agent service endpoint this client targets.
func (c *Client) Endpoint() string { return c.endpoint }

func (c *Client) invoke(ctx context.Context, op string, body func(*cdr.Encoder)) (*cdr.Decoder, error) {
	hdr := giop.RequestHeader{
		InvocationID:     c.orb.NewInvocationID(),
		ResponseExpected: true,
		ObjectKey:        ServiceKey,
		Operation:        op,
		ThreadRank:       -1,
		ThreadCount:      1,
	}
	rh, order, raw, err := c.orb.Invoke(ctx, c.endpoint, hdr, body)
	if err != nil {
		return nil, err
	}
	d := cdr.NewDecoder(order, raw)
	switch rh.Status {
	case giop.ReplyOK:
		return d, nil
	case giop.ReplyUserException:
		code, err1 := d.String()
		msg, err2 := d.String()
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%w: undecodable user exception", ErrProtocol)
		}
		if code == "NotFound" {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, msg)
		}
		return nil, fmt.Errorf("%w: %s: %s", ErrProtocol, code, msg)
	case giop.ReplySystemException:
		ex, err := giop.DecodeSystemException(d)
		if err != nil {
			return nil, fmt.Errorf("%w: undecodable system exception", ErrProtocol)
		}
		return nil, ex
	default:
		return nil, fmt.Errorf("%w: unexpected reply status %v", ErrProtocol, rh.Status)
	}
}

// Register upserts (and renews) a registration — the heartbeat call.
func (c *Client) Register(ctx context.Context, r Registration) error {
	_, err := c.invoke(ctx, "register", func(e *cdr.Encoder) {
		encodeRegistration(e, r)
	})
	return err
}

// Deregister removes every replica the instance registered.
func (c *Client) Deregister(ctx context.Context, instance string) error {
	_, err := c.invoke(ctx, "deregister", func(e *cdr.Encoder) {
		e.PutString(instance)
	})
	return err
}

// Resolve returns the load-ranked reference for name and the number
// of live replicas it merges.
func (c *Client) Resolve(ctx context.Context, name string) (*ior.Ref, int, error) {
	d, err := c.invoke(ctx, "resolve", func(e *cdr.Encoder) { e.PutString(name) })
	if err != nil {
		return nil, 0, err
	}
	s, err := d.String()
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	replicas, err := d.ULong()
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	ref, err := ior.Parse(s)
	if err != nil {
		return nil, 0, err
	}
	return ref, int(replicas), nil
}

// Sync exchanges replica-table snapshots with a peer agent: the
// request carries local, the reply the peer's table as of after it
// merged local in. The caller merges the returned snapshot into the
// table local was taken from to finish the round.
//
// The reply's ages are anchored at the instant local was taken. Ages
// are relative to the sender's clock at snapshot time, so transit delay
// would otherwise make every row look *newer* on arrival — and two
// agents bouncing a dead instance's row back and forth would grant it a
// sliver of life per round. The peer took its snapshot after local was
// taken, so the anchor errs old by at most the round trip, and an echo
// of one of the caller's own rows comes back no newer than it left. (A
// local snapshot built by hand carries no instant: its reply's ages are
// counted back from the merge.)
func (c *Client) Sync(ctx context.Context, local SyncSnapshot) (SyncSnapshot, error) {
	d, err := c.invoke(ctx, "sync", func(e *cdr.Encoder) {
		encodeSnapshot(e, local)
	})
	if err != nil {
		return SyncSnapshot{}, err
	}
	remote, err := decodeSnapshot(d)
	if err != nil {
		return SyncSnapshot{}, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	remote.anchor = local.at
	return remote, nil
}

// ListEntry is one row of a List answer.
type ListEntry struct {
	Name     string
	Replicas []ReplicaInfo
}

// List returns the agent's rows under prefix, names sorted, replicas
// best-ranked first.
func (c *Client) List(ctx context.Context, prefix string) ([]ListEntry, error) {
	d, err := c.invoke(ctx, "list", func(e *cdr.Encoder) { e.PutString(prefix) })
	if err != nil {
		return nil, err
	}
	n, err := d.ULong()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if uint64(n) > uint64(d.Remaining()) {
		return nil, fmt.Errorf("%w: %d list rows in a %d-byte remainder", ErrProtocol, n, d.Remaining())
	}
	out := make([]ListEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		var ent ListEntry
		if ent.Name, err = d.String(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		nrep, err := d.ULong()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		for j := uint32(0); j < nrep; j++ {
			var rep ReplicaInfo
			if rep.Instance, err = d.String(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
			}
			iorStr, err := d.String()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
			}
			if rep.Ref, err = ior.Parse(iorStr); err != nil {
				return nil, err
			}
			if rep.Score, err = d.Double(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
			}
			if rep.Draining, err = d.Boolean(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
			}
			sinceMicros, err := d.ULongLong()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
			}
			rep.SinceSeen = time.Duration(sinceMicros) * time.Microsecond
			ent.Replicas = append(ent.Replicas, rep)
		}
		out = append(out, ent)
	}
	return out, nil
}
