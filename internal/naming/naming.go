// Package naming implements the PARDIS domain's global namespace:
// the service behind _bind("example", "caledonia.cs.indiana.edu") in
// the paper's client code. Servers register their object references
// under human-readable names; clients resolve names to references.
//
// The naming service is itself an ordinary PARDIS object (object key
// ServiceKey) served by an orb.Server, so it needs no protocol of its
// own — bind/resolve/unbind/list are IDL-style operations with CDR
// bodies. A PARDIS domain is simply the set of processes that agree
// on one naming endpoint.
package naming

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/orb"
	"pardis/internal/telemetry"
)

// ServiceKey is the object key the naming service answers to.
const ServiceKey = "pardis/naming"

// Errors returned by the naming client and registry.
var (
	ErrNotFound     = errors.New("naming: name not bound")
	ErrAlreadyBound = errors.New("naming: name already bound")
	ErrProtocol     = errors.New("naming: protocol error")
)

// Registry is the in-memory name table.
type Registry struct {
	mu    sync.RWMutex
	table map[string]*ior.Ref
}

// NewRegistry returns an empty name table.
func NewRegistry() *Registry {
	return &Registry{table: make(map[string]*ior.Ref)}
}

// Bind associates name with ref. With rebind false it fails if the
// name is taken.
func (r *Registry) Bind(name string, ref *ior.Ref, rebind bool) error {
	if err := ref.Validate(); err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("%w: empty name", ErrProtocol)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.table[name]; taken && !rebind {
		return fmt.Errorf("%w: %q", ErrAlreadyBound, name)
	}
	r.table[name] = ref
	return nil
}

// BindReplica merges ref into the binding for name, the way N
// replica servers of one conventional object publish a single
// multi-profile reference: when the existing binding names the same
// object (TypeID, Key, Threads == 1), ref's endpoints are appended to
// its replica profile list; when the name is unbound — or bound to a
// different object or an SPMD reference, whose per-thread ports are
// not mergeable — ref replaces the binding outright (the newest
// generation wins, as with rebind).
func (r *Registry) BindReplica(name string, ref *ior.Ref) error {
	if err := ref.Validate(); err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("%w: empty name", ErrProtocol)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.table[name]
	if !ok || cur.TypeID != ref.TypeID || cur.Key != ref.Key ||
		cur.Threads != 1 || ref.Threads != 1 {
		r.table[name] = ref
		return nil
	}
	merged := *cur
	merged.Endpoints = append([]string(nil), cur.Endpoints...)
	have := make(map[string]bool, len(merged.Endpoints))
	for _, ep := range merged.Endpoints {
		have[ep] = true
	}
	for _, ep := range ref.Endpoints {
		if !have[ep] {
			merged.Endpoints = append(merged.Endpoints, ep)
		}
	}
	r.table[name] = &merged
	return nil
}

// UnbindReplica removes ref's endpoints from name's binding — the
// graceful-drain path, so one replica's exit never tears down its
// siblings' profiles. When no endpoints remain the binding itself is
// removed. Endpoints not present are ignored; an unbound name is
// ErrNotFound.
func (r *Registry) UnbindReplica(name string, ref *ior.Ref) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.table[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	drop := make(map[string]bool, len(ref.Endpoints))
	for _, ep := range ref.Endpoints {
		drop[ep] = true
	}
	kept := make([]string, 0, len(cur.Endpoints))
	for _, ep := range cur.Endpoints {
		if !drop[ep] {
			kept = append(kept, ep)
		}
	}
	if len(kept) == len(cur.Endpoints) {
		return nil // none of ours were listed; nothing to do
	}
	if len(kept) == 0 {
		delete(r.table, name)
		return nil
	}
	trimmed := *cur
	trimmed.Endpoints = kept
	r.table[name] = &trimmed
	return nil
}

// Resolve looks a name up.
func (r *Registry) Resolve(name string) (*ior.Ref, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ref, ok := r.table[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return ref, nil
}

// Unbind removes a name.
func (r *Registry) Unbind(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.table[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(r.table, name)
	return nil
}

// List returns the bound names with the given prefix, sorted.
func (r *Registry) List(prefix string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var names []string
	for n := range r.table {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Serve installs the naming service on an ORB server under
// ServiceKey, backed by reg.
func Serve(srv *orb.Server, reg *Registry) {
	srv.Handle(ServiceKey, func(in *orb.Incoming) {
		d := in.Decoder()
		switch in.Header.Operation {
		case "bind":
			name, err1 := d.String()
			iorStr, err2 := d.String()
			rebind, err3 := d.Boolean()
			if err1 != nil || err2 != nil || err3 != nil {
				_ = in.ReplySystemException("MARSHAL", "bad bind body")
				return
			}
			ref, err := ior.Parse(iorStr)
			if err != nil {
				_ = in.ReplySystemException("MARSHAL", err.Error())
				return
			}
			if err := reg.Bind(name, ref, rebind); err != nil {
				replyUserError(in, err)
				return
			}
			if telemetry.LogEnabled(slog.LevelInfo) {
				telemetry.Logger().Info("name bound",
					"name", name, "key", ref.Key, "replicas", ref.Replicas(), "rebind", rebind)
			}
			_ = in.Reply(giop.ReplyOK, nil)
		case "bind_replica", "unbind_replica":
			name, err1 := d.String()
			iorStr, err2 := d.String()
			if err1 != nil || err2 != nil {
				_ = in.ReplySystemException("MARSHAL", "bad "+in.Header.Operation+" body")
				return
			}
			ref, err := ior.Parse(iorStr)
			if err != nil {
				_ = in.ReplySystemException("MARSHAL", err.Error())
				return
			}
			if in.Header.Operation == "bind_replica" {
				err = reg.BindReplica(name, ref)
			} else {
				err = reg.UnbindReplica(name, ref)
			}
			if err != nil {
				replyUserError(in, err)
				return
			}
			if telemetry.LogEnabled(slog.LevelInfo) {
				telemetry.Logger().Info("replica binding updated",
					"op", in.Header.Operation, "name", name, "endpoints", len(ref.Endpoints))
			}
			_ = in.Reply(giop.ReplyOK, nil)
		case "resolve":
			name, err := d.String()
			if err != nil {
				_ = in.ReplySystemException("MARSHAL", "bad resolve body")
				return
			}
			ref, err := reg.Resolve(name)
			if err != nil {
				replyUserError(in, err)
				return
			}
			_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) {
				e.PutString(ref.Stringify())
			})
		case "unbind":
			name, err := d.String()
			if err != nil {
				_ = in.ReplySystemException("MARSHAL", "bad unbind body")
				return
			}
			if err := reg.Unbind(name); err != nil {
				replyUserError(in, err)
				return
			}
			if telemetry.LogEnabled(slog.LevelInfo) {
				telemetry.Logger().Info("name unbound", "name", name)
			}
			_ = in.Reply(giop.ReplyOK, nil)
		case "list":
			prefix, err := d.String()
			if err != nil {
				_ = in.ReplySystemException("MARSHAL", "bad list body")
				return
			}
			names := reg.List(prefix)
			_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) {
				e.PutStringSeq(names)
			})
		default:
			_ = in.ReplySystemException("BAD_OPERATION", in.Header.Operation)
		}
	})
}

// replyUserError maps registry errors onto user exceptions with a
// machine-readable code string.
func replyUserError(in *orb.Incoming, err error) {
	code := "UNKNOWN"
	switch {
	case errors.Is(err, ErrNotFound):
		code = "NotFound"
	case errors.Is(err, ErrAlreadyBound):
		code = "AlreadyBound"
	}
	msg := err.Error()
	_ = in.Reply(giop.ReplyUserException, func(e *cdr.Encoder) {
		e.PutString(code)
		e.PutString(msg)
	})
}

// Client resolves and registers names against a remote naming
// service.
type Client struct {
	orb      *orb.Client
	endpoint string
}

// NewClient returns a naming client talking to the service at
// endpoint through oc.
func NewClient(oc *orb.Client, endpoint string) *Client {
	return &Client{orb: oc, endpoint: endpoint}
}

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
		switch code {
		case "NotFound":
			return nil, fmt.Errorf("%w: %s", ErrNotFound, msg)
		case "AlreadyBound":
			return nil, fmt.Errorf("%w: %s", ErrAlreadyBound, msg)
		default:
			return nil, fmt.Errorf("%w: %s: %s", ErrProtocol, code, msg)
		}
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

// Bind registers ref under name.
func (c *Client) Bind(ctx context.Context, name string, ref *ior.Ref, rebind bool) error {
	_, err := c.invoke(ctx, "bind", func(e *cdr.Encoder) {
		e.PutString(name)
		e.PutString(ref.Stringify())
		e.PutBoolean(rebind)
	})
	return err
}

// BindReplica merges ref's endpoints into name's replica profile
// list (see Registry.BindReplica).
func (c *Client) BindReplica(ctx context.Context, name string, ref *ior.Ref) error {
	_, err := c.invoke(ctx, "bind_replica", func(e *cdr.Encoder) {
		e.PutString(name)
		e.PutString(ref.Stringify())
	})
	return err
}

// UnbindReplica removes ref's endpoints from name's binding (see
// Registry.UnbindReplica) — a draining replica's goodbye.
func (c *Client) UnbindReplica(ctx context.Context, name string, ref *ior.Ref) error {
	_, err := c.invoke(ctx, "unbind_replica", func(e *cdr.Encoder) {
		e.PutString(name)
		e.PutString(ref.Stringify())
	})
	return err
}

// Resolve returns the reference bound to name.
func (c *Client) Resolve(ctx context.Context, name string) (*ior.Ref, error) {
	d, err := c.invoke(ctx, "resolve", func(e *cdr.Encoder) { e.PutString(name) })
	if err != nil {
		return nil, err
	}
	s, err := d.String()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return ior.Parse(s)
}

// ResolveLive resolves name and filters out replica endpoints the
// underlying ORB client's health table currently marks down (open
// circuit breaker), so a reference reloaded from a stale persisted
// snapshot does not keep steering invocations at dead replicas.
//
// Only conventional (single-thread) references are filtered — SPMD
// thread ports are not interchangeable. If every replica is marked
// down the full reference is returned unfiltered: forced probes
// through invocation-level failover beat certain failure.
func (c *Client) ResolveLive(ctx context.Context, name string) (*ior.Ref, error) {
	ref, err := c.Resolve(ctx, name)
	if err != nil {
		return nil, err
	}
	if ref.Replicas() <= 1 {
		return ref, nil
	}
	live := make([]string, 0, len(ref.Endpoints))
	for _, ep := range ref.Endpoints {
		if c.orb.EndpointUp(ep) {
			live = append(live, ep)
		}
	}
	if len(live) == 0 || len(live) == len(ref.Endpoints) {
		return ref, nil
	}
	dropped := len(ref.Endpoints) - len(live)
	if telemetry.LogEnabled(slog.LevelInfo) {
		telemetry.Logger().Info("filtered stale replica endpoints",
			"name", name, "dropped", dropped, "live", len(live))
	}
	filtered := *ref
	filtered.Endpoints = live
	return &filtered, nil
}

// Unbind removes a name.
func (c *Client) Unbind(ctx context.Context, name string) error {
	_, err := c.invoke(ctx, "unbind", func(e *cdr.Encoder) { e.PutString(name) })
	return err
}

// List returns the names bound under prefix.
func (c *Client) List(ctx context.Context, prefix string) ([]string, error) {
	d, err := c.invoke(ctx, "list", func(e *cdr.Encoder) { e.PutString(prefix) })
	if err != nil {
		return nil, err
	}
	names, err := d.StringSeq()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return names, nil
}
