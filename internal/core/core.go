// Package core is the public face of PARDIS-Go: the API an
// application programmer (or compiler-generated stub code) uses to
// join a PARDIS domain, export SPMD objects, and bind to remote ones.
//
// It composes the lower layers — the ORB (package orb), the SPMD
// collective machinery (package spmd), the naming service (package
// naming) and the run-time-system interface (package rts) — into the
// three calls the paper's example needs:
//
//	dom, _  := core.JoinDomain(...)            // once per process
//	obj, _  := dom.Export(...)                 // server threads, collective
//	bnd, _  := dom.SPMDBind(ctx, th, "example", method) // client threads, collective
//
// mirroring the IDL-generated _spmd_bind / skeleton registration of
// §2.1.
package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"pardis/internal/agent"
	"pardis/internal/ior"
	"pardis/internal/naming"
	"pardis/internal/orb"
	"pardis/internal/rts"
	"pardis/internal/spmd"
	"pardis/internal/transport"
)

// Re-exported SPMD types so application code only imports core and
// the data packages (dist, dseq).
type (
	// Binding is a client-side SPMD binding (see spmd.Binding).
	Binding = spmd.Binding
	// CallSpec describes one invocation (see spmd.CallSpec).
	CallSpec = spmd.CallSpec
	// DistArg pairs a sequence with its mode (see spmd.DistArg).
	DistArg = spmd.DistArg
	// Call is the servant-side view of an invocation.
	Call = spmd.Call
	// Op couples an operation spec with its handler.
	Op = spmd.Op
	// OpSpec declares an operation's distributed arguments.
	OpSpec = spmd.OpSpec
	// ArgSpec declares one distributed argument.
	ArgSpec = spmd.ArgSpec
	// Object is a server-side exported SPMD object handle.
	Object = spmd.Object
	// Pending is an in-flight non-blocking invocation.
	Pending = spmd.Pending
	// TransferMethod selects centralized or multi-port transfer.
	TransferMethod = spmd.TransferMethod
)

// Re-exported constants.
const (
	// Centralized is the §3.2 transfer method.
	Centralized = spmd.Centralized
	// MultiPort is the §3.3 transfer method.
	MultiPort = spmd.MultiPort
	// In marks client→server arguments.
	In = spmd.In
	// Out marks server→client arguments.
	Out = spmd.Out
	// InOut marks bidirectional arguments.
	InOut = spmd.InOut
)

// DomainConfig configures a process's view of a PARDIS domain.
type DomainConfig struct {
	// Registry supplies transports (nil means transport.Default).
	Registry *transport.Registry
	// NamingEndpoint locates the domain's naming service. Empty
	// means an in-process naming service is created — convenient for
	// single-process examples and tests.
	NamingEndpoint string
	// ListenEndpoint is the template for ports opened by objects and
	// multi-port bindings in this process (default "tcp:127.0.0.1:0";
	// use "inproc:*" for in-process domains).
	ListenEndpoint string
	// AgentEndpoint locates the domain's agent (the NetSolve-style
	// resource broker). Empty means no agent: resolution goes straight
	// to the naming service. With an agent, exported objects are
	// heartbeat-registered and Resolve/SPMDBind answer load-ranked
	// references, degrading to cached answers and the static naming
	// registry whenever the agent is unreachable. A comma-separated
	// list names a replicated control plane: heartbeats fan out to
	// every agent and resolution rotates through them on failure, so
	// losing any single agent host is invisible to the domain.
	AgentEndpoint string
	// HeartbeatInterval is the agent heartbeat cadence (default
	// agent.DefaultHeartbeatInterval; registrations live 3x this).
	HeartbeatInterval time.Duration
}

// Domain is a process's handle on a PARDIS domain: its transports,
// its naming service, and defaults for opening ports.
type Domain struct {
	reg      *transport.Registry
	names    *naming.Client
	nameOC   *orb.Client
	listenEP string
	namingEP string

	// local is non-nil when this process hosts its own naming
	// service (NamingEndpoint == "").
	local *orb.Server

	// Agent plumbing, all nil without an AgentEndpoint: resolver is
	// the client-side degradation ladder, registrar the server-side
	// heartbeat loop (started lazily by the first named Export).
	resolver  *agent.Resolver
	registrar *agent.Registrar
}

// JoinDomain connects the process to a PARDIS domain.
func JoinDomain(cfg DomainConfig) (*Domain, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = transport.Default
	}
	listen := cfg.ListenEndpoint
	if listen == "" {
		listen = "tcp:127.0.0.1:0"
	}
	d := &Domain{reg: reg, listenEP: listen}
	ep := cfg.NamingEndpoint
	if ep == "" {
		srv := orb.NewServer(reg)
		naming.Serve(srv, naming.NewRegistry())
		bound, err := srv.Listen(listen)
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("core: starting in-process naming service: %w", err)
		}
		d.local = srv
		ep = bound
	}
	d.namingEP = ep
	d.nameOC = orb.NewClient(reg)
	d.names = naming.NewClient(d.nameOC, ep)
	if cfg.AgentEndpoint != "" {
		var acs []*agent.Client
		for _, aep := range strings.Split(cfg.AgentEndpoint, ",") {
			if aep = strings.TrimSpace(aep); aep != "" {
				acs = append(acs, agent.NewClient(d.nameOC, aep))
			}
		}
		d.resolver = agent.NewResolver(agent.ResolverConfig{
			Agents: acs,
			Naming: d.names,
		})
		d.registrar = agent.NewRegistrar(agent.RegistrarConfig{
			Clients:  acs,
			Interval: cfg.HeartbeatInterval,
		})
	}
	return d, nil
}

// Close releases the domain handle (and the in-process naming
// service, if any). If the domain heartbeats into an agent, the
// instance is deregistered first — a graceful drain, so no stale
// registration lingers.
func (d *Domain) Close() {
	if d.registrar != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = d.registrar.Stop(ctx)
		cancel()
	}
	d.nameOC.Close()
	if d.local != nil {
		d.local.Close()
	}
}

// Naming returns the domain's naming client for direct use.
func (d *Domain) Naming() *naming.Client { return d.names }

// NamingEndpoint returns the endpoint of the domain's naming service,
// suitable for other processes' DomainConfig.NamingEndpoint.
func (d *Domain) NamingEndpoint() string { return d.namingEP }

// Registry returns the domain's transport registry.
func (d *Domain) Registry() *transport.Registry { return d.reg }

// ExportConfig configures Export.
type ExportConfig struct {
	// Thread is this computing thread's RTS handle.
	Thread rts.Thread
	// Name is the global name to register (empty: don't register).
	Name string
	// Key is the object key (defaults to "objects/" + Name).
	Key string
	// TypeID is the interface repository id.
	TypeID string
	// MultiPort opens per-thread data ports.
	MultiPort bool
	// Ops maps operation names to their specs and handlers.
	Ops map[string]*Op
}

// Export creates this thread's share of an SPMD object and, on the
// communicator, registers it with the domain's naming service.
// Collective across the threads of cfg.Thread's section.
func (d *Domain) Export(ctx context.Context, cfg ExportConfig) (*Object, error) {
	key := cfg.Key
	if key == "" {
		if cfg.Name == "" {
			return nil, fmt.Errorf("core: Export needs a Name or a Key")
		}
		key = "objects/" + cfg.Name
	}
	obj, err := spmd.Export(spmd.ObjectConfig{
		Thread:         cfg.Thread,
		Registry:       d.reg,
		ListenEndpoint: d.listenEP,
		Key:            key,
		TypeID:         cfg.TypeID,
		MultiPort:      cfg.MultiPort,
		Ops:            cfg.Ops,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Name != "" && cfg.Thread.Rank() == 0 {
		if err := d.names.Bind(ctx, cfg.Name, obj.Ref(), true); err != nil {
			obj.Close()
			return nil, fmt.Errorf("core: registering %q: %w", cfg.Name, err)
		}
		if d.registrar != nil {
			// Heartbeat the object into the agent as well; Start is
			// idempotent, so the first named Export kicks off the loop.
			d.registrar.Add(cfg.Name, obj.Ref())
			d.registrar.Start()
		}
	}
	return obj, nil
}

// Resolve looks a name up in the domain. With an agent configured the
// answer is its load-ranked reference (degrading to cached answers
// and the static naming registry when the agent is unreachable);
// without one it is the naming service's binding.
func (d *Domain) Resolve(ctx context.Context, name string) (*ior.Ref, error) {
	if d.resolver != nil {
		return d.resolver.RefFor(ctx, name)
	}
	return d.names.Resolve(ctx, name)
}

// Resolver returns the domain's degradation-ladder resolver (an
// orb.RefSource for Client.InvokeNamed), or nil when the domain has
// no agent.
func (d *Domain) Resolver() *agent.Resolver { return d.resolver }

// SPMDBind is the paper's _spmd_bind: a collective bind from every
// computing thread of a parallel client to the named object. The
// communicator resolves the name; all threads share the result.
func (d *Domain) SPMDBind(ctx context.Context, th rts.Thread, name string, method TransferMethod) (*Binding, error) {
	var refStr []byte
	if th.Rank() == 0 {
		ref, err := d.Resolve(ctx, name)
		if err != nil {
			_, _ = th.Bcast(0, nil)
			return nil, err
		}
		refStr = []byte(ref.Stringify())
		if _, err := th.Bcast(0, refStr); err != nil {
			return nil, err
		}
	} else {
		var err error
		refStr, err = th.Bcast(0, nil)
		if err != nil {
			return nil, err
		}
	}
	if len(refStr) == 0 {
		return nil, fmt.Errorf("core: name %q did not resolve on communicator", name)
	}
	ref, err := ior.Parse(string(refStr))
	if err != nil {
		return nil, err
	}
	return spmd.Bind(ctx, spmd.BindConfig{
		Thread:         th,
		Registry:       d.reg,
		Method:         method,
		ListenEndpoint: d.listenEP,
	}, ref)
}
