package agent

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"pardis/internal/ior"
	"pardis/internal/naming"
	"pardis/internal/telemetry"
)

var (
	resolveFromAgent  = telemetry.Default.Counter("pardis_agent_resolver_total", "source", "agent")
	resolveFromFresh  = telemetry.Default.Counter("pardis_agent_resolver_total", "source", "fresh_cache")
	resolveFromStale  = telemetry.Default.Counter("pardis_agent_resolver_total", "source", "stale_cache")
	resolveFromNaming = telemetry.Default.Counter("pardis_agent_resolver_total", "source", "naming")
	resolverDegraded  = telemetry.Default.Counter("pardis_agent_resolver_degraded_total")
)

// DefaultFreshFor is how long a Resolver reuses an agent-ranked
// answer before asking again: long enough that a client burst does
// not turn the agent into a per-invoke hop, short enough that load
// ranking stays live.
const DefaultFreshFor = 500 * time.Millisecond

// DefaultBreakerCooldown is how long a Resolver leaves a failed agent
// untried before probing it again. While an agent's breaker is open
// the resolver rotates straight past it — no dial, no timeout paid —
// so a flapping agent costs one RPCTimeout per cooldown, not one per
// resolution.
const DefaultBreakerCooldown = time.Second

// ResolverConfig configures the client-side resolution ladder.
type ResolverConfig struct {
	// Agent talks to the agent service (nil = static naming only).
	Agent *Client
	// Agents extends the ladder's agent rung to a replicated control
	// plane: on resolve failure the resolver rotates through these,
	// preferring the last agent that answered, skipping agents whose
	// breaker is open. Agent, when also set, is folded in; duplicate
	// endpoints collapse.
	Agents []*Client
	// Naming is the static fallback registry (nil = agent only).
	Naming *naming.Client
	// FreshFor is how long an agent answer is served from cache
	// before the agent is consulted again (default DefaultFreshFor).
	FreshFor time.Duration
	// RPCTimeout bounds each agent resolve so an unreachable agent
	// degrades quickly instead of stalling invocations (default 1s;
	// a tighter caller deadline still wins).
	RPCTimeout time.Duration
	// BreakerCooldown is how long a failed agent is skipped before
	// the resolver probes it again (default DefaultBreakerCooldown).
	BreakerCooldown time.Duration
}

// Resolver resolves object names for clients, degrading gracefully
// when agents are unavailable:
//
//  1. a fresh cached agent answer is reused as-is;
//  2. otherwise any live agent is asked for a load-ranked reference —
//     the last-known-good agent first, then the rest in configured
//     order, skipping agents inside their breaker cooldown;
//  3. if every agent is unreachable, the last cached answer — however
//     stale — keeps the client going;
//  4. with no cache either, the static naming registry resolves the
//     name (filtered through the ORB's breaker table when the naming
//     client supports it);
//  5. and if naming fails too, a stale cache entry is still the last
//     resort before an error.
//
// No agent is ever a hard dependency: every rung of the ladder yields
// endpoints the InvokeRef failover chain can still walk. Resolver
// implements orb.RefSource, so orb.Client.InvokeNamed can invalidate
// and re-resolve mid-burst when ranked replicas die.
type Resolver struct {
	cfg    ResolverConfig
	agents []*Client

	mu       sync.Mutex
	cache    map[string]cachedRef
	breakers []resolverBreaker // parallel to agents
	lastGood int               // index of the last agent that answered
}

type cachedRef struct {
	ref    *ior.Ref
	stored time.Time
}

// resolverBreaker is the per-agent circuit state: one failure opens
// it for BreakerCooldown, one success closes it. There is no
// half-open subtlety — the ladder below absorbs a failed probe — so
// the only job here is bounding how often a dead agent is re-dialed.
type resolverBreaker struct {
	openUntil time.Time
}

// NewResolver builds a resolver over the given ladder.
func NewResolver(cfg ResolverConfig) *Resolver {
	if cfg.FreshFor <= 0 {
		cfg.FreshFor = DefaultFreshFor
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = time.Second
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	agents := make([]*Client, 0, len(cfg.Agents)+1)
	seen := make(map[string]bool, len(cfg.Agents)+1)
	if cfg.Agent != nil {
		agents = append(agents, cfg.Agent)
		seen[cfg.Agent.Endpoint()] = true
	}
	for _, c := range cfg.Agents {
		if c == nil || seen[c.Endpoint()] {
			continue
		}
		seen[c.Endpoint()] = true
		agents = append(agents, c)
	}
	return &Resolver{
		cfg:      cfg,
		agents:   agents,
		cache:    make(map[string]cachedRef),
		breakers: make([]resolverBreaker, len(agents)),
	}
}

// agentOrder returns the indices of agents worth trying now —
// last-known-good first, then configured order — excluding agents
// whose breaker is still inside its cooldown.
func (r *Resolver) agentOrder(now time.Time) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	order := make([]int, 0, len(r.agents))
	appendLive := func(i int) {
		if now.Before(r.breakers[i].openUntil) {
			return
		}
		order = append(order, i)
	}
	if r.lastGood >= 0 && r.lastGood < len(r.agents) {
		appendLive(r.lastGood)
	}
	for i := range r.agents {
		if i == r.lastGood {
			continue
		}
		appendLive(i)
	}
	return order
}

func (r *Resolver) recordAgent(i int, ok bool, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ok {
		r.breakers[i].openUntil = time.Time{}
		r.lastGood = i
		return
	}
	r.breakers[i].openUntil = now.Add(r.cfg.BreakerCooldown)
}

// RefFor resolves name down the ladder. It implements orb.RefSource.
func (r *Resolver) RefFor(ctx context.Context, name string) (*ior.Ref, error) {
	now := time.Now()
	r.mu.Lock()
	ent, cached := r.cache[name]
	r.mu.Unlock()
	if cached && now.Sub(ent.stored) < r.cfg.FreshFor {
		resolveFromFresh.Inc()
		return ent.ref, nil
	}

	// The agent rung: rotate through the live agents, last-known-good
	// first. One reachable agent with the row ends the walk; agents
	// answering NotFound prove the control plane is up but rowless
	// (freshly restarted, still converging), which makes the static
	// registry the better fallback than a stale cache — it reflects
	// explicit unbinds.
	sawError := false
	sawNotFound := false
	order := r.agentOrder(now)
	// Every agent inside its cooldown means the rung is skipped with
	// no new evidence: stale cache keeps the client going without
	// re-dialing a breaker-open agent.
	allOpen := len(order) == 0 && len(r.agents) > 0
	for _, i := range order {
		actx, cancel := context.WithTimeout(ctx, r.cfg.RPCTimeout)
		ref, _, err := r.agents[i].Resolve(actx, name)
		cancel()
		switch {
		case err == nil:
			r.recordAgent(i, true, now)
			r.store(name, ref)
			resolveFromAgent.Inc()
			return ref, nil
		case errors.Is(err, ErrNotFound):
			r.recordAgent(i, true, now) // the agent answered; it is live
			sawNotFound = true
		case ctx.Err() != nil:
			return nil, fmt.Errorf("agent: resolving %q: %w", name, ctx.Err())
		default:
			r.recordAgent(i, false, time.Now())
			sawError = true
			if telemetry.LogEnabled(slog.LevelWarn) {
				telemetry.Logger().Warn("agent unreachable; rotating",
					"name", name, "agent", r.agents[i].Endpoint(), "err", err)
			}
		}
	}
	// Degradation is counted once per resolution that actually lost an
	// agent — not per skipped breaker-open agent — so a flapping agent
	// cannot thrash the counter while the cache absorbs the flap.
	if sawError {
		resolverDegraded.Inc()
	}
	if (sawError || allOpen) && !sawNotFound && cached {
		// Agents unreachable (none proved the row gone): a stale
		// cached ranking still names real replicas; invocation-level
		// failover sorts out any that died since.
		resolveFromStale.Inc()
		return ent.ref, nil
	}

	if r.cfg.Naming != nil {
		ref, err := r.cfg.Naming.ResolveLive(ctx, name)
		if err == nil {
			r.store(name, ref)
			resolveFromNaming.Inc()
			return ref, nil
		}
		if !cached {
			return nil, err
		}
	}
	if cached {
		resolveFromStale.Inc()
		return ent.ref, nil
	}
	return nil, fmt.Errorf("%w: %q (no agent answer and no naming fallback)", ErrNotFound, name)
}

// Invalidate drops name's cached resolution so the next RefFor asks
// the ladder afresh. It implements orb.RefSource; the ORB calls it
// when every endpoint of a resolution failed.
func (r *Resolver) Invalidate(name string) {
	r.mu.Lock()
	delete(r.cache, name)
	r.mu.Unlock()
}

func (r *Resolver) store(name string, ref *ior.Ref) {
	r.mu.Lock()
	r.cache[name] = cachedRef{ref: ref, stored: time.Now()}
	r.mu.Unlock()
}
