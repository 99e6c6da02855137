package agent

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"log/slog"
	"sync"
	"time"

	"pardis/internal/ior"
	"pardis/internal/telemetry"
)

var (
	heartbeatErrors = telemetry.Default.Counter("pardis_agent_heartbeat_errors_total")
	heartbeatsSent  = telemetry.Default.Counter("pardis_agent_heartbeats_sent_total")
)

// RegistrarConfig configures a server-side heartbeat loop.
type RegistrarConfig struct {
	// Client talks to the agent service.
	Client *Client
	// Clients extends the fan-out to a replicated control plane:
	// every beat (and the Stop-time deregistration) goes to each
	// configured agent, so every agent independently converges its
	// replica table from the same soft-state stream — no consensus,
	// the heartbeats are the anti-entropy channel. Client, when also
	// set, is folded in; duplicate endpoints collapse.
	Clients []*Client
	// Instance identifies this server process; empty generates a
	// random one.
	Instance string
	// Interval is the heartbeat cadence (default
	// DefaultHeartbeatInterval).
	Interval time.Duration
	// TTL is the registration time-to-live the heartbeats ask for
	// (default TTLFactor x Interval).
	TTL time.Duration
	// Load supplies the live load snapshot piggybacked on each
	// heartbeat (nil reports zeros).
	Load func() LoadReport
	// Digest supplies the metrics digest piggybacked on each heartbeat
	// (nil defaults to CollectDigest, which snapshots the process-wide
	// telemetry registry).
	Digest func() MetricsDigest
	// RPCTimeout bounds each heartbeat invocation (default: the
	// interval, clamped to [100ms, 2s]) so a hung agent cannot stall
	// the loop past its own cadence.
	RPCTimeout time.Duration
}

// Registrar keeps a server's objects registered with the agent: an
// immediate registration at Start, renewal every Interval, and a
// deregistration at Stop so a graceful drain leaves no stale entry.
// The agent is a soft dependency — heartbeat failures are counted and
// logged, never fatal, and the next tick simply tries again (which is
// also how the table repopulates after an agent restart).
type Registrar struct {
	cfg     RegistrarConfig
	clients []*Client // resolved fan-out set (Client + Clients, deduped)
	kick    chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup

	mu      sync.Mutex
	names   map[string]*ior.Ref
	started bool
	stopped bool
}

// NewRegistrar returns a registrar; call Add to give it names and
// Start to begin heartbeating.
func NewRegistrar(cfg RegistrarConfig) *Registrar {
	if cfg.Instance == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			cfg.Instance = "inst-" + hex.EncodeToString(b[:])
		} else {
			cfg.Instance = "inst-" + time.Now().Format("150405.000000000")
		}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultHeartbeatInterval
	}
	if cfg.TTL <= 0 {
		cfg.TTL = TTLFactor * cfg.Interval
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = cfg.Interval
		if cfg.RPCTimeout < 100*time.Millisecond {
			cfg.RPCTimeout = 100 * time.Millisecond
		}
		if cfg.RPCTimeout > 2*time.Second {
			cfg.RPCTimeout = 2 * time.Second
		}
	}
	clients := make([]*Client, 0, len(cfg.Clients)+1)
	seen := make(map[string]bool, len(cfg.Clients)+1)
	if cfg.Client != nil {
		clients = append(clients, cfg.Client)
		seen[cfg.Client.Endpoint()] = true
	}
	for _, c := range cfg.Clients {
		if c == nil || seen[c.Endpoint()] {
			continue
		}
		seen[c.Endpoint()] = true
		clients = append(clients, c)
	}
	return &Registrar{
		cfg:     cfg,
		clients: clients,
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		names:   make(map[string]*ior.Ref),
	}
}

// Instance returns the registrar's instance identity.
func (r *Registrar) Instance() string { return r.cfg.Instance }

// Add registers (or replaces) a name→reference pair and nudges the
// loop to heartbeat promptly, so a freshly exported object is
// resolvable without waiting out an interval.
func (r *Registrar) Add(name string, ref *ior.Ref) {
	r.mu.Lock()
	r.names[name] = ref
	r.mu.Unlock()
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// Remove drops a name; the next heartbeat no longer carries it, which
// deletes the replica at the agent.
func (r *Registrar) Remove(name string) {
	r.mu.Lock()
	delete(r.names, name)
	r.mu.Unlock()
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// Start launches the heartbeat loop (idempotent).
func (r *Registrar) Start() {
	r.mu.Lock()
	if r.started || r.stopped {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.mu.Unlock()
	r.wg.Add(1)
	go r.loop()
}

func (r *Registrar) loop() {
	defer r.wg.Done()
	r.beat()
	tick := time.NewTicker(r.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			r.beat()
		case <-r.kick:
			r.beat()
		case <-r.done:
			return
		}
	}
}

// beat sends one registration heartbeat — the current name set, load
// and digest sampled once — to every configured agent concurrently,
// each attempt bounded by RPCTimeout so one hung agent cannot starve
// the others of their renewal or stall the loop past its cadence.
func (r *Registrar) beat() {
	r.mu.Lock()
	names := make([]NameRef, 0, len(r.names))
	for name, ref := range r.names {
		names = append(names, NameRef{Name: name, Ref: ref})
	}
	r.mu.Unlock()
	if len(names) == 0 || len(r.clients) == 0 {
		return
	}
	reg := Registration{
		Instance: r.cfg.Instance,
		TTL:      r.cfg.TTL,
		Names:    names,
	}
	if r.cfg.Load != nil {
		reg.Load = r.cfg.Load()
	}
	if r.cfg.Digest != nil {
		reg.Digest = r.cfg.Digest()
	} else {
		reg.Digest = CollectDigest()
	}
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.RPCTimeout)
			err := c.Register(ctx, reg)
			cancel()
			if err != nil {
				heartbeatErrors.Inc()
				if telemetry.LogEnabled(slog.LevelWarn) {
					telemetry.Logger().Warn("agent heartbeat failed",
						"instance", r.cfg.Instance, "agent", c.Endpoint(), "err", err)
				}
				return
			}
			heartbeatsSent.Inc()
		}(c)
	}
	wg.Wait()
}

// halt ends the heartbeat loop without telling any agent — what
// process death looks like from the agents' side. Reports false when
// the registrar was already stopped.
func (r *Registrar) halt() bool {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return false
	}
	r.stopped = true
	started := r.started
	r.mu.Unlock()
	if started {
		close(r.done)
		r.wg.Wait()
	}
	return true
}

// Stop ends the heartbeat loop and deregisters the instance from
// every configured agent, concurrently, so a dying replica does not
// linger in any surviving agent's table for a full TTL. Each attempt
// is best-effort and bounded by both ctx and RPCTimeout: agents that
// cannot be reached expire the entries by TTL anyway (and the
// survivors' tombstones stop peer sync from resurrecting them).
// Returns the joined errors of the failed attempts. Idempotent.
func (r *Registrar) Stop(ctx context.Context) error {
	if !r.halt() {
		return nil
	}
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			dctx, cancel := context.WithTimeout(ctx, r.cfg.RPCTimeout)
			err := c.Deregister(dctx, r.cfg.Instance)
			cancel()
			if err != nil {
				heartbeatErrors.Inc()
				if telemetry.LogEnabled(slog.LevelWarn) {
					telemetry.Logger().Warn("agent deregister failed",
						"instance", r.cfg.Instance, "agent", c.Endpoint(), "err", err)
				}
				errs[i] = err
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}
