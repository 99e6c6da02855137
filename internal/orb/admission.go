package orb

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"pardis/internal/telemetry"
)

// AdmissionConfig caps how much concurrent work a Server accepts.
// Requests beyond the caps wait in a bounded, deadline-aware queue;
// requests the queue cannot hold — or whose propagated deadline
// cannot be met while they wait — are shed with a system exception
// the client retry layer already knows how to handle (TRANSIENT →
// retry/failover, TIMEOUT → give up, the budget is gone).
type AdmissionConfig struct {
	// MaxConcurrent caps handlers running at once across the whole
	// server (<= 0 = unlimited).
	MaxConcurrent int
	// MaxPerConn caps handlers running at once on behalf of a single
	// connection (<= 0 = unlimited), so one chatty client cannot
	// monopolize the global slots.
	MaxPerConn int
	// MaxQueue bounds how many requests may wait for a slot across
	// the server. At the bound new over-cap requests are shed
	// immediately with TRANSIENT (<= 0 = no waiting at all: over-cap
	// requests are shed without queuing).
	MaxQueue int
	// MaxWait bounds one request's time in the queue (<= 0 = bounded
	// only by the request's own deadline).
	MaxWait time.Duration
}

// DefaultAdmissionConfig returns generous caps scaled to the host:
// enough parallelism that a healthy server never queues, small enough
// that a saturating burst degrades by shedding rather than by
// unbounded goroutine and memory growth.
func DefaultAdmissionConfig() AdmissionConfig {
	n := runtime.GOMAXPROCS(0)
	return AdmissionConfig{
		MaxConcurrent: 16 * n,
		MaxPerConn:    8 * n,
		MaxQueue:      32 * n,
		MaxWait:       time.Second,
	}
}

// WithAdmission enables admission control on a Server.
func WithAdmission(cfg AdmissionConfig) ServerOption {
	return func(s *Server) {
		a := &admission{cfg: cfg}
		if cfg.MaxConcurrent > 0 {
			a.global = make(chan struct{}, cfg.MaxConcurrent)
		}
		s.adm = a
	}
}

// Shed instruments are process-wide and interned once.
var (
	shedExpired   = telemetry.Default.Counter("pardis_server_shed_total", "reason", "expired")
	shedQueueFull = telemetry.Default.Counter("pardis_server_shed_total", "reason", "queue_full")
	shedQueueWait = telemetry.Default.Counter("pardis_server_shed_total", "reason", "queue_wait")
	shedCanceled  = telemetry.Default.Counter("pardis_server_shed_total", "reason", "canceled")
)

// admission is the runtime state behind an AdmissionConfig: a global
// slot semaphore (per-connection semaphores live on the serverConns)
// plus the shared wait-queue accounting.
type admission struct {
	cfg    AdmissionConfig
	global chan struct{} // nil = unlimited
	queued atomic.Int64
}

// AdmissionStats is a point-in-time snapshot of the admission gate.
type AdmissionStats struct {
	// MaxConcurrent and MaxQueue echo the configured caps (0 when
	// admission control is disabled).
	MaxConcurrent int
	MaxQueue      int
	// Running is the number of admitted handler slots currently held.
	Running int
	// Queued is the number of requests waiting for a slot.
	Queued int
}

// AdmissionStats reports the server's admission gate state; zero
// values when admission control is not configured.
func (s *Server) AdmissionStats() AdmissionStats {
	a := s.adm
	if a == nil {
		return AdmissionStats{}
	}
	st := AdmissionStats{
		MaxConcurrent: a.cfg.MaxConcurrent,
		MaxQueue:      a.cfg.MaxQueue,
		Queued:        int(a.queued.Load()),
	}
	if a.global != nil {
		st.Running = len(a.global)
	}
	return st
}

// AdmissionSaturated reports whether the admission wait queue is at
// its bound — the point where new over-cap requests are shed and an
// external load balancer should stop routing here.
func (s *Server) AdmissionSaturated() bool {
	a := s.adm
	if a == nil || a.cfg.MaxQueue <= 0 {
		return false
	}
	return a.queued.Load() >= int64(a.cfg.MaxQueue)
}

// admit blocks the request's goroutine until a handler slot is free on
// both the per-connection and the global gate. It returns a release
// function when the request is admitted; otherwise it has already
// written the shed reply (TIMEOUT when the propagated deadline died in
// the queue... per the protocol contract: TRANSIENT for queue
// overflow/wait-limit, silence for a client-side cancel) and returns
// ok=false.
func (s *Server) admit(in *Incoming) (release func(), ok bool) {
	a := s.adm
	var held [2]chan struct{}
	nheld := 0
	releaseAll := func() {
		for i := 0; i < nheld; i++ {
			<-held[i]
		}
	}
	// The per-connection gate comes first: while a request waits for
	// it, it consumes no shared resource beyond its queue ticket; once
	// it holds a global slot it must never block again.
	for _, gate := range [2]chan struct{}{in.conn.slots, a.global} {
		if gate == nil {
			continue
		}
		select {
		case gate <- struct{}{}:
			held[nheld] = gate
			nheld++
			continue
		default:
		}
		// The gate is full: join the bounded wait queue.
		if a.cfg.MaxQueue <= 0 || a.queued.Add(1) > int64(a.cfg.MaxQueue) {
			if a.cfg.MaxQueue > 0 {
				a.queued.Add(-1)
			}
			releaseAll()
			shedQueueFull.Inc()
			_ = in.ReplySystemException("TRANSIENT", "admission queue full")
			return nil, false
		}
		got := a.waitGate(in, gate)
		a.queued.Add(-1)
		if !got {
			releaseAll()
			return nil, false
		}
		held[nheld] = gate
		nheld++
	}
	return releaseAll, true
}

// waitGate parks one queued request on a gate until a slot frees, the
// request's context dies, or the configured wait limit passes —
// writing the shed reply for the latter two. A propagated deadline
// that expires while queued sheds with TRANSIENT ("this replica could
// not schedule you in time; another might"), while a client cancel
// (CancelRequest or a dropped connection) sheds silently: nobody is
// listening for a reply.
func (a *admission) waitGate(in *Incoming, gate chan struct{}) bool {
	var limit <-chan time.Time
	if a.cfg.MaxWait > 0 {
		t := time.NewTimer(a.cfg.MaxWait)
		defer t.Stop()
		limit = t.C
	}
	select {
	case gate <- struct{}{}:
		return true
	case <-in.Ctx.Done():
		if errors.Is(in.Ctx.Err(), context.DeadlineExceeded) {
			shedExpired.Inc()
			_ = in.ReplySystemException("TRANSIENT", "deadline cannot be met: expired while queued for admission")
		} else {
			shedCanceled.Inc()
		}
		return false
	case <-limit:
		shedQueueWait.Inc()
		_ = in.ReplySystemException("TRANSIENT", "admission wait limit exceeded")
		return false
	}
}
