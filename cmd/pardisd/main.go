// Command pardisd runs a PARDIS domain daemon. In its original role
// it serves the domain's naming service — the global namespace behind
// _bind/_spmd_bind:
//
//	pardisd -listen tcp:0.0.0.0:9050
//
// It can also serve objects itself and take part in an agent-managed
// replica group: -serve-echo exports a conventional echo object under
// a global name, -agent registers it with a pardis-agent (renewed by
// periodic heartbeats that piggyback live load), and -naming points
// at an external naming service instead of hosting one. Two replicas
// of one object, tracked by an agent:
//
//	pardisd -listen tcp:0.0.0.0:9060 -serve-echo demo/echo \
//	        -naming tcp:127.0.0.1:9050 -agent tcp:127.0.0.1:9070
//	pardisd -listen tcp:0.0.0.0:9061 -serve-echo demo/echo \
//	        -naming tcp:127.0.0.1:9050 -agent tcp:127.0.0.1:9070
//
// On SIGTERM/SIGINT the daemon drains gracefully: it deregisters from
// the agent, unbinds its replica endpoints from the naming service
// (so no stale registration outlives the process), finishes in-flight
// requests up to -drain, and says goodbye on every connection.
//
// The process serves until interrupted. With -state the name table is
// loaded at startup and checkpointed on changes and at shutdown, so a
// domain survives daemon restarts:
//
//	pardisd -listen tcp:0.0.0.0:9050 -state /var/lib/pardis/domain.state
//
// Observability: -metrics-listen exposes the process's operational
// surface over HTTP (/metrics, /healthz, /debug/vars, /debug/traces,
// /debug/slow, /debug/pprof), -log-level enables structured logging
// on stderr, -trace-sample sets the root trace-sampling probability,
// and -flight-slow/-flight-errors size the slow-request flight
// recorder behind /debug/slow. /healthz
// answers a JSON body carrying admission queue depth, active SPMD
// leases and outbound breaker states alongside the 503 saturation
// signal, so the agent (and humans) can scrape one endpoint.
//
// Inspect a running domain with -list:
//
//	pardisd -list -at tcp:127.0.0.1:9050
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pardis/internal/agent"
	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/naming"
	"pardis/internal/orb"
	"pardis/internal/spmd"
	"pardis/internal/telemetry"
)

// EchoTypeID is the repository id of the built-in echo object
// -serve-echo exports.
const EchoTypeID = "IDL:pardis/Echo:1.0"

func main() {
	listen := flag.String("listen", "tcp:127.0.0.1:9050", "endpoint to serve at")
	list := flag.Bool("list", false, "list names at an existing service instead of serving")
	at := flag.String("at", "tcp:127.0.0.1:9050", "service endpoint for -list")
	prefix := flag.String("prefix", "", "name prefix filter for -list")
	state := flag.String("state", "", "persist the name table to this file (load at start, checkpoint periodically and at shutdown)")
	checkpoint := flag.Duration("checkpoint", 30*time.Second, "checkpoint interval when -state is set")
	drain := flag.Duration("drain", 5*time.Second, "grace period for in-flight requests on SIGTERM/SIGINT before the listener is force-closed")
	retries := flag.Int("retries", 3, "invocation attempts for -list (retry/backoff on transient failures)")
	rpcTimeout := flag.Duration("rpc-timeout", 10*time.Second, "per-invocation deadline for -list")
	metricsListen := flag.String("metrics-listen", "", "host:port to serve /metrics, /healthz, /debug/vars, /debug/traces and /debug/pprof at (empty = disabled)")
	logLevel := flag.String("log-level", "", "enable structured logging on stderr at this level: debug, info, warn or error (empty = silent)")
	traceSample := flag.Float64("trace-sample", 0, "probability a root request starts a recorded trace, in [0,1]")
	flightSlow := flag.Int("flight-slow", telemetry.DefaultFlightSlowK, "slowest invocations the flight recorder keeps per op (0 = disable the recorder)")
	flightErrs := flag.Int("flight-errors", telemetry.DefaultFlightErrCap, "recent errored invocations the flight recorder keeps per op")
	maxInflight := flag.Int("max-inflight", 0, "cap on concurrently running handlers; over-cap requests wait in a bounded queue and are shed TRANSIENT beyond it (0 = unlimited, no admission control)")
	maxInflightConn := flag.Int("max-inflight-per-conn", 0, "per-connection cap on concurrently running handlers (0 = derived: half of -max-inflight)")
	maxQueue := flag.Int("max-queue", 0, "bound on requests waiting for an admission slot (0 = derived: 2x -max-inflight)")
	maxQueueWait := flag.Duration("max-queue-wait", time.Second, "longest a request may wait for admission before a TRANSIENT shed (0 = bounded only by its own deadline)")
	namingAt := flag.String("naming", "", "external naming service endpoint; empty = host the naming service in this process")
	serveEcho := flag.String("serve-echo", "", "export a conventional echo object under this global name (a replica: bound into naming by endpoint merge, registered with the agent when -agent is set)")
	agentAt := flag.String("agent", "", "agent endpoint(s) to register served objects with (heartbeat-renewed; a comma-separated list fans every beat out to all agents of a replicated control plane; empty = no agent)")
	heartbeat := flag.Duration("heartbeat", agent.DefaultHeartbeatInterval, "agent heartbeat interval (registration TTL is 3x this)")
	instance := flag.String("instance", "", "instance identity for agent registration (empty = generated)")
	flag.Parse()

	if *logLevel != "" {
		lvl, err := parseLevel(*logLevel)
		if err != nil {
			fatal(err)
		}
		telemetry.EnableLogging(os.Stderr, lvl)
	}
	telemetry.SetTraceSampling(*traceSample)
	if *flightSlow <= 0 {
		telemetry.DefaultFlight.SetEnabled(false)
	} else {
		telemetry.DefaultFlight.Configure(*flightSlow, *flightErrs)
	}

	if *list {
		runList(*at, *prefix, *retries, *rpcTimeout, *traceSample)
		return
	}
	if *namingAt != "" && *serveEcho == "" {
		fatal(fmt.Errorf("-naming without -serve-echo leaves nothing to serve"))
	}

	// Local-mode naming registry (nil when -naming points elsewhere).
	var reg *naming.Registry
	if *namingAt == "" {
		reg = naming.NewRegistry()
		if *state != "" {
			if err := reg.LoadFile(*state); err != nil {
				fatal(fmt.Errorf("loading state: %w", err))
			}
			if n := len(reg.List("")); n > 0 {
				fmt.Printf("pardisd: restored %d bindings from %s\n", n, *state)
			}
		}
	}

	var srvOpts []orb.ServerOption
	if *maxInflight > 0 {
		ac := orb.DefaultAdmissionConfig()
		ac.MaxConcurrent = *maxInflight
		ac.MaxPerConn = (*maxInflight + 1) / 2
		ac.MaxQueue = 2 * *maxInflight
		if *maxInflightConn > 0 {
			ac.MaxPerConn = *maxInflightConn
		}
		if *maxQueue > 0 {
			ac.MaxQueue = *maxQueue
		}
		ac.MaxWait = *maxQueueWait
		srvOpts = append(srvOpts, orb.WithAdmission(ac))
	}
	srv := orb.NewServer(nil, srvOpts...)
	if reg != nil {
		naming.Serve(srv, reg)
	}
	ep, err := srv.Listen(*listen)
	if err != nil {
		fatal(err)
	}
	if reg != nil {
		fmt.Printf("pardisd: naming service at %s\n", ep)
	}

	// Outbound ORB client, shared by the agent registrar and the
	// remote-naming binding path.
	var oc *orb.Client
	outbound := func() *orb.Client {
		if oc == nil {
			pol := orb.DefaultRetryPolicy()
			oc = orb.NewClient(nil,
				orb.WithRetryPolicy(pol),
				orb.WithDefaultDeadline(5*time.Second))
		}
		return oc
	}

	// The echo replica: a conventional object whose reference other
	// replicas' endpoints merge with in the naming service.
	var echoRef *ior.Ref
	var namingClient *naming.Client
	if *serveEcho != "" {
		key := "objects/" + *serveEcho
		srv.Handle(key, func(in *orb.Incoming) {
			v, err := in.Decoder().DoubleSeq()
			if err != nil {
				_ = in.ReplySystemException("MARSHAL", err.Error())
				return
			}
			_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutDoubleSeq(v) })
		})
		echoRef = &ior.Ref{TypeID: EchoTypeID, Key: key, Threads: 1, Endpoints: []string{ep}}
		if reg != nil {
			if err := reg.BindReplica(*serveEcho, echoRef); err != nil {
				fatal(fmt.Errorf("binding %q: %w", *serveEcho, err))
			}
		} else {
			namingClient = naming.NewClient(outbound(), *namingAt)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := namingClient.BindReplica(ctx, *serveEcho, echoRef)
			cancel()
			if err != nil {
				fatal(fmt.Errorf("binding %q at %s: %w", *serveEcho, *namingAt, err))
			}
		}
		fmt.Printf("pardisd: echo object %q at %s\n", *serveEcho, ep)
	}

	// loadReport snapshots the live signals a heartbeat piggybacks —
	// the same numbers /healthz serves.
	loadReport := func() agent.LoadReport {
		st := srv.AdmissionStats()
		lr := agent.LoadReport{
			AdmissionRunning: st.Running,
			AdmissionQueued:  st.Queued,
			MaxConcurrent:    st.MaxConcurrent,
			MaxQueue:         st.MaxQueue,
			Inflight:         int(telemetry.Default.GaugeValue("pardis_server_inflight")),
			SPMDLeases:       spmd.ActiveLeases(),
			Draining:         srv.Draining(),
		}
		if oc != nil {
			for _, est := range oc.Health() {
				if est.State == "open" {
					lr.BreakersOpen++
				}
			}
		}
		return lr
	}

	var registrar *agent.Registrar
	if *agentAt != "" {
		if echoRef == nil {
			fatal(fmt.Errorf("-agent without -serve-echo leaves nothing to register"))
		}
		var agents []*agent.Client
		for _, aep := range strings.Split(*agentAt, ",") {
			if aep = strings.TrimSpace(aep); aep != "" {
				agents = append(agents, agent.NewClient(outbound(), aep))
			}
		}
		registrar = agent.NewRegistrar(agent.RegistrarConfig{
			Clients:  agents,
			Instance: *instance,
			Interval: *heartbeat,
			Load:     loadReport,
		})
		registrar.Add(*serveEcho, echoRef)
		registrar.Start()
		fmt.Printf("pardisd: registering with agent %s as %s (heartbeat %v)\n",
			*agentAt, registrar.Instance(), *heartbeat)
	}

	if *metricsListen != "" {
		ml, err := net.Listen("tcp", *metricsListen)
		if err != nil {
			fatal(fmt.Errorf("metrics listener: %w", err))
		}
		healthy := func() error {
			if srv.Draining() {
				return fmt.Errorf("draining")
			}
			if srv.AdmissionSaturated() {
				return fmt.Errorf("admission queue saturated")
			}
			return nil
		}
		status := func() map[string]any {
			st := srv.AdmissionStats()
			body := map[string]any{
				"draining":  srv.Draining(),
				"saturated": srv.AdmissionSaturated(),
				"admission": map[string]int{
					"running":        st.Running,
					"queued":         st.Queued,
					"max_concurrent": st.MaxConcurrent,
					"max_queue":      st.MaxQueue,
				},
				"inflight":            telemetry.Default.GaugeValue("pardis_server_inflight"),
				"spmd_leases":         spmd.ActiveLeases(),
				"spmd_leases_expired": spmd.ExpiredLeases(),
			}
			if oc != nil {
				breakers := make(map[string]string)
				for ep, est := range oc.Health() {
					breakers[ep] = est.State
				}
				body["breakers"] = breakers
			}
			return body
		}
		go func() {
			_ = http.Serve(ml, telemetry.Handler(nil, nil, healthy, status))
		}()
		// Machine-readable marker (the integration tests scrape it),
		// with the wildcard port resolved.
		fmt.Printf("METRICS=%s\n", ml.Addr())
	}

	stopCheckpoints := make(chan struct{})
	if reg != nil && *state != "" {
		go func() {
			t := time.NewTicker(*checkpoint)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := reg.SaveFile(*state); err != nil {
						fmt.Fprintln(os.Stderr, "pardisd: checkpoint:", err)
					}
				case <-stopCheckpoints:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("pardisd: draining")
	close(stopCheckpoints)

	// Deregister before draining: the agent stops ranking this
	// replica, and the naming service forgets its endpoints, so no
	// stale registration outlives the process. Both are best-effort —
	// an unreachable agent expires the entries by TTL anyway.
	unregCtx, unregCancel := context.WithTimeout(context.Background(), 5*time.Second)
	if registrar != nil {
		if err := registrar.Stop(unregCtx); err != nil {
			fmt.Fprintln(os.Stderr, "pardisd: agent deregister:", err)
		}
	}
	if echoRef != nil {
		var err error
		if reg != nil {
			err = reg.UnbindReplica(*serveEcho, echoRef)
		} else if namingClient != nil {
			err = namingClient.UnbindReplica(unregCtx, *serveEcho, echoRef)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pardisd: naming unbind:", err)
		}
	}
	unregCancel()

	if reg != nil && *state != "" {
		if err := reg.SaveFile(*state); err != nil {
			fmt.Fprintln(os.Stderr, "pardisd: final checkpoint:", err)
		}
	}
	// Graceful shutdown: stop accepting, answer new requests TRANSIENT,
	// finish in-flight ones up to the -drain deadline, then close the
	// connections with a goodbye message so clients fail over cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "pardisd: drain incomplete:", err)
	}
	if oc != nil {
		oc.Close()
	}
}

// runList implements -list. With tracing sampled on, the whole listing
// runs under one root span whose trace id is printed as "TRACE=<hex>",
// so a cross-process test (or an operator) can find the server-side
// spans of the same trace in the service's /debug/traces.
func runList(at, prefix string, retries int, rpcTimeout time.Duration, traceSample float64) {
	pol := orb.DefaultRetryPolicy()
	if retries > 0 {
		pol.MaxAttempts = retries
	}
	oc := orb.NewClient(nil,
		orb.WithRetryPolicy(pol),
		orb.WithDefaultDeadline(rpcTimeout))
	defer oc.Close()
	nc := naming.NewClient(oc, at)

	ctx := context.Background()
	var span *telemetry.Span
	if traceSample > 0 {
		ctx, span = telemetry.StartSpan(ctx, "pardisd:list")
		if span != nil {
			fmt.Printf("TRACE=%016x\n", span.TraceID)
		}
	}
	defer span.End()

	names, err := nc.List(ctx, prefix)
	if err != nil {
		fatal(err)
	}
	for _, n := range names {
		ref, err := nc.Resolve(ctx, n)
		if err != nil {
			fmt.Printf("%-30s <%v>\n", n, err)
			continue
		}
		fmt.Printf("%-30s %s threads=%d endpoints=%d\n",
			n, ref.TypeID, ref.Threads, len(ref.Endpoints))
	}
}

// parseLevel maps a -log-level string onto a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pardisd:", err)
	os.Exit(1)
}
