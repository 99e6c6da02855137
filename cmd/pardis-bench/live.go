// Live benchmark mode: unlike the calibrated testbed model, -live
// drives the real ORB stack in-process (client → transport → server
// dispatch and back) and reports what the telemetry registry measured,
// so the numbers come from the same instruments an operator reads off
// /metrics in production. With -faulty the run goes through the
// fault-injection transport and the summary reconciles the faults the
// plan injected against the retries and failovers the ORB recorded.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/orb"
	"pardis/internal/spmd"
	"pardis/internal/telemetry"
	"pardis/internal/transport"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pardis-bench:", err)
	os.Exit(1)
}

// liveConfig carries the -live flag group.
type liveConfig struct {
	ops         int
	doubles     int
	concurrency int
	stripes     int // 0 = orb.DefaultStripeWidth()
	faulty      bool
	maxInflight int // 0 = no admission control, -1 = orb defaults
	jsonOut     bool
}

// liveResult is the machine-readable summary emitted by -live -json
// (the bench-snapshot make target archives it as BENCH_<date>.json).
type liveResult struct {
	Date        string  `json:"date"`
	Ops         int     `json:"ops"`
	Errors      int     `json:"errors"`
	Doubles     int     `json:"doubles_per_op"`
	Concurrency int     `json:"concurrency"`
	Stripes     int     `json:"stripes"`
	XferWindow  int     `json:"xfer_window"`
	XferChunk   int     `json:"xfer_chunk_bytes"`
	AutoTune    bool    `json:"auto_tune"`
	Faulty      bool    `json:"faulty"`
	Elapsed     float64 `json:"elapsed_seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50us       float64 `json:"p50_us"`
	P95us       float64 `json:"p95_us"`
	P99us       float64 `json:"p99_us"`
	Retries     uint64  `json:"retries"`
	Failovers   uint64  `json:"failovers"`
	Deadlines   uint64  `json:"deadline_misses"`
	Faults      uint64  `json:"faults_injected"`
	PoolHitRate float64 `json:"pool_hit_rate"`
}

// benchFaultPlan is the moderate chaos mix used by -live -faulty:
// enough injected failure to exercise retry and failover without
// drowning the run.
// The client pools connections, so dials are rare relative to ops;
// high per-dial rates are what keep faults flowing through the run.
var benchFaultPlan = transport.FaultPlan{
	Seed:       7,
	DialRefuse: 0.25,
	Cut:        0.6,
	CutAfter:   32 * 1024,
	Truncate:   0.5,
}

func runLive(cfg liveConfig) {
	reg := transport.NewRegistry()
	in := transport.NewInproc()
	reg.Register(in)
	var faulty *transport.Faulty
	listenAt := "inproc:bench"
	if cfg.faulty {
		faulty = transport.NewFaulty(in, benchFaultPlan)
		reg.Register(faulty)
		listenAt = "faulty+inproc:bench"
	}

	var srvOpts []orb.ServerOption
	if cfg.maxInflight != 0 {
		ac := orb.DefaultAdmissionConfig()
		if cfg.maxInflight > 0 {
			ac.MaxConcurrent = cfg.maxInflight
			ac.MaxPerConn = (cfg.maxInflight + 1) / 2
			ac.MaxQueue = 2 * cfg.maxInflight
		}
		srvOpts = append(srvOpts, orb.WithAdmission(ac))
	}
	srv := orb.NewServer(reg, srvOpts...)
	srv.Handle("bench/echo", func(inc *orb.Incoming) {
		v, err := inc.Decoder().DoubleSeq()
		if err != nil {
			_ = inc.ReplySystemException("MARSHAL", err.Error())
			return
		}
		_ = inc.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutDoubleSeq(v) })
	})
	ep, err := srv.Listen(listenAt)
	if err != nil {
		fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	pol := orb.DefaultRetryPolicy()
	pol.MaxAttempts = 5
	clientOpts := []orb.ClientOption{
		orb.WithRetryPolicy(pol),
		orb.WithDefaultDeadline(5 * time.Second),
	}
	if cfg.stripes > 0 {
		clientOpts = append(clientOpts, orb.WithStripes(cfg.stripes))
	}
	oc := orb.NewClient(reg, clientOpts...)
	defer oc.Close()

	payload := make([]float64, cfg.doubles)
	for i := range payload {
		payload[i] = float64(i)
	}
	body := func(e *cdr.Encoder) { e.PutDoubleSeq(payload) }

	var errCount int
	var errMu sync.Mutex
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				hdr := giop.RequestHeader{
					InvocationID:     oc.NewInvocationID(),
					ResponseExpected: true,
					ObjectKey:        "bench/echo",
					Operation:        "echo",
					ThreadRank:       -1,
					ThreadCount:      1,
				}
				_, _, _, err := oc.Invoke(context.Background(), ep, hdr, body)
				if err != nil {
					errMu.Lock()
					errCount++
					errMu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < cfg.ops; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	// Everything below reads the same process-wide registry the ORB
	// layers wrote into during the run.
	tr := telemetry.Default
	var snap telemetry.HistogramSnapshot
	for k, s := range tr.HistogramsByName("pardis_client_invoke_seconds") {
		if strings.Contains(k, `op="echo"`) {
			snap = s
		}
	}
	poolGets := tr.CounterValue("pardis_giop_pool_gets_total")
	poolMisses := tr.CounterValue("pardis_giop_pool_misses_total")
	hitRate := 0.0
	if poolGets > 0 {
		hitRate = 1 - float64(poolMisses)/float64(poolGets)
	}
	stripes := cfg.stripes
	if stripes == 0 {
		stripes = orb.DefaultStripeWidth()
	}
	res := liveResult{
		Date:        time.Now().UTC().Format("2006-01-02"),
		Ops:         cfg.ops,
		Errors:      errCount,
		Doubles:     cfg.doubles,
		Concurrency: cfg.concurrency,
		Stripes:     stripes,
		// The resolved process-wide data-plane configuration this run
		// executed under (what the zero-valued knobs meant here).
		XferWindow:  spmd.ResolvedXferWindow(),
		XferChunk:   spmd.ResolvedXferChunkBytes(),
		AutoTune:    spmd.DefaultAutoTune,
		Faulty:      cfg.faulty,
		Elapsed:     elapsed.Seconds(),
		OpsPerSec:   float64(cfg.ops) / elapsed.Seconds(),
		P50us:       snap.Quantile(0.50) * 1e6,
		P95us:       snap.Quantile(0.95) * 1e6,
		P99us:       snap.Quantile(0.99) * 1e6,
		Retries:     tr.CounterValue("pardis_client_retries_total"),
		Failovers:   tr.CounterValue("pardis_client_failovers_total"),
		Deadlines:   tr.CounterValue("pardis_client_deadline_misses_total"),
		Faults:      tr.CounterValue("pardis_faults_injected_total"),
		PoolHitRate: hitRate,
	}

	if cfg.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("live bench: %d ops x %d doubles, concurrency %d, stripes %d, faulty=%v\n",
		res.Ops, res.Doubles, res.Concurrency, res.Stripes, res.Faulty)
	fmt.Printf("  %.0f ops/s over %.2fs (%d errors)\n", res.OpsPerSec, res.Elapsed, res.Errors)
	fmt.Printf("  invoke latency: p50 %.0fus  p95 %.0fus  p99 %.0fus  (min %.0fus max %.0fus, n=%d)\n",
		res.P50us, res.P95us, res.P99us, snap.Min*1e6, snap.Max*1e6, snap.Count)
	printHistogram(snap)
	fmt.Printf("  retries=%d failovers=%d deadline_misses=%d pool_hit_rate=%.3f\n",
		res.Retries, res.Failovers, res.Deadlines, res.PoolHitRate)
	printFlightSummary("echo")
	if faulty != nil {
		// Reconcile the transport's own fault ledger against the
		// mirrored telemetry counters — the two are independent
		// bookkeeping paths and must agree.
		st := faulty.Stats()
		planned := uint64(st.RefusedDials + st.CutConns + st.TruncatedWrites + st.BlackholedConns)
		status := "OK"
		if planned != res.Faults {
			status = "MISMATCH"
		}
		fmt.Printf("  faults: injected=%d (refused=%d cut=%d truncated=%d blackholed=%d) telemetry=%d [%s]\n",
			planned, st.RefusedDials, st.CutConns, st.TruncatedWrites, st.BlackholedConns,
			res.Faults, status)
	}
}

// printFlightSummary reports what the flight recorder caught for one
// op: the slowest invocations per side and how many errored ones it
// holds — the same records /debug/slow serves on a production server.
func printFlightSummary(op string) {
	for _, fop := range telemetry.DefaultFlight.Snapshot() {
		if fop.Op != op || len(fop.Slowest) == 0 {
			continue
		}
		worst := fop.Slowest[0]
		line := fmt.Sprintf("  flight[%s]: %d slowest kept (worst %.0fus", fop.Side, len(fop.Slowest),
			worst.Duration.Seconds()*1e6)
		if worst.Attempts > 1 || worst.Failovers > 0 || worst.ReResolves > 0 {
			line += fmt.Sprintf(", attempts=%d failovers=%d reresolves=%d",
				worst.Attempts, worst.Failovers, worst.ReResolves)
		}
		if worst.QueueWait > 0 {
			line += fmt.Sprintf(", queue_wait=%.0fus", worst.QueueWait.Seconds()*1e6)
		}
		if worst.Trace != "" && worst.TraceID != 0 {
			line += ", trace=" + worst.Trace
		}
		fmt.Printf("%s), %d errored\n", line, len(fop.Errors))
	}
}

// printHistogram renders the invoke-latency histogram as a bar per
// occupied bucket, upper bound in microseconds.
func printHistogram(s telemetry.HistogramSnapshot) {
	if s.Count == 0 {
		return
	}
	max := s.Inf
	for _, c := range s.Counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return
	}
	bar := func(c uint64) string {
		n := int(c * 40 / max)
		if c > 0 && n == 0 {
			n = 1
		}
		return strings.Repeat("#", n)
	}
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		fmt.Printf("  %10.0fus %7d %s\n", s.Edges[i]*1e6, c, bar(c))
	}
	if s.Inf > 0 {
		fmt.Printf("  %10s %7d %s\n", "+Inf", s.Inf, bar(s.Inf))
	}
}
