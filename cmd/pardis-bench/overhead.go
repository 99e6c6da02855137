// Observability overhead gate: -overhead runs the same in-process
// echo workload twice per round — once with the new observability
// surface off (no exemplars, no flight recorder, no digest
// collection) and once with all of it on — and reports the median
// throughput cost across rounds. With -overhead-gate the run exits
// nonzero when the cost exceeds the instrumentation budget, which is
// how `make bench-overhead` keeps the plane honest:
//
//	pardis-bench -overhead
//	pardis-bench -overhead -overhead-rounds 7 -overhead-gate
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"pardis/internal/agent"
	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/orb"
	"pardis/internal/telemetry"
	"pardis/internal/transport"
)

// overheadConfig carries the -overhead flag group.
type overheadConfig struct {
	ops         int
	doubles     int
	concurrency int
	rounds      int
	sample      float64 // trace-sampling rate held equal on both sides
	budget      float64 // fail threshold as a fraction, e.g. 0.05
	gate        bool
	jsonOut     bool
}

// overheadResult is the machine-readable summary of one gate run.
type overheadResult struct {
	Date           string    `json:"date"`
	Ops            int       `json:"ops_per_side"`
	Rounds         int       `json:"rounds"`
	Budget         float64   `json:"budget_fraction"`
	BaselineOpsSec float64   `json:"baseline_ops_per_sec_median"`
	LoadedOpsSec   float64   `json:"loaded_ops_per_sec_median"`
	Overheads      []float64 `json:"overhead_fraction_per_round"`
	Median         float64   `json:"overhead_fraction_median"`
	Pass           bool      `json:"pass"`
}

// runOverhead measures the throughput cost of the observability
// plane's hot-path additions: histogram exemplars, the flight
// recorder, and heartbeat digest collection. Trace sampling is held
// at the same (nonzero) rate on both sides so exemplars actually
// have trace ids to capture and the A/B isolates the new surface, not
// tracing itself. Rounds interleave baseline and loaded runs so CPU
// frequency drift and allocator warmup hit both sides equally; the
// reported overhead is the median across rounds.
func runOverhead(cfg overheadConfig) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := orb.NewServer(reg)
	srv.Handle("bench/echo", func(inc *orb.Incoming) {
		v, err := inc.Decoder().DoubleSeq()
		if err != nil {
			_ = inc.ReplySystemException("MARSHAL", err.Error())
			return
		}
		_ = inc.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutDoubleSeq(v) })
	})
	ep, err := srv.Listen("inproc:overhead")
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	oc := orb.NewClient(reg, orb.WithDefaultDeadline(5*time.Second))
	defer oc.Close()

	payload := make([]float64, cfg.doubles)
	for i := range payload {
		payload[i] = float64(i)
	}
	body := func(e *cdr.Encoder) { e.PutDoubleSeq(payload) }

	telemetry.SetTraceSampling(cfg.sample)
	defer telemetry.SetTraceSampling(0)

	// measure runs cfg.ops echo invocations and returns ops/sec.
	measure := func() float64 {
		work := make(chan struct{})
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
					if _, _, _, err := oc.Invoke(context.Background(), ep, hdr, body); err != nil {
						fatal(fmt.Errorf("overhead bench invoke: %w", err))
					}
				}
			}()
		}
		for i := 0; i < cfg.ops; i++ {
			work <- struct{}{}
		}
		close(work)
		wg.Wait()
		return float64(cfg.ops) / time.Since(start).Seconds()
	}

	// baseline/loaded toggle exactly the features under test.
	baseline := func() {
		telemetry.SetExemplars(false)
		telemetry.DefaultFlight.SetEnabled(false)
	}
	loaded := func() {
		telemetry.SetExemplars(true)
		telemetry.DefaultFlight.SetEnabled(true)
	}

	// The heartbeat's digest collection, at the registrar's default
	// cadence, runs through the loaded sides only.
	digestStop := make(chan struct{})
	digestOn := make(chan bool)
	go func() {
		t := time.NewTicker(agent.DefaultHeartbeatInterval)
		defer t.Stop()
		on := false
		for {
			select {
			case on = <-digestOn:
			case <-t.C:
				if on {
					_ = agent.CollectDigest()
				}
			case <-digestStop:
				return
			}
		}
	}()
	defer close(digestStop)

	// One throwaway warmup on each side before measurement.
	baseline()
	measure()
	loaded()
	measure()

	var baseRates, loadRates, overheads []float64
	for r := 0; r < cfg.rounds; r++ {
		baseline()
		digestOn <- false
		b := measure()
		loaded()
		digestOn <- true
		l := measure()
		baseRates = append(baseRates, b)
		loadRates = append(loadRates, l)
		overheads = append(overheads, (b-l)/b)
	}

	res := overheadResult{
		Date:           time.Now().UTC().Format("2006-01-02"),
		Ops:            cfg.ops,
		Rounds:         cfg.rounds,
		Budget:         cfg.budget,
		BaselineOpsSec: median(baseRates),
		LoadedOpsSec:   median(loadRates),
		Overheads:      overheads,
		Median:         median(overheads),
	}
	res.Pass = res.Median <= cfg.budget

	if cfg.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("observability overhead: exemplars + flight recorder + digest collection\n")
		fmt.Printf("  %d ops x %d rounds, concurrency %d, trace sampling %.2f on both sides\n",
			cfg.ops, cfg.rounds, cfg.concurrency, cfg.sample)
		fmt.Printf("  baseline %.0f ops/s, loaded %.0f ops/s (medians)\n",
			res.BaselineOpsSec, res.LoadedOpsSec)
		for i, o := range overheads {
			fmt.Printf("  round %d: %+.2f%%\n", i+1, 100*o)
		}
		verdict := "within"
		if !res.Pass {
			verdict = "OVER"
		}
		fmt.Printf("  median overhead %+.2f%% — %s the %.0f%% budget\n",
			100*res.Median, verdict, 100*cfg.budget)
	}
	if cfg.gate && !res.Pass {
		fmt.Fprintf(os.Stderr, "pardis-bench: overhead gate failed: median %.2f%% > budget %.0f%%\n",
			100*res.Median, 100*cfg.budget)
		os.Exit(1)
	}
}

// median of a copy; the input order is preserved for reporting.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
