// Command pardis-bench regenerates the paper's evaluation artifacts
// from the calibrated testbed model:
//
//	pardis-bench -table 1      # Table 1 (centralized transfer grid)
//	pardis-bench -table 2      # Table 2 (multi-port transfer grid)
//	pardis-bench -figure 4     # Figure 4 (bandwidth vs length, n=4 m=8)
//	pardis-bench -spot uneven  # §3.3 n=3 m=5 check
//	pardis-bench -all          # everything, plus the deviation summary
//
// Each output shows the model value next to the paper's published
// value. See EXPERIMENTS.md for the per-cell comparison and the
// Figure 4 unit reconciliation.
//
// -live instead benchmarks the real ORB stack in-process and reports
// the latency histogram and retry/failover summary straight from the
// telemetry registry (add -json for the bench-snapshot format, -faulty
// to run through the fault-injection transport):
//
//	pardis-bench -live -ops 5000 -doubles 1024
//	pardis-bench -live -faulty
//	pardis-bench -live -json
//
// -ha drives the NetSolve-style agent stack in-process: an agent, N
// heartbeat-tracked echo replicas and a static naming fallback under
// a sustained name-level invocation burst, with one replica crashed
// mid-run (disable with -kill=false). -agents replicates the control
// plane itself: heartbeats fan out to every agent, the agents
// peer-sync their tables, the resolver rotates on failure — and -kill
// then crashes an agent mid-run too. The summary reports the client-
// visible error count next to the failover/re-resolution work that
// absorbed the crashes:
//
//	pardis-bench -ha -replicas 3
//	pardis-bench -ha -agents 2
//	pardis-bench -ha -json
//
// -dataplane benchmarks the real SPMD data plane instead: an n-thread
// client streams a block-distributed dsequence<double> into an
// m-thread multi-port object and the Figure-4-style bandwidth curve
// is reported (add -json for machine-readable points; -xfer-window
// and -xfer-chunk pin the transfer knobs under test):
//
//	pardis-bench -dataplane -threads 4
//	pardis-bench -dataplane -xfer-window 1 -xfer-chunk -1 -json
//
// -tune A/Bs the self-tuning transport against the static knobs over
// the same server object, -wan emulates a high-latency path (per-dial
// and per-write latency through the fault-injection transport, no
// faults), and -auto-tune enables the tuner process-wide for any mode:
//
//	pardis-bench -dataplane -tune
//	pardis-bench -dataplane -tune -wan 200us
//	pardis-bench -dataplane -auto-tune -json
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"pardis/internal/perfmodel"
	"pardis/internal/simnet"
	"pardis/internal/spmd"
)

// pick returns v unless it still holds the flag default def, in which
// case it returns fallback (used where two modes share a flag but
// want different defaults).
func pick(v, def, fallback int) int {
	if v == def {
		return fallback
	}
	return v
}

func main() {
	table := flag.Int("table", 0, "regenerate table 1 or 2")
	figure := flag.Int("figure", 0, "regenerate figure 4")
	spot := flag.String("spot", "", "spot checks: 'uneven' (§3.3 n=3 m=5)")
	study := flag.String("study", "", "extension studies: 'dist' (§5 argument-distribution study)")
	csv := flag.Bool("csv", false, "emit CSV instead of formatted tables")
	all := flag.Bool("all", false, "regenerate everything")
	seed := flag.Int64("seed", 0, "override simulation seed (0 = calibrated default)")
	reps := flag.Int("reps", 0, "override invocation repetitions (0 = default)")
	live := flag.Bool("live", false, "benchmark the real ORB stack in-process instead of the model")
	ops := flag.Int("ops", 5000, "invocations to issue in -live mode")
	doubles := flag.Int("doubles", 1024, "payload doubles per invocation in -live mode")
	concurrency := flag.Int("concurrency", 4, "concurrent invokers in -live mode")
	stripes := flag.Int("stripes", 0, "connections per endpoint for the -live client (0 = orb default, min(4, GOMAXPROCS))")
	faulty := flag.Bool("faulty", false, "route -live traffic through the fault-injection transport")
	maxInflight := flag.Int("max-inflight", 0, "admission cap on concurrently running handlers in the -live server (0 = unlimited; -1 = orb defaults)")
	jsonOut := flag.Bool("json", false, "emit the -live summary as JSON (bench-snapshot format)")
	ha := flag.Bool("ha", false, "drive the agent HA stack in-process: heartbeat-tracked replicas, load-ranked resolution, client failover")
	replicas := flag.Int("replicas", 3, "replica count in -ha mode")
	agents := flag.Int("agents", 1, "agent count in -ha mode; >1 replicates the control plane (heartbeat fan-out, peer sync, resolver rotation)")
	kill := flag.Bool("kill", true, "crash one replica (and, with -agents >1, one agent) mid-run in -ha mode (-kill=false for a fault-free baseline)")
	overhead := flag.Bool("overhead", false, "measure the observability plane's throughput cost: A/B the echo workload with exemplars+flight recorder+digest collection off vs on")
	overheadRounds := flag.Int("overhead-rounds", 5, "interleaved baseline/loaded round pairs in -overhead mode")
	overheadSample := flag.Float64("overhead-sample", 0.05, "trace-sampling rate held equal on both -overhead sides (exemplars need sampled traces)")
	overheadBudget := flag.Float64("overhead-budget", 0.05, "instrumentation budget as a fraction of baseline throughput")
	overheadGate := flag.Bool("overhead-gate", false, "exit nonzero when the median -overhead cost exceeds -overhead-budget")
	dataplane := flag.Bool("dataplane", false, "benchmark the real SPMD data plane (Figure-4-style in-transfer bandwidth curve)")
	clientThreads := flag.Int("client-threads", 1, "client SPMD threads (n) in -dataplane mode")
	serverThreads := flag.Int("threads", 4, "server SPMD threads (m) in -dataplane mode")
	xferWindow := flag.Int("xfer-window", 0, "concurrent block streams per SPMD transfer (0 = default, min(4, GOMAXPROCS); 1 = serial)")
	xferChunk := flag.Int("xfer-chunk", 0, "SPMD block chunk size in bytes (0 = default 256KiB, negative = disable chunking)")
	autoTune := flag.Bool("auto-tune", false, "enable the self-tuning transport process-wide: per-endpoint path models re-derive chunk/window/stripe knobs from live transfer telemetry")
	tuneAB := flag.Bool("tune", false, "in -dataplane mode, A/B the self-tuning transport against the static knobs over the same server object")
	wan := flag.Duration("wan", 0, "in -dataplane mode, emulate a WAN path: add this latency to every dial and delivered write (0 = direct in-process transport)")
	flag.Parse()

	if *xferWindow != 0 {
		spmd.DefaultXferWindow = *xferWindow
	}
	if *xferChunk != 0 {
		spmd.DefaultXferChunkBytes = *xferChunk
	}
	if *autoTune {
		spmd.DefaultAutoTune = true
	}

	if *overhead {
		runOverhead(overheadConfig{
			ops:         *ops,
			doubles:     pick(*doubles, 1024, 256),
			concurrency: *concurrency,
			rounds:      *overheadRounds,
			sample:      *overheadSample,
			budget:      *overheadBudget,
			gate:        *overheadGate,
			jsonOut:     *jsonOut,
		})
		return
	}

	if *dataplane {
		runDataplane(dataplaneConfig{
			clientThreads: *clientThreads,
			serverThreads: *serverThreads,
			reps:          *reps,
			doubles:       pick(*doubles, 1024, 0),
			jsonOut:       *jsonOut,
			tuneAB:        *tuneAB,
			wanLatency:    *wan,
		})
		return
	}

	if *ha {
		runHA(haConfig{
			ops:         *ops,
			doubles:     pick(*doubles, 1024, 256),
			concurrency: *concurrency,
			replicas:    *replicas,
			agents:      *agents,
			kill:        *kill,
			jsonOut:     *jsonOut,
		})
		return
	}

	if *live {
		runLive(liveConfig{
			ops:         *ops,
			doubles:     *doubles,
			concurrency: *concurrency,
			stripes:     *stripes,
			faulty:      *faulty,
			maxInflight: *maxInflight,
			jsonOut:     *jsonOut,
		})
		return
	}

	p := simnet.DefaultParams()
	if *seed != 0 {
		p.Seed = *seed
	}
	if *reps > 0 {
		p.Reps = *reps
	}

	ran := false
	if *all || *table == 1 {
		rows := perfmodel.Table1(p)
		if *csv {
			fmt.Print(perfmodel.CSVTable1(rows))
		} else {
			fmt.Print(perfmodel.FormatTable1(rows))
		}
		fmt.Println()
		ran = true
	}
	if *all || *table == 2 {
		rows := perfmodel.Table2(p)
		if *csv {
			fmt.Print(perfmodel.CSVTable2(rows))
		} else {
			fmt.Print(perfmodel.FormatTable2(rows))
		}
		fmt.Println()
		ran = true
	}
	if *all || *figure == 4 {
		pts := perfmodel.Figure4(p, nil)
		if *csv {
			fmt.Print(perfmodel.CSVFigure4(pts))
		} else {
			fmt.Print(perfmodel.FormatFigure4(pts))
		}
		fmt.Println()
		ran = true
	}
	if *all || *study == "dist" {
		fmt.Print(perfmodel.FormatDistStudy(perfmodel.DistStudy(p)))
		fmt.Println()
		ran = true
	}
	if *all || *spot == "uneven" {
		model, paper := perfmodel.SpotUneven(p)
		fmt.Printf("§3.3 uneven split (n=3, m=5, 2^17 doubles, multi-port):\n")
		fmt.Printf("  model %.0f ms | paper ~%.0f ms\n\n", model, paper)
		ran = true
	}
	if *all {
		t1, t2 := perfmodel.Deviations(p)
		worst, sum := 0.0, 0.0
		for _, d := range append(t1, t2...) {
			r := math.Abs(d.Relative())
			sum += r
			if r > worst {
				worst = r
			}
		}
		fmt.Printf("deviation summary over %d grid totals: mean %.1f%%, worst %.1f%%\n",
			len(t1)+len(t2), 100*sum/float64(len(t1)+len(t2)), 100*worst)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
