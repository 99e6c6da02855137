// The human-readable report: everything a person needs to read one run
// without opening the JSON.
package main

import (
	"fmt"
	"io"
	"strings"
)

// unattributedWarn is the budget share above which the report warns:
// more than this of an operation's p50 has no layer's name on it.
const unattributedWarn = 0.35

func printReport(w io.Writer, wl workload, out *runOutput, m *measured, spans []span) {
	e := out.Env
	fmt.Fprintf(w, "== %s (trace=%v): %s\n", wl.name, out.Trace, wl.why)
	fmt.Fprintf(w, "env: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s kernel=%s llc=%s\n",
		e.CPUModel, e.NProc, e.GOMAXPROCS, e.GoVersion, e.GitCommit, e.Kernel, e.LLC)
	fmt.Fprintf(w, "env: transport=%s seed=%d cycles=%d\n", e.Transport, e.Seed, e.Cycles)
	fmt.Fprintf(w, "load: closed loop, %d client threads (n) -> %d server threads (m), %d doubles per op; slice=%d ops, reference=%d rounds of %d conns x %d B\n",
		e.ClientThreads, e.ServerThreads, e.Elems, e.SliceOps, e.RefRounds, clientThreads, e.RefBytes)
	fmt.Fprintf(w, "ops: attempted=%d failed=%d correct=%v left-behind: blocks=%d leases=%d\n",
		out.Attempted, out.Failed, out.Correct, m.leftBlocks, m.leftLeases)
	if m.firstErr != nil {
		fmt.Fprintf(w, "first error: %v\n", m.firstErr)
	}

	plain := m.pick(false)
	opsPerS := medianOf(plain, cycleSample.opsPerSec)
	p50us := medianOf(plain, func(c cycleSample) float64 { return float64(c.p50Ns) / 1e3 })
	mbPerS := opsPerS * float64(payloadBytes(wl)) / 1e6
	fmt.Fprintf(w, "raw: %.1f ops/s, %.1f MB/s payload, p50 %.1f us | reference: %.1f rounds/s, round mean %.1f us, p50 %.1f us\n",
		opsPerS, mbPerS, p50us,
		medianOf(plain, cycleSample.refPerSec),
		medianOf(plain, func(c cycleSample) float64 { return c.refMeanNs / 1e3 }),
		medianOf(plain, func(c cycleSample) float64 { return float64(c.refP50Ns) / 1e3 }))

	fmt.Fprintf(w, "set-up: wall %.4f s (median of %d cycles), reference around it %.1f rounds/s; setup_s is wall x that rate / the nominal %.0f rounds/s\n",
		median(m.setupS), len(m.setupS), median(m.setupRef), wl.refNominal)

	if !out.Trace {
		for _, n := range sortedNames(out.Metrics) {
			fmt.Fprintf(w, "  %-22s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
		}
		return
	}

	ls := layerSet(out.Metrics)
	// Roofline rows: what the raw figures are a fraction of.
	fmt.Fprintf(w, "roofline: memcpy %.0f MB/s (arrays %d MiB, LLC %s: below the 4x-LLC rule, read as cache-assisted) | tcp stream %.0f MB/s, ping-pong %.1f us | pipe stream %.0f MB/s, ping-pong %.1f us\n",
		ls.get("roofline.memcpy_MBps"), memcpyBytes>>20, e.LLC,
		ls.get("roofline.tcp_stream_MBps"), ls.get("roofline.tcp_pingpong_us"),
		ls.get("roofline.pipe_stream_MBps"), ls.get("roofline.pipe_pingpong_us"))
	fmt.Fprintf(w, "roofline share: %.1f MB/s is %.1f%% of tcp stream; p50 %.1f us is %.1fx tcp ping-pong\n",
		mbPerS, 100*ratio(mbPerS, ls.get("roofline.tcp_stream_MBps")),
		p50us, ratio(p50us, ls.get("roofline.tcp_pingpong_us")))

	fmt.Fprintln(w, "per-layer metrics:")
	for _, n := range sortedNames(out.Metrics) {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}

	// The waterfall: set-up parts, path times, layer estimates.
	fmt.Fprintln(w, "waterfall, set-up (median of set-up cycles, us):")
	for _, n := range []string{spanJoin, spanExport, spanRegister, spanResolve, spanBind, spanWarmup, spanSetup} {
		fmt.Fprintf(w, "  %-18s %12.1f\n", n, setupSpanUs(spans, n))
	}
	fmt.Fprintf(w, "waterfall, one operation (us): in-path %.1f | handler %.1f | out-path %.1f | rank skew %.1f | p50 %.1f\n",
		ls.get("spmd.in_path_us"), ls.get("spmd.handler_us"), ls.get("spmd.out_path_us"), ls.get("spmd.rank_skew_us"), p50us)
	fmt.Fprintln(w, "budget (calls per op x replay cost):")
	for _, r := range out.Budget {
		fmt.Fprintf(w, "  %-32s %10.3f x %12.3f us = %12.1f us (%5.1f%%)\n",
			r.Layer, r.Calls, r.UnitUs, r.us(), 100*ratio(r.us(), p50us))
	}
	fmt.Fprintf(w, "budget: attributed %.3f, unattributed %.3f of p50; trace.overhead_rel %.3f\n",
		ls.get("budget.attributed_share"), ls.get("budget.unattributed_share"), ls.get("trace.overhead_rel"))
	if u := ls.get("budget.unattributed_share"); u > unattributedWarn {
		fmt.Fprintf(w, "WARNING: %s: %.0f%% of an operation's p50 is attributed to no layer (threshold %.0f%%)\n",
			wl.name, 100*u, 100*unattributedWarn)
	}
	fmt.Fprintln(w, strings.Repeat("-", 72))
}
