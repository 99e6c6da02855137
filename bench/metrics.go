// Metric assembly: the five end-to-end metrics of an untraced run, and
// the per-layer set of a traced run (raw figures, span-derived path
// times, telemetry deltas, replays, budget).
package main

import (
	"strings"

	"pardis/internal/core"
	"pardis/internal/telemetry"
)

// endToEnd is the untraced run's metric set; BENCHMARK.json lists the
// same names and units (a test holds the two together).
func endToEnd(w workload, m *measured) map[string]metricValue {
	cs := m.pick(false)
	return map[string]metricValue{
		"setup_s":            {m.setupSeconds(w), "s"},
		"throughput_rel":     {throughputRel(cs), "ratio"},
		"latency_p50_rel":    {latencyP50Rel(cs), "ratio"},
		"allocs_per_op":      {allocsPerOp(cs), "count"},
		"alloc_bytes_per_op": {allocBytesPerOp(cs), "B"},
	}
}

// payloadBytes is the distributed-argument (or echo) payload one
// operation moves, both directions together.
func payloadBytes(w workload) int { return 2 * 8 * w.elems }

// counters is a snapshot of the process-wide telemetry the traced run
// reads at workload-slice boundaries, so reference slices and replays
// stay out of the per-op figures.
type counters struct {
	wireBytes, poolGets, poolMisses uint64
	fresh, resolutions              uint64
	reads, writes                   int64
}

var (
	ctrWire       = telemetry.Default.Counter("pardis_transport_bytes_written_total", "scheme", "tcp")
	ctrPoolGets   = telemetry.Default.Counter("pardis_giop_pool_gets_total")
	ctrPoolMisses = telemetry.Default.Counter("pardis_giop_pool_misses_total")
	ctrFresh      = telemetry.Default.Counter("pardis_agent_resolver_total", "source", "fresh_cache")
)

func readCounters(tcp *countingTCP) counters {
	c := counters{
		wireBytes:   ctrWire.Value(),
		poolGets:    ctrPoolGets.Value(),
		poolMisses:  ctrPoolMisses.Value(),
		fresh:       ctrFresh.Value(),
		resolutions: telemetry.Default.CounterValue("pardis_agent_resolver_total"),
	}
	if tcp != nil {
		c.reads, c.writes = tcp.reads.Load(), tcp.writes.Load()
	}
	return c
}

func (c *counters) addDelta(before, after counters) {
	c.wireBytes += after.wireBytes - before.wireBytes
	c.poolGets += after.poolGets - before.poolGets
	c.poolMisses += after.poolMisses - before.poolMisses
	c.fresh += after.fresh - before.fresh
	c.resolutions += after.resolutions - before.resolutions
	c.reads += after.reads - before.reads
	c.writes += after.writes - before.writes
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// pathTimes are the four stamps per operation the harness can take in
// one clock domain, because it owns both the call site and the servant:
// client call, last-rank handler entry, last-rank handler exit, client
// return; skew is max-min client-rank return (the paper's exit barrier
// column).
type pathTimes struct {
	inUs, handlerUs, outUs, skewUs float64
	ops                            int
}

func pathTimesFrom(spans []span, sinceNs int64) pathTimes {
	type stamps struct {
		call, ret           int64
		retMin, retMax      int64
		entryMax, exitMax   int64
		haveOp, haveHandler bool
		haveRank            bool
	}
	ops := make(map[uint64]*stamps)
	get := func(id uint64) *stamps {
		s := ops[id]
		if s == nil {
			s = &stamps{}
			ops[id] = s
		}
		return s
	}
	for _, sp := range spans {
		if sp.Op == 0 || sp.Start < sinceNs {
			continue
		}
		switch {
		case sp.Name == spanOp:
			s := get(sp.Op)
			s.call, s.ret, s.haveOp = sp.Start, sp.End, true
		case strings.HasPrefix(sp.Name, spanHandler):
			s := get(sp.Op)
			if !s.haveHandler || sp.Start > s.entryMax {
				s.entryMax = sp.Start
			}
			if !s.haveHandler || sp.End > s.exitMax {
				s.exitMax = sp.End
			}
			s.haveHandler = true
		case strings.HasPrefix(sp.Name, spanInvokeRank):
			s := get(sp.Op)
			if !s.haveRank || sp.End < s.retMin {
				s.retMin = sp.End
			}
			if !s.haveRank || sp.End > s.retMax {
				s.retMax = sp.End
			}
			s.haveRank = true
		}
	}
	var in, hd, out, skew []float64
	for _, s := range ops {
		if !s.haveOp || !s.haveHandler {
			continue // the ring dropped part of this operation
		}
		in = append(in, float64(s.entryMax-s.call)/1e3)
		hd = append(hd, float64(s.exitMax-s.entryMax)/1e3)
		out = append(out, float64(s.ret-s.exitMax)/1e3)
		if s.haveRank {
			skew = append(skew, float64(s.retMax-s.retMin)/1e3)
		}
	}
	return pathTimes{inUs: median(in), handlerUs: median(hd), outUs: median(out), skewUs: median(skew), ops: len(in)}
}

// setupSpanUs is the median duration in us of the named set-up span
// over the run's set-up cycles.
func setupSpanUs(spans []span, name string) float64 {
	var v []float64
	for _, s := range spans {
		if s.Name == name {
			v = append(v, float64(s.End-s.Start)/1e3)
		}
	}
	return median(v)
}

// budgetRow is one line of the outside-in budget: how many times an
// operation calls into a layer and what one call costs in the replay.
type budgetRow struct {
	Layer  string  `json:"layer"`
	Calls  float64 `json:"calls_per_op"`
	UnitUs float64 `json:"us_per_call"`
}

func (r budgetRow) us() float64 { return r.Calls * r.UnitUs }

// budget builds the per-operation model of w from the replays. The
// replays are serial and single-stream, so on a workload whose threads
// overlap their transfers the attributed share can exceed 1; the model
// is a yardstick for "where could the time be going", and what it cannot
// name is budget.unattributed_share — the number in-process phase stamps
// (ROADMAP item 2) are meant to drive down.
func budget(w workload, ls layerSet, handlerUs float64) []budgetRow {
	usPerMB := func(name string) float64 { return ratio(1e6, ls.get(name)) } // us to move 1 MB
	oneWayMB := float64(8*w.elems) / 1e6
	rows := []budgetRow{{"handler", 1, handlerUs}}
	collectives := []budgetRow{
		{"rts.bcast_us", 2, ls.get("rts.bcast_us")},     // client header + server control record
		{"rts.barrier_us", 1, ls.get("rts.barrier_us")}, // exit barrier
	}
	switch {
	case w.invoke:
		rows = append(rows,
			budgetRow{"agent.resolver_hit_ns", 1, ls.get("agent.resolver_hit_ns") / 1e3},
			budgetRow{"cdr.small_encode_ns", 4, ls.get("cdr.small_encode_ns") / 1e3}, // encode+decode, request+reply
			budgetRow{"giop.request_encode_ns", 2, ls.get("giop.request_encode_ns") / 1e3},
			budgetRow{"giop.request_decode_ns", 2, ls.get("giop.request_decode_ns") / 1e3},
			budgetRow{"transport.tcp_pingpong_us", 1, ls.get("transport.tcp_pingpong_us")},
			budgetRow{"telemetry.counter_inc_ns", 6, ls.get("telemetry.counter_inc_ns") / 1e3},
			budgetRow{"telemetry.histogram_observe_ns", 3, ls.get("telemetry.histogram_observe_ns") / 1e3},
		)
	case w.method == core.MultiPort:
		rows = append(rows,
			budgetRow{"orb.invoke_us", 1, ls.get("orb.invoke_us")}, // header request/reply on the communicator
			budgetRow{"dist.plan_ns", 4, ls.get("dist.plan_ns") / 1e3},
			budgetRow{"orb.put_window_MBps", 2 * oneWayMB, usPerMB("orb.put_window_MBps")},
		)
		rows = append(rows, collectives...)
	default: // centralized: Table 1's columns, both directions
		rows = append(rows,
			budgetRow{"orb.invoke_us", 1, ls.get("orb.invoke_us")},
			budgetRow{"dseq.gather_p2_MBps", oneWayMB, usPerMB("dseq.gather_p2_MBps")},
			budgetRow{"cdr.put_double_seq_MBps", 2 * oneWayMB, usPerMB("cdr.put_double_seq_MBps")},
			budgetRow{"transport.tcp_stream_MBps", 2 * oneWayMB, usPerMB("transport.tcp_stream_MBps")},
			budgetRow{"cdr.get_double_seq_MBps", 2 * oneWayMB, usPerMB("cdr.get_double_seq_MBps")},
			budgetRow{"dseq.scatter_MBps", oneWayMB, usPerMB("dseq.scatter_MBps")},
			budgetRow{"dseq.gather_MBps", oneWayMB, usPerMB("dseq.gather_MBps")},
			budgetRow{"dseq.scatter_p2_MBps", oneWayMB, usPerMB("dseq.scatter_p2_MBps")},
		)
		rows = append(rows, collectives...)
	}
	return rows
}

// perLayer completes the per-layer set of a traced run around what the
// replays already put in: raw figures, span-derived path times,
// telemetry deltas, leak ledger and the budget. It returns the budget
// rows for the report.
func perLayer(ls layerSet, w workload, m *measured, spans []span) []budgetRow {
	plain, traced := m.pick(false), m.pick(true)

	// raw.* and ref.*: the numerators and denominators of the ratios.
	opsPerS := medianOf(plain, cycleSample.opsPerSec)
	p50us := medianOf(plain, func(c cycleSample) float64 { return float64(c.p50Ns) / 1e3 })
	ls.put("raw.ops_per_s", opsPerS, "1/s")
	ls.put("raw.goodput_MBps", opsPerS*float64(payloadBytes(w))/1e6, "MB/s")
	ls.put("raw.latency_p50_us", p50us, "us")
	tailQ, _ := tailQuantile(len(m.lat))
	ls.put("raw.latency_tail_us", float64(quantileNs(m.lat, tailQ))/1e3, "us")
	ls.put("raw.latency_tail_q", tailQ, "ratio")
	ls.put("raw.latency_samples", float64(len(m.lat)), "count")
	var cpu float64
	var ops, gcs int
	for _, c := range m.cycles {
		cpu += c.cpuS
		ops += c.ops
		gcs += int(c.numGC)
	}
	ls.put("raw.cpu_us_per_op", ratio(cpu*1e6, float64(ops)), "us")
	ls.put("raw.peak_rss_MB", peakRSSMB(), "MB")
	ls.put("raw.gc_cycles_per_kop", ratio(float64(gcs)*1e3, float64(ops)), "count")
	ls.put("ref.rounds_per_s", medianOf(plain, cycleSample.refPerSec), "1/s")
	ls.put("ref.round_p50_us", medianOf(plain, func(c cycleSample) float64 { return float64(c.refP50Ns) / 1e3 }), "us")
	ls.put("ref.round_mean_us", medianOf(plain, func(c cycleSample) float64 { return c.refMeanNs / 1e3 }), "us")

	// Telemetry deltas over every workload slice of the run.
	fops := float64(ops)
	ls.put("transport.wire_bytes_per_op", ratio(float64(m.ctr.wireBytes), fops), "B")
	ls.put("transport.wire_overhead_ratio", ratio(float64(m.ctr.wireBytes), fops*float64(payloadBytes(w))), "ratio")
	ls.put("transport.write_calls_per_op", ratio(float64(m.ctr.writes), fops), "count")
	ls.put("transport.read_calls_per_op", ratio(float64(m.ctr.reads), fops), "count")
	ls.put("giop.pool_hit_ratio", 1-ratio(float64(m.ctr.poolMisses), float64(m.ctr.poolGets)), "ratio")
	ls.put("agent.fresh_ratio", ratio(float64(m.ctr.fresh), float64(m.ctr.resolutions)), "ratio")
	for metric, counter := range map[string]string{
		"orb.retries":         "pardis_client_retries_total",
		"orb.failovers":       "pardis_client_failovers_total",
		"orb.deadline_misses": "pardis_client_deadline_misses_total",
	} {
		ls.put(metric, float64(telemetry.Default.CounterValue(counter)), "count")
	}

	// Path times from the spans of the traced cycles.
	pt := pathTimesFrom(spans, m.traceMark)
	ls.put("spmd.in_path_us", pt.inUs, "us")
	ls.put("spmd.handler_us", pt.handlerUs, "us")
	ls.put("spmd.out_path_us", pt.outUs, "us")
	ls.put("spmd.rank_skew_us", pt.skewUs, "us")
	ls.put("spmd.bytes_out_per_op", ratio(float64(m.td.ClientBytesOut), float64(m.td.Invocations)), "B")
	ls.put("spmd.bytes_in_per_op", ratio(float64(m.td.ClientBytesIn), float64(m.td.Invocations)), "B")
	ls.put("spmd.pending_blocks", float64(m.leftBlocks), "count")
	ls.put("spmd.leaked_leases", float64(m.leftLeases), "count")

	// Set-up parts from the spans of the set-up cycles.
	ls.put("core.join_domain_us", setupSpanUs(spans, spanJoin), "us")
	ls.put("core.export_us", setupSpanUs(spans, spanExport), "us")
	ls.put("core.spmd_bind_us", setupSpanUs(spans, spanBind), "us")

	rows := budget(w, ls, pt.handlerUs)
	var attributed float64
	for _, r := range rows {
		attributed += r.us()
	}
	share := ratio(attributed, p50us)
	ls.put("budget.attributed_share", share, "ratio")
	unattributed := 1 - share
	if unattributed < 0 {
		unattributed = 0
	}
	ls.put("budget.unattributed_share", unattributed, "ratio")
	ls.put("trace.overhead_rel", ratio(throughputRel(traced), throughputRel(plain)), "ratio")
	return rows
}
