package main

import (
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"

	"pardis/internal/core"
	"pardis/internal/spmd"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

// The ratio is taken inside each cycle and only then summarised: a
// machine that doubles its speed for one cycle moves numerator and
// denominator together and leaves the estimate where it was, while the
// ratio of the two medians would not be the same thing at all.
func TestRatioMedianIsMedianOfCycleRatios(t *testing.T) {
	num := []float64{100, 200, 100, 100, 210}
	den := []float64{200, 400, 200, 200, 400}
	if got := ratioMedian(num, den); got != 0.5 {
		t.Errorf("ratioMedian = %v, want 0.5", got)
	}
	// A zero denominator drops the cycle, it does not poison the median.
	if got := ratioMedian([]float64{1, 2, 3}, []float64{2, 0, 6}); got != 0.5 {
		t.Errorf("ratioMedian with a zero denominator = %v, want 0.5", got)
	}
}

// The trimmed mean drops whole samples at both ends and moves in
// proportion with a two-valued mix, where the median jumps.
func TestTrimmedMean(t *testing.T) {
	if got := trimmedMean(nil, 0.1); got != 0 {
		t.Errorf("trimmedMean(nil) = %v, want 0", got)
	}
	// Ten samples, a tenth off each end: the stalled slice (1000) and the
	// lowest sample go, the rest are averaged.
	in := []float64{1000, 2, 3, 4, 5, 6, 7, 8, 9, 1}
	if got := trimmedMean(in, 0.1); got != 5.5 {
		t.Errorf("trimmedMean = %v, want 5.5", got)
	}
	if in[0] != 1000 {
		t.Error("trimmedMean reordered its input")
	}
	// Fewer than ten samples: nothing to drop.
	if got := trimmedMean([]float64{1, 2, 6}, 0.1); got != 3 {
		t.Errorf("trimmedMean of three = %v, want 3", got)
	}
	// 45 % against 55 % of slices in the slow mode: the median flips from
	// one mode to the other, the trimmed mean moves by a tenth of the gap.
	mix := func(slow int) []float64 {
		v := make([]float64, 100)
		for i := range v {
			v[i] = 10
			if i < slow {
				v[i] = 14
			}
		}
		return v
	}
	if a, b := median(mix(45)), median(mix(55)); a != 10 || b != 14 {
		t.Errorf("medians of the two mixes = %v, %v; want 10, 14", a, b)
	}
	a, b := trimmedMean(mix(45), latencyTrim), trimmedMean(mix(55), latencyTrim)
	if d := b - a; math.Abs(d-0.5) > 1e-9 {
		t.Errorf("trimmed means %v -> %v differ by %v, want 0.5", a, b, d)
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailQuantileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		have bool
	}{
		{50, 0, false},
		{99, 0, false},
		{100, 0.9, true},
		{199, 0.9, true},
		{200, 0.95, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
		{100000, 0.9999, true},
		{5000000, 0.9999, true},
	} {
		q, ok := tailQuantile(c.n)
		if ok != c.have || q != c.q {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.q, c.have)
		}
		if ok && float64(c.n)*(1-q) < 10-1e-9 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than ten samples beyond", c.n, q)
		}
	}
}

func TestQuantileNs(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for q, want := range map[float64]int64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0: 1} {
		if got := quantileNs(s, q); got != want {
			t.Errorf("quantileNs(q=%v) = %d, want %d", q, got, want)
		}
	}
	if got := p50Ns([]int64{9, 1, 5}); got != 5 {
		t.Errorf("p50Ns = %d, want 5", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what judges the benchmark's spread.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([0.9, 1.0, 1.1, 1.3, 0.95], n=4) == [0.925, 1.0, 1.2]
	q1, q2, q3 = quartiles([]float64{0.9, 1.0, 1.1, 1.3, 0.95})
	for i, d := range []float64{q1 - 0.925, q2 - 1.0, q3 - 1.2} {
		if math.Abs(d) > 1e-12 {
			t.Errorf("quartile %d off by %v", i+1, d)
		}
	}
	if got, want := iqrSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrSpread = %v, want %v", got, want)
	}
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json and the program must name the same workloads and the
// same end-to-end metrics, within the contract's limits.
func TestSpecAgreesWithProgram(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !metricNameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why too long (%d)", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	for _, ms := range spec.EndToEnd {
		// Timing bounds come from the A/A table, max(5%, 2 x gap), and stop
		// at 10%: a wider one would call a regression of a tenth unchanged.
		// The allocation metrics repeat far better and are held to 2%.
		lo, hi := 0.05, 0.10
		if ms.Name == "allocs_per_op" || ms.Name == "alloc_bytes_per_op" {
			lo, hi = 0.02, 0.02
		}
		if ms.Bound < lo || ms.Bound > hi {
			t.Errorf("end-to-end %q: bound %v outside [%v, %v]", ms.Name, ms.Bound, lo, hi)
		}
		seen[ms.Name] = true
	}
	for _, ms := range spec.PerLayer {
		if ms.Bound != 0 {
			t.Errorf("per-layer %q has a bound", ms.Name)
		}
	}
	for _, ms := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricNameRE.MatchString(ms.Name) {
			t.Errorf("metric name %q does not match %v", ms.Name, metricNameRE)
		}
		if !unitRE.MatchString(ms.Unit) {
			t.Errorf("metric %q: unit %q does not match %v", ms.Name, ms.Unit, unitRE)
		}
		if ms.Better != "lower" && ms.Better != "higher" {
			t.Errorf("metric %q: better=%q", ms.Name, ms.Better)
		}
	}
	if !seen["setup_s"] {
		t.Error("BENCHMARK.json lacks setup_s")
	}
	if len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(spec.PerLayer))
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
}

// smokePlan is the benchmark's own run shape, about a hundred times
// shorter.
func smokePlan() plan {
	return plan{
		setupCycles:   1,
		warmupDiv:     20,
		workloadSlice: 30 * time.Millisecond,
		minSliceOps:   2,
		refShare:      0.5,
		calibrateFor:  15 * time.Millisecond,
		minCycles:     2,
		replay:        replayPlan{batch: 200 * time.Microsecond, streamBytes: 4 << 20, collDiv: 50, coldCycles: 2},
	}
}

// skipUnderRace leaves the multi-port inout transfers out of a -race
// run. Client and server share this process and, for an inout argument,
// one buffer: the client's window puts read it, the server's answering
// puts land in it. The answer is causally after the send, but the order
// is kept by the kernel (socket write, then socket read), which the race
// detector does not model on Linux, so it reports a race that two
// processes could never have.
func skipUnderRace(t *testing.T, w workload) bool {
	if raceDetector && !w.invoke && w.method == core.MultiPort {
		t.Logf("%s: skipped under -race (socket-ordered inout buffer, see skipUnderRace)", w.name)
		return true
	}
	return false
}

// goroutinesSettle waits for the goroutine count to come back to base:
// closed connections take a moment to unwind their read loops.
func goroutinesSettle(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// Every workload, two cycles, verification on: no failed operation,
// nothing left in a block router, no lease, no goroutine.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range workloads {
		if skipUnderRace(t, w) {
			continue
		}
		base := runtime.NumGoroutine()
		out, err := runPlan(io.Discard, w, 7, smokePlan(), false, dir)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if out.Failed != 0 || !out.Correct || out.Attempted < 1 {
			t.Errorf("%s: attempted=%d failed=%d correct=%v", w.name, out.Attempted, out.Failed, out.Correct)
		}
		if out.Env.Cycles < 2 {
			t.Errorf("%s: %d cycles, want at least 2", w.name, out.Env.Cycles)
		}
		if n := spmd.ActiveLeases(); n != 0 {
			t.Errorf("%s: %d leases active at teardown", w.name, n)
		}
		if len(out.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", w.name, len(out.Metrics), len(spec.EndToEnd))
		}
		for _, ms := range spec.EndToEnd {
			mv, ok := out.Metrics[ms.Name]
			if !ok || mv.Unit != ms.Unit || !(mv.Value > 0) {
				t.Errorf("%s: end-to-end %s = %+v (present=%v), want a positive %s", w.name, ms.Name, mv, ok, ms.Unit)
			}
		}
		if n := goroutinesSettle(base); n > base {
			buf := make([]byte, 1<<16)
			t.Errorf("%s: %d goroutines before, %d after\n%s", w.name, base, n, buf[:runtime.Stack(buf, true)])
		}
	}
}

// The traced run emits exactly the per-layer names BENCHMARK.json lists,
// with their units, writes the trace file, and leaves nothing behind.
func TestTracedRunEmitsPerLayerSpec(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"xfer_multiport_small", "invoke_named"} {
		w, _ := findWorkload(name)
		if skipUnderRace(t, w) {
			continue
		}
		base := runtime.NumGoroutine()
		out, err := runPlan(io.Discard, w, 11, smokePlan(), true, dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.Correct || out.Failed != 0 {
			t.Errorf("%s: failed=%d correct=%v", name, out.Failed, out.Correct)
		}
		want := map[string]string{}
		for _, ms := range spec.PerLayer {
			want[ms.Name] = ms.Unit
		}
		var missing, extra []string
		for n, unit := range want {
			if mv, ok := out.Metrics[n]; !ok {
				missing = append(missing, n)
			} else if mv.Unit != unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", name, n, mv.Unit, unit)
			}
		}
		for n := range out.Metrics {
			if _, ok := want[n]; !ok {
				extra = append(extra, n)
			}
			if !metricNameRE.MatchString(n) {
				t.Errorf("emitted name %q does not match %v", n, metricNameRE)
			}
		}
		sort.Strings(missing)
		sort.Strings(extra)
		if len(missing) > 0 || len(extra) > 0 {
			t.Errorf("%s: not emitted: %v; not in BENCHMARK.json: %v", name, missing, extra)
		}
		for _, n := range []string{"orb.retries", "orb.failovers", "orb.deadline_misses", "spmd.pending_blocks", "spmd.leaked_leases"} {
			if v := out.Metrics[n].Value; v != 0 {
				t.Errorf("%s: %s = %v, must be 0", name, n, v)
			}
		}
		for _, n := range []string{"core.join_domain_us", "core.export_us"} {
			if v := out.Metrics[n].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want a set-up span's duration", name, n, v)
			}
		}
		if len(out.Budget) == 0 {
			t.Errorf("%s: no budget rows", name)
		}
		if st, err := os.Stat(dir + "/trace-" + name + ".json"); err != nil || st.Size() == 0 {
			t.Errorf("%s: trace file: %v", name, err)
		}
		if n := goroutinesSettle(base); n > base {
			t.Errorf("%s: %d goroutines before, %d after", name, base, n)
		}
	}
}

func TestReferenceKernel(t *testing.T) {
	for _, c := range []struct {
		bytes      int
		collective bool
	}{
		{380, false},
		{4 << 10, true},
		{refInlineMax + 1, true}, // the concurrent-writer path
	} {
		r, err := newRefEcho(2, c.bytes, c.collective)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			d, lat, err := r.run(20)
			if err != nil {
				t.Fatal(err)
			}
			if len(lat) != 20 || d <= 0 {
				t.Errorf("bytes=%d collective=%v: %d round times in %v, want 20", c.bytes, c.collective, len(lat), d)
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := r.run(20); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("bytes=%d collective=%v: %v allocations per slice in steady state", c.bytes, c.collective, allocs)
		}
		r.close()
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Op: 9, Start: 0, End: 100},
		{ID: 2, Name: "handler.rank0", Op: 9, Parent: 1, Start: 10, End: 40},
		{ID: 3, Name: "handler.rank1", Op: 9, Parent: 1, Start: 30, End: 60},  // overlaps rank0
		{ID: 4, Name: "handler.rank2", Op: 9, Parent: 1, Start: 90, End: 120}, // clipped to the parent
	}
	sum := summarize(spans)
	if got := sum["op"].SelfNs; got != 100-50-10 {
		t.Errorf("op self time = %d, want 40", got)
	}
	if got := sum["handler.rank0"].SelfNs; got != 30 {
		t.Errorf("leaf self time = %d, want 30", got)
	}
	pt := pathTimesFrom(append(spans,
		span{ID: 5, Name: spanInvokeRank + "0", Op: 9, Start: 0, End: 100},
		span{ID: 6, Name: spanInvokeRank + "1", Op: 9, Start: 1, End: 107},
	), 0)
	// call 0 | last entry 90 | last exit 120 | return 100
	if pt.inUs != 0.09 || pt.handlerUs != 0.03 || pt.outUs != -0.02 || pt.skewUs != 0.007 || pt.ops != 1 {
		t.Errorf("path times = %+v", pt)
	}
}

func TestTracerNilAndRing(t *testing.T) {
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin(), "x", 0, 0) // must not panic
	nilTracer.enable(true)

	tr := newTracer()
	tr.end(tr.begin(), "off", 0, 0)
	if tr.recorded() != 0 {
		t.Error("a disabled tracer recorded a span")
	}
	tr.enable(true)
	op := tr.begin()
	tr.end(tr.begin(), spanHandler+"0", 0, 42)
	tr.end(op, spanOp, 0, 42)
	got := tr.spans()
	if len(got) != 2 {
		t.Fatalf("%d spans, want 2", len(got))
	}
	for _, s := range got {
		if s.Name != spanOp && s.Parent != op.id {
			t.Errorf("handler span parent = %d, want the op span %d", s.Parent, op.id)
		}
	}
}

// The set-up spans must survive a run whose per-operation spans wrap the
// ring (invoke_named records two spans per echo, half a million in a
// traced run): core.join_domain_us, core.export_us and the set-up
// waterfall are read from them after the cycles.
func TestSetupSpansSurviveRingWrap(t *testing.T) {
	tr := newTracer()
	tr.enable(true)
	root := tr.begin()
	join := tr.begin()
	time.Sleep(time.Millisecond)
	tr.end(join, spanJoin, root.id, 0)
	tr.end(root, spanSetup, 0, 0)
	for op := uint64(1); op <= spanRingCap+10; op++ {
		tr.end(tr.begin(), spanOp, 0, op)
	}
	spans := tr.spans()
	if got, want := len(spans), 2+spanRingCap; got != want {
		t.Errorf("%d spans retained, want %d (2 set-up + a full ring)", got, want)
	}
	if got, want := tr.recorded(), 2+spanRingCap+10; got != want {
		t.Errorf("%d spans recorded, want %d", got, want)
	}
	if us := setupSpanUs(spans, spanJoin); us < 1000 {
		t.Errorf("core.join_domain_us = %v after the ring wrapped, want at least the 1000 us slept", us)
	}
	if spans[0].Name != spanSetup || spans[1].Name != spanJoin {
		t.Errorf("first spans are %q, %q; want the set-up spans in start order", spans[0].Name, spans[1].Name)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_rel", Better: "lower", Bound: 0.05}
	higher := metricSpec{Name: "throughput_rel", Better: "higher", Bound: 0.05}
	tight := func(c float64) []float64 { return []float64{c * 0.999, c, c * 1.001, c, c} }
	for _, c := range []struct {
		name string
		a, b []float64
		spec metricSpec
		want string
	}{
		{"same", tight(1), tight(1.01), lower, verdictUnchanged},
		{"slower", tight(1), tight(1.2), lower, verdictRegressed},
		{"faster", tight(1), tight(0.8), lower, verdictImproved},
		{"less throughput", tight(1), tight(0.9), higher, verdictRegressed},
		{"more throughput", tight(1), tight(1.1), higher, verdictImproved},
		// A spread wider than the bound: not "unchanged" ...
		{"noisy", []float64{0.8, 1, 1.2, 0.9, 1.1}, []float64{0.85, 1, 1.15, 0.9, 1.1}, lower, verdictUnresolved},
		// ... unless every run of b beats every run of a.
		{"noisy but disjoint", []float64{0.8, 1, 1.2, 0.9, 1.1}, []float64{0.5, 0.6, 0.7, 0.55, 0.65}, lower, verdictImproved},
	} {
		if got, _, _ := judge(c.a, c.b, c.spec); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentEnvironments(t *testing.T) {
	base := newEnv(1)
	base.Elems, base.RefBytes = 1024, 4096
	if err := comparable(base, base); err != nil {
		t.Errorf("identical environments refused: %v", err)
	}
	// The seed, the commit and the calibrated slice sizes may differ.
	other := base
	other.Seed, other.GitCommit, other.SliceOps, other.Cycles = 2, "abc", 99, 3
	if err := comparable(base, other); err != nil {
		t.Errorf("seed/commit/slice difference refused: %v", err)
	}
	for name, mutate := range map[string]func(*envBlock){
		"cpu":        func(e *envBlock) { e.CPUModel += " v2" },
		"gomaxprocs": func(e *envBlock) { e.GOMAXPROCS++ },
		"go":         func(e *envBlock) { e.GoVersion += "x" },
		"elems":      func(e *envBlock) { e.Elems *= 2 },
		"threads":    func(e *envBlock) { e.ServerThreads++ },
		"nominal":    func(e *envBlock) { e.RefNominal += 1 },
	} {
		other := base
		mutate(&other)
		if err := comparable(base, other); err == nil {
			t.Errorf("%s difference was not refused", name)
		}
	}
}
