// The measured run: set-up cycles, then alternating workload and
// reference slices until the time is up.
package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"pardis/internal/spmd"
)

// plan is the shape of a run. fullPlan is the benchmark; the tests run
// the same code on a plan a hundred times shorter.
type plan struct {
	// setupCycles is how many times the run sets the system up from
	// nothing; setup_s is the median and the last instance is measured.
	setupCycles int
	// warmupDiv divides each workload's fixed warm-up count.
	warmupDiv int
	// A cycle is one workload slice followed by one reference slice.
	// Slices are fixed operation counts, calibrated once after warm-up,
	// so collective workloads need no per-op clock agreement: the workload
	// slice is workloadSlice long but at least minSliceOps operations, and
	// the reference slice lasts refShare of that. Short slices and many
	// cycles, because what a slice measures depends on how the scheduler
	// happened to pair goroutines with threads when it began (a ping-pong
	// reads 5 us or 8 us for a whole slice): the medians need many draws.
	workloadSlice time.Duration
	minSliceOps   int
	refShare      float64
	// calibrateFor is how long a calibration step must last before its
	// rate is trusted.
	calibrateFor time.Duration
	// seconds is how long the cycles run; minCycles guards the medians: a
	// run too short to give that many cycles keeps going past its time.
	seconds   float64
	minCycles int
	replay    replayPlan
}

func fullPlan(seconds float64) plan {
	return plan{
		setupCycles:   9,
		warmupDiv:     1,
		workloadSlice: 60 * time.Millisecond,
		// Three, so that a slice's p50 is still a middle sample. Only
		// xfer_centralized_large (45 ms an operation) sits at this floor; at
		// four it got 75 cycles out of a run and spread the most.
		minSliceOps:  3,
		refShare:     0.6,
		calibrateFor: 250 * time.Millisecond,
		seconds:      seconds,
		minCycles:    10,
		replay:       fullReplay,
	}
}

// cycleSample is what one cycle measured.
type cycleSample struct {
	traced    bool
	ops       int
	wallNs    int64 // workload slice wall time
	p50Ns     int64 // workload op latency p50 in the slice
	refRounds int
	refWallNs int64
	refP50Ns  int64
	refMeanNs float64 // mean time of one reference exchange on its connection
	mallocs   uint64  // deltas over the workload slice only
	allocB    uint64
	numGC     uint32
	cpuS      float64
}

func (c cycleSample) opsPerSec() float64 { return float64(c.ops) / (float64(c.wallNs) / 1e9) }
func (c cycleSample) refPerSec() float64 {
	return float64(c.refRounds) / (float64(c.refWallNs) / 1e9)
}

// measured is everything a run's cycles produced.
type measured struct {
	setupS     []float64 // wall time of each set-up cycle
	setupRef   []float64 // reference rounds/s around each (mean of before and after)
	cycles     []cycleSample
	lat        []int64 // every workload op latency, all slices
	attempted  int64
	failed     int64
	sliceOps   int
	refRounds  int
	refBytes   int
	firstErr   error
	leftBlocks int
	leftLeases int
	td         teardown
	traceMark  int64    // tracer clock when the cycles began
	ctr        counters // telemetry deltas over workload slices (traced run)
}

// calibrate measures how long one call of step's unit takes: it grows n
// until step(n) lasts long enough (trust) for its rate to be believed.
func calibrate(trust time.Duration, step func(n int) (time.Duration, error)) (perCall time.Duration, err error) {
	n := 1
	for {
		d, err := step(n)
		if err != nil {
			return 0, err
		}
		if d >= trust || n >= 1<<24 {
			return d / time.Duration(n), nil
		}
		grow := 2.0
		if d > 0 {
			grow = 1.2 * float64(trust) / float64(d)
		}
		if grow < 2 {
			grow = 2
		}
		if grow > 100 {
			grow = 100
		}
		n = int(float64(n) * grow)
	}
}

// countFor is how many calls of perCall fit target (at least min).
func countFor(target, perCall time.Duration, min int) int {
	n := min
	if perCall > 0 && int(target/perCall) > n {
		n = int(target / perCall)
	}
	return n
}

// runCycles is the benchmark proper. With a tracer, odd cycles record
// spans and even ones do not, so one run yields both sides of
// trace.overhead_rel under the same machine state.
func runCycles(h *harness, w workload, pl plan) (*measured, instance, *controlPlane, error) {
	m := &measured{refBytes: w.refBytes}
	if m.refBytes == 0 {
		m.refBytes = echoWireBytes()
	}
	ref, err := newRefEcho(clientThreads, m.refBytes, w.refCollective)
	if err != nil {
		return nil, nil, nil, err
	}
	defer ref.close()

	perRound, err := calibrate(pl.calibrateFor, func(n int) (time.Duration, error) {
		d, _, err := ref.run(n)
		return d, err
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("reference: %w", err)
	}
	setupRefRounds := countFor(3*pl.workloadSlice, perRound, pl.minSliceOps)

	// Phase 1: set-up, several times; the last instance stays up. A
	// reference slice runs before and after each cycle, for the same
	// reason one follows each workload slice: setup_s is wall time scaled
	// by how fast the host ran the reference around it.
	var inst instance
	var cp *controlPlane
	warmupOps := (w.warmupOps + pl.warmupDiv - 1) / pl.warmupDiv
	refRate := func() (float64, error) {
		d, _, err := ref.run(setupRefRounds)
		return float64(setupRefRounds) / d.Seconds(), err
	}
	before, err := refRate()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("reference: %w", err)
	}
	h.tr.enable(true)
	for i := 0; i < pl.setupCycles; i++ {
		if inst != nil {
			m.noteTeardown(inst.close())
			cp.close()
		}
		if cp, err = h.startControlPlane(); err != nil {
			return nil, nil, nil, err
		}
		t0 := time.Now()
		inst, err = h.setUp(w, cp, warmupOps)
		if err != nil {
			cp.close()
			return nil, nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
		m.attempted += int64(warmupOps)
		after, err := refRate()
		if err != nil {
			inst.close()
			cp.close()
			return nil, nil, nil, fmt.Errorf("reference: %w", err)
		}
		m.setupRef = append(m.setupRef, (before+after)/2)
		before = after
	}
	h.tr.enable(false)

	fail := func(err error) (*measured, instance, *controlPlane, error) {
		inst.close()
		cp.close()
		return nil, nil, nil, err
	}

	// Slice sizes, fixed for the rest of the run.
	perOp, err := calibrate(pl.calibrateFor, func(n int) (time.Duration, error) {
		t0 := time.Now()
		_, failed, err := inst.slice(n, nil)
		m.attempted += int64(n)
		m.failed += int64(failed)
		if failed > 0 {
			return 0, fmt.Errorf("calibration: %w", err)
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return fail(err)
	}
	m.sliceOps = countFor(pl.workloadSlice, perOp, pl.minSliceOps)
	refSlice := time.Duration(pl.refShare * float64(m.sliceOps) * float64(perOp))
	m.refRounds = countFor(refSlice, perRound, pl.minSliceOps)

	// The first and last operations of the run are verified in full,
	// outside the timed slices.
	m.attempted++
	if err := inst.verifyAll(); err != nil {
		return fail(err)
	}

	// Phase 2.
	runtime.GC()

	// Phase 3: cycles.
	var ms0, ms1 runtime.MemStats
	var lat []int64
	m.traceMark = h.tr.now()
	start := time.Now()
	deadline := start.Add(time.Duration(pl.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) || i < pl.minCycles; i++ {
		c := cycleSample{traced: h.tr != nil && i%2 == 1, ops: m.sliceOps, refRounds: m.refRounds}
		h.tr.enable(c.traced)
		lat = lat[:0]
		var ctr0 counters
		if h.tr != nil {
			ctr0 = readCounters(h.counting)
		}
		cpu0 := processCPU()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		var failed int
		lat, failed, err = inst.slice(m.sliceOps, lat)
		c.wallNs = int64(time.Since(t0))
		runtime.ReadMemStats(&ms1)
		c.cpuS = processCPU() - cpu0
		if h.tr != nil {
			m.ctr.addDelta(ctr0, readCounters(h.counting))
		}
		h.tr.enable(false)
		m.attempted += int64(m.sliceOps)
		m.failed += int64(failed)
		if failed > 0 && m.firstErr == nil {
			m.firstErr = err
		}
		c.mallocs = ms1.Mallocs - ms0.Mallocs
		c.allocB = ms1.TotalAlloc - ms0.TotalAlloc
		c.numGC = ms1.NumGC - ms0.NumGC
		m.lat = append(m.lat, lat...)
		c.p50Ns = p50Ns(lat)

		d, rlat, err := ref.run(m.refRounds)
		if err != nil {
			return fail(fmt.Errorf("reference: %w", err))
		}
		c.refWallNs = int64(d)
		c.refP50Ns = p50Ns(rlat)
		c.refMeanNs = float64(d) / float64(m.refRounds)
		if !w.refCollective {
			// Independent connections overlap: a round on one of k
			// lasts k times the slice's time per round.
			c.refMeanNs *= clientThreads
		}
		m.cycles = append(m.cycles, c)
	}

	m.attempted++
	if err := inst.verifyAll(); err != nil {
		m.failed++
		if m.firstErr == nil {
			m.firstErr = err
		}
	}
	sort.Slice(m.lat, func(i, j int) bool { return m.lat[i] < m.lat[j] })
	return m, inst, cp, nil
}

func (m *measured) noteTeardown(td teardown) {
	m.leftBlocks += td.PendingBlocks
	m.td = td
}

// finish tears the measured instance down and closes the leak ledger.
func (m *measured) finish(inst instance, cp *controlPlane) {
	m.noteTeardown(inst.close())
	cp.close()
	m.leftLeases = spmd.ActiveLeases()
}

// setupSeconds is setup_s: the median over the set-up cycles of the
// cycle's wall time scaled by (reference rate around it ÷ the workload's
// nominal reference rate). On a host that runs the reference at the
// nominal rate it is plain wall time; on a host in a slow minute the
// reference is slow by about the same factor and the product stays put.
func (m *measured) setupSeconds(w workload) float64 {
	v := make([]float64, len(m.setupS))
	for i, s := range m.setupS {
		v[i] = s * m.setupRef[i] / w.refNominal
	}
	return median(v)
}

// pick returns the cycles of one kind (traced or not).
func (m *measured) pick(traced bool) []cycleSample {
	var out []cycleSample
	for _, c := range m.cycles {
		if c.traced == traced {
			out = append(out, c)
		}
	}
	return out
}

// Ratios over a set of cycles.
func throughputRel(cs []cycleSample) float64 {
	num := make([]float64, len(cs))
	den := make([]float64, len(cs))
	for i, c := range cs {
		num[i], den[i] = c.opsPerSec(), c.refPerSec()
	}
	return ratioMedian(num, den)
}

// latencyTrim is the share of cycles latencyP50Rel drops at each end.
const latencyTrim = 0.10

// latencyP50Rel divides the workload's p50 by the reference's *mean*
// round time, not by its p50. The p50 of a bare ping-pong on a saturated
// 2-vCPU host is a scheduling artefact whose relation to the mean swings
// with the host's mood (p50/mean read 0.44 in a fast minute, 0.75 in a
// slow one), so a p50/p50 ratio spread 14-24 % across runs of the same
// code; against the mean round time the same runs spread 5-8 %.
//
// Over the cycles it takes the trimmed mean, not the median. A slice's
// p50 is two-valued: an echo reads 10 us when the scheduler hands the
// reply straight over and 14 us when it does not, for the whole slice,
// and a run is a mix of about half and half. The median over cycles sits
// on the edge between the two and falls to one side or the other: twenty
// runs of the same code gave 0.91-0.95 or 1.00-1.05 and nothing between
// (quartile spread 10.7 %, and a same-code shift of 7.6 % against the
// hour before, with throughput_rel unmoved). The mean moves with the mix
// in proportion: the same cycles spread 4-7 % and shifted 2.6 %. The
// trim keeps a slice the host stalled from weighing on it.
func latencyP50Rel(cs []cycleSample) float64 {
	num := make([]float64, len(cs))
	den := make([]float64, len(cs))
	for i, c := range cs {
		num[i], den[i] = float64(c.p50Ns), c.refMeanNs
	}
	return trimmedMean(cycleRatios(num, den), latencyTrim)
}

func perOp(cs []cycleSample, f func(cycleSample) uint64) float64 {
	var sum uint64
	var ops int
	for _, c := range cs {
		sum += f(c)
		ops += c.ops
	}
	if ops == 0 {
		return 0
	}
	return float64(sum) / float64(ops)
}

func allocsPerOp(cs []cycleSample) float64 {
	return perOp(cs, func(c cycleSample) uint64 { return c.mallocs })
}

func allocBytesPerOp(cs []cycleSample) float64 {
	return perOp(cs, func(c cycleSample) uint64 { return c.allocB })
}

func medianOf(cs []cycleSample, f func(cycleSample) float64) float64 {
	v := make([]float64, len(cs))
	for i, c := range cs {
		v[i] = f(c)
	}
	return median(v)
}
