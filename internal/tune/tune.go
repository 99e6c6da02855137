// Package tune fits a per-endpoint path model from a cheap bind-time
// probe plus live transfer telemetry, and turns it into data-plane
// knob recommendations.
//
// The model is deliberately small: an EWMA over observed per-transfer
// bandwidth (bytes/seconds) and an EWMA over probed round-trip time.
// From those two numbers the bandwidth-delay product (BDP) falls out,
// and the recommendation follows classic transport sizing:
//
//   - chunk size amortizes the per-chunk fixed cost (framing, encode,
//     syscall) against the path's byte rate, growing toward the largest
//     early-put buffer the ORB recycles on fast paths;
//   - the transfer window must cover BDP/chunk so the wire never idles
//     waiting for a chunk acknowledgment on long-RTT paths;
//   - stripes follow window depth, so a deep window is not serialized
//     onto one connection's write lock.
//
// Every recommendation floors at the static defaults (256 KiB chunks,
// min(4, GOMAXPROCS) window/stripes), so a cold or badly-sampled path
// is never tuned below the configuration it would have had with tuning
// off — tuned match-or-dominates static by construction, and the
// Figure-4 sweep test in sweep_test.go checks it against an
// independent simnet path model.
//
// Hysteresis: a recommendation is re-derived only when the model has
// drifted beyond Config.Hysteresis from the values that produced it,
// so noisy per-transfer samples do not flap the knobs between
// transfers. Idle paths re-seed: after Config.IdleReset without a
// sample, the next sample replaces the EWMA instead of being averaged
// into stale history.
package tune

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"pardis/internal/telemetry"
)

// Defaults for Config zero values.
const (
	DefaultAlpha      = 0.3
	DefaultHysteresis = 0.25
	DefaultMinSamples = 3
	DefaultIdleReset  = 30 * time.Second
	// DefaultMinChunkBytes is the static data-plane default: tuning
	// never shrinks chunks below it.
	DefaultMinChunkBytes = 256 << 10
	// DefaultMaxChunkBytes is the largest early-put buffer the ORB
	// recycles (orb/window.go): a chunk above it that beats its window's
	// registration would be parked in a fresh allocation every time.
	DefaultMaxChunkBytes = 1 << 20
	DefaultMaxWindow     = 32
	DefaultMaxStripes    = 8
	// DefaultRTT stands in for the round-trip time of a path that was
	// never probed (e.g. the server side of a binding, which only sees
	// transfer samples).
	DefaultRTT = time.Millisecond
	// chunkAmortSeconds is the per-chunk fixed-cost amortization
	// target: the recommended chunk should carry at least this much
	// wire time, so framing/encode overhead stays a small fraction.
	chunkAmortSeconds = 200e-6
	// WindowHeadroom over-provisions the BDP-derived window. Measured
	// bandwidth underestimates path capacity whenever the previous
	// window was itself the bottleneck, so sizing the next window for
	// exactly the measured BDP would freeze the loop at its first
	// guess; the headroom lets each adaptation probe past the last
	// measurement until the wire (not the window) limits throughput.
	// Extra window costs only in-flight buffer memory — never
	// throughput — so over-provisioning is safe.
	WindowHeadroom = 1.5
	// poolSampleInterval rate-limits reads of the process-wide pool
	// counters from the Record hot path.
	poolSampleInterval = 100 * time.Millisecond
)

// Config tunes the tuner. The zero value uses the defaults above.
type Config struct {
	// Alpha is the EWMA weight of a new sample in (0, 1].
	Alpha float64
	// Hysteresis is the fractional model drift (bandwidth or RTT)
	// required before a recommendation is re-derived.
	Hysteresis float64
	// MinSamples is how many transfer samples a path needs before the
	// tuner recommends anything (callers fall back to the static
	// defaults until then).
	MinSamples int
	// IdleReset is the sample gap after which the EWMA re-seeds from
	// the next sample instead of averaging into stale history.
	IdleReset time.Duration
	// MinChunkBytes / MaxChunkBytes bound the chunk recommendation.
	MinChunkBytes, MaxChunkBytes int
	// MaxWindow / MaxStripes bound the window and stripe
	// recommendations.
	MaxWindow, MaxStripes int
	// ParallelFloor is the window floor (0 = min(8, GOMAXPROCS)): on
	// short-RTT paths the BDP term vanishes, but concurrent chunk
	// sends still win CPU parallelism, so the window never drops below
	// this (which itself never drops below the static default).
	ParallelFloor int
	// Now is the clock (nil = time.Now); injectable for tests.
	Now func() time.Time
	// Registry is the telemetry registry consulted for the pool
	// hit-rate signal and written with pardis_tune_* instruments
	// (nil = telemetry.Default).
	Registry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = DefaultAlpha
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = DefaultHysteresis
	}
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.IdleReset <= 0 {
		c.IdleReset = DefaultIdleReset
	}
	if c.MinChunkBytes <= 0 {
		c.MinChunkBytes = DefaultMinChunkBytes
	}
	if c.MaxChunkBytes <= 0 {
		c.MaxChunkBytes = DefaultMaxChunkBytes
	}
	if c.MaxChunkBytes < c.MinChunkBytes {
		c.MaxChunkBytes = c.MinChunkBytes
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = DefaultMaxWindow
	}
	if c.MaxStripes <= 0 {
		c.MaxStripes = DefaultMaxStripes
	}
	if c.ParallelFloor <= 0 {
		c.ParallelFloor = min(8, runtime.GOMAXPROCS(0))
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	return c
}

// staticWindow is the data plane's static default window/stripe width
// (mirrors spmd.resolveWindow(0) and orb.DefaultStripeWidth without
// importing either package).
func staticWindow() int { return max(min(4, runtime.GOMAXPROCS(0)), 1) }

// Recommendation is one path's derived data-plane configuration.
type Recommendation struct {
	XferChunkBytes int `json:"xfer_chunk_bytes"`
	XferWindow     int `json:"xfer_window"`
	Stripes        int `json:"stripes"`
}

// PathState is an observable snapshot of one path's model (see
// Tuner.Snapshot).
type PathState struct {
	Endpoint     string         `json:"endpoint"`
	BandwidthBps float64        `json:"bandwidth_bytes_per_sec"`
	RTTSeconds   float64        `json:"rtt_seconds"`
	Samples      uint64         `json:"samples"`
	Updates      uint64         `json:"updates"`
	Ready        bool           `json:"ready"`
	Rec          Recommendation `json:"recommendation"`
}

// path is one endpoint's model and cached recommendation.
type path struct {
	bw      float64 // EWMA bytes/sec from transfer samples
	rtt     float64 // EWMA seconds from probes
	samples uint64
	last    time.Time // last transfer sample (idle-reset reference)

	// recBW/recRTT/recLowPool are the model values the cached rec was
	// derived from — the hysteresis anchor.
	recBW, recRTT float64
	recLowPool    bool
	rec           Recommendation
	ready         bool
	updates       uint64

	// poolHit is an EWMA of the process pool hit rate observed while
	// this path was transferring; below 1/2 with the chunk at its cap,
	// the chunk backs off one power of two (pool misses mean the
	// encode path is allocating instead of pooling).
	poolHit float64

	chunkGauge, windowGauge, stripesGauge, bwGauge *telemetry.Gauge
	rttHist                                        *telemetry.Histogram
	updatesCtr                                     *telemetry.Counter
}

// Tuner estimates per-endpoint path characteristics and recommends
// data-plane knobs. Safe for concurrent use.
type Tuner struct {
	cfg Config

	mu    sync.Mutex
	paths map[string]*path

	// Pool-counter delta tracking (cumulative process-wide counters;
	// clamped on reset so a registry Reset or counter restart cannot
	// produce a negative delta).
	poolLastGets, poolLastMisses uint64
	poolLastCheck                time.Time
}

// New creates a Tuner. The zero Config takes the package defaults.
func New(cfg Config) *Tuner {
	return &Tuner{cfg: cfg.withDefaults(), paths: make(map[string]*path)}
}

func (t *Tuner) pathLocked(endpoint string) *path {
	p := t.paths[endpoint]
	if p == nil {
		reg := t.cfg.Registry
		p = &path{
			poolHit:      1,
			chunkGauge:   reg.Gauge("pardis_tune_chunk_bytes", "endpoint", endpoint),
			windowGauge:  reg.Gauge("pardis_tune_window", "endpoint", endpoint),
			stripesGauge: reg.Gauge("pardis_tune_stripes", "endpoint", endpoint),
			bwGauge:      reg.Gauge("pardis_tune_bandwidth_bytes_per_sec", "endpoint", endpoint),
			rttHist: reg.HistogramWithBuckets("pardis_tune_rtt_seconds",
				[]float64{50e-6, 200e-6, 1e-3, 5e-3, 20e-3, 80e-3, 320e-3},
				"endpoint", endpoint),
			updatesCtr: reg.Counter("pardis_tune_updates_total", "endpoint", endpoint),
		}
		t.paths[endpoint] = p
	}
	return p
}

// Probe records one round-trip-time observation for endpoint — the
// bind-time probe times the describe invocation, which bounds the
// path RTT from above cheaply (no extra wire traffic).
func (t *Tuner) Probe(endpoint string, rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.pathLocked(endpoint)
	s := rtt.Seconds()
	if p.rtt == 0 {
		p.rtt = s
	} else {
		p.rtt += t.cfg.Alpha * (s - p.rtt)
	}
	p.rttHist.Observe(s)
	t.deriveLocked(p)
}

// Record feeds one completed transfer (payload bytes over wall-clock
// seconds) into endpoint's bandwidth estimate. Zero-byte or
// zero-duration transfers are ignored.
//
// The wall clock of a windowed transfer includes a fixed ~1×RTT
// fill/drain tail (the first chunk's flight out, the last ack's
// flight back) on top of the bytes/rate streaming time. Dividing raw
// bytes by raw wall clock therefore underestimates the path rate —
// badly so for transfers not much larger than the BDP — which would
// freeze the adapt loop below wire speed. Record de-biases the sample
// by subtracting the probed RTT estimate (floored at a quarter of the
// wall clock so a stale, oversized RTT cannot push the sample toward
// infinity).
func (t *Tuner) Record(endpoint string, bytes uint64, elapsed time.Duration) {
	if bytes == 0 || elapsed <= 0 {
		return
	}
	now := t.cfg.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.pathLocked(endpoint)
	sample := float64(bytes) / sampleSeconds(elapsed.Seconds(), p.rtt)
	if p.bw == 0 || (!p.last.IsZero() && now.Sub(p.last) > t.cfg.IdleReset) {
		// First sample, or the path sat idle past the reset window:
		// seed rather than average — the old estimate describes a
		// network state that may no longer exist.
		p.bw = sample
	} else {
		p.bw += t.cfg.Alpha * (sample - p.bw)
	}
	p.last = now
	p.samples++
	p.bwGauge.Set(int64(p.bw))
	t.poolSampleLocked(p, now)
	t.deriveLocked(p)
}

// sampleSeconds applies Record's RTT de-bias (exposed for tests).
func sampleSeconds(elapsed, rtt float64) float64 {
	if rtt > 0 {
		return math.Max(elapsed-rtt, elapsed/4)
	}
	return elapsed
}

// poolSampleLocked folds the process-wide frame/encoder pool hit rate
// into the path model (rate-limited; deltas clamp on counter reset).
func (t *Tuner) poolSampleLocked(p *path, now time.Time) {
	if now.Sub(t.poolLastCheck) < poolSampleInterval {
		return
	}
	t.poolLastCheck = now
	gets := t.cfg.Registry.CounterValue("pardis_giop_pool_gets_total")
	misses := t.cfg.Registry.CounterValue("pardis_giop_pool_misses_total")
	dg := delta(gets, t.poolLastGets)
	dm := delta(misses, t.poolLastMisses)
	t.poolLastGets, t.poolLastMisses = gets, misses
	if dg == 0 {
		return
	}
	hit := 1 - float64(dm)/float64(dg)
	p.poolHit += t.cfg.Alpha * (hit - p.poolHit)
}

// delta is cur-prev clamped at zero: a cumulative counter that moved
// backwards was reset (registry Reset, process restart), and the only
// safe reading is "no progress since the last look".
func delta(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// deriveLocked re-derives the cached recommendation if the model has
// drifted past the hysteresis band (or none exists yet).
func (t *Tuner) deriveLocked(p *path) {
	if p.samples < uint64(t.cfg.MinSamples) || p.bw <= 0 {
		return
	}
	rtt := p.rtt
	if rtt <= 0 {
		rtt = DefaultRTT.Seconds()
	}
	lowPool := p.poolHit < 0.5
	if p.ready && !drifted(p.bw, p.recBW, t.cfg.Hysteresis) &&
		!drifted(rtt, p.recRTT, t.cfg.Hysteresis) && lowPool == p.recLowPool {
		return
	}
	rec := t.derive(p.bw, rtt, p.poolHit)
	p.recBW, p.recRTT, p.recLowPool = p.bw, rtt, lowPool
	if p.ready && rec == p.rec {
		// Model moved, knobs did not (power-of-two quantization absorbs
		// small drifts): re-anchor without counting an update.
		return
	}
	p.rec = rec
	p.ready = true
	p.updates++
	p.updatesCtr.Inc()
	p.chunkGauge.Set(int64(rec.XferChunkBytes))
	p.windowGauge.Set(int64(rec.XferWindow))
	p.stripesGauge.Set(int64(rec.Stripes))
}

func drifted(cur, anchor, frac float64) bool {
	if anchor <= 0 {
		return true
	}
	return math.Abs(cur-anchor)/anchor > frac
}

// derive maps (bandwidth, rtt, pool hit rate) to knobs. Pure — the
// sweep test calls it through the public API, and the convergence
// tests pin its fixed points.
func (t *Tuner) derive(bw, rtt, poolHit float64) Recommendation {
	bdp := bw * rtt

	// Chunk: big enough to amortize per-chunk fixed cost at this byte
	// rate AND to cover a useful fraction of the BDP, power-of-two for
	// stability, bounded by the static floor and the recycled-buffer cap.
	chunk := pow2Ceil(int(math.Max(bw*chunkAmortSeconds, bdp/4)))
	chunk = clamp(chunk, t.cfg.MinChunkBytes, t.cfg.MaxChunkBytes)
	if poolHit < 0.5 && chunk > t.cfg.MinChunkBytes {
		// Pool misses: the encode path is allocating, not
		// pooling — trade a step of chunk size back for pool hits.
		chunk /= 2
	}

	// Window: enough in-flight chunks to cover the BDP with headroom
	// (+1 so the pipe refills while an ack is in flight), floored at
	// the parallelism the static default would have given.
	bdpWindow := int(math.Ceil(WindowHeadroom*bdp/float64(chunk))) + 1
	window := clamp(max(bdpWindow, max(t.cfg.ParallelFloor, staticWindow())),
		1, t.cfg.MaxWindow)

	// Stripes: follow window depth so concurrent chunk sends do not
	// serialize on one connection, never below the static width.
	stripes := clamp(max(staticWindow(), min(window, t.cfg.MaxStripes)),
		1, t.cfg.MaxStripes)

	return Recommendation{XferChunkBytes: chunk, XferWindow: window, Stripes: stripes}
}

// Recommend returns endpoint's current recommendation. ok is false
// until the path has MinSamples transfer samples; callers fall back
// to their static configuration.
func (t *Tuner) Recommend(endpoint string) (Recommendation, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.paths[endpoint]
	if p == nil || !p.ready {
		return Recommendation{}, false
	}
	return p.rec, true
}

// Snapshot returns the state of every tracked path, sorted by
// endpoint.
func (t *Tuner) Snapshot() []PathState {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]PathState, 0, len(t.paths))
	for ep, p := range t.paths {
		out = append(out, PathState{
			Endpoint:     ep,
			BandwidthBps: p.bw,
			RTTSeconds:   p.rtt,
			Samples:      p.samples,
			Updates:      p.updates,
			Ready:        p.ready,
			Rec:          p.rec,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// pow2Ceil rounds n up to the next power of two (n <= 1 gives 1).
func pow2Ceil(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
