// Package telemetry is the PARDIS observability substrate: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket latency histograms with quantile snapshots), leveled
// structured logging that is off by default, and cross-process request
// tracing whose context rides the PIOP wire.
//
// The package sits below every other internal package (it imports only
// the standard library), so transport, giop, orb, spmd and naming can
// all record into the same process-wide Default registry, and a
// process can expose everything over HTTP with Handler.
//
// Metric names are stable and form the catalogue documented in
// DESIGN.md ("Observability"); all carry the "pardis_" prefix.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (in-flight requests, breaker
// state, queue depth).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc and Dec move the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBuckets are the fixed histogram bucket upper bounds
// (seconds, inclusive) used for every latency histogram in the ORB:
// 25µs up to 10s, roughly 1-2.5-5 per decade. An observation larger
// than the last edge lands in the implicit +Inf bucket.
var DefaultLatencyBuckets = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic buckets. Quantiles
// are estimated by linear interpolation inside the bucket containing
// the target rank, clamped to the observed [min, max] — so a
// single-sample histogram reports that sample exactly at every
// quantile.
type Histogram struct {
	edges  []float64 // inclusive upper bounds, ascending
	counts []atomic.Uint64
	inf    atomic.Uint64 // overflow (+Inf) bucket

	mu    sync.Mutex // guards sum/min/max (floats)
	sum   float64
	min   float64
	max   float64
	count uint64

	exMu sync.Mutex // guards ex; taken only on the sampled-trace path
	ex   []Exemplar // lazily sized len(edges)+1; [len(edges)] is +Inf
}

// Exemplar ties one concrete observation to the trace that produced
// it, so a histogram bucket can point at an explorable trace in
// /debug/traces. A zero TraceID means "no exemplar recorded".
type Exemplar struct {
	Value   float64   `json:"value"`
	TraceID uint64    `json:"-"`
	Trace   string    `json:"trace_id"` // hex form of TraceID, filled at snapshot
	When    time.Time `json:"when"`
}

// exemplarsEnabled is the process-wide exemplar switch (default on).
// Capture is already gated on a sampled trace being present, so the
// switch exists for A/B overhead measurement, not normal operation.
var exemplarsEnabled atomic.Bool

func init() { exemplarsEnabled.Store(true) }

// SetExemplars toggles exemplar capture process-wide and returns the
// previous setting.
func SetExemplars(on bool) bool { return exemplarsEnabled.Swap(on) }

func newHistogram(edges []float64) *Histogram {
	if len(edges) == 0 {
		edges = DefaultLatencyBuckets
	}
	cp := make([]float64, len(edges))
	copy(cp, edges)
	sort.Float64s(cp)
	return &Histogram{edges: cp, counts: make([]atomic.Uint64, len(cp))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.edges, v) // first edge >= v: inclusive upper bound
	if i < len(h.edges) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records one sample and, when the observation comes
// from a sampled trace (traceID != 0) and exemplars are enabled,
// remembers it as the exemplar for the bucket it lands in. The
// exemplar path costs one mutex acquisition, but only sampled-trace
// observations pay it.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	h.Observe(v)
	if traceID == 0 || !exemplarsEnabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.edges, v)
	h.exMu.Lock()
	if h.ex == nil {
		h.ex = make([]Exemplar, len(h.edges)+1)
	}
	h.ex[i] = Exemplar{Value: v, TraceID: traceID, When: time.Now()}
	h.exMu.Unlock()
}

// ObserveDurationExemplar records a duration sample with an exemplar.
func (h *Histogram) ObserveDurationExemplar(d time.Duration, traceID uint64) {
	h.ObserveExemplar(d.Seconds(), traceID)
}

// HistogramSnapshot is a consistent copy of a histogram's state.
type HistogramSnapshot struct {
	// Edges are the inclusive bucket upper bounds; Counts[i] samples
	// fell into (Edges[i-1], Edges[i]]. Inf counts samples beyond the
	// last edge.
	Edges  []float64
	Counts []uint64
	Inf    uint64
	Count  uint64
	Sum    float64
	Min    float64
	Max    float64
	// Exemplars holds the per-bucket trace exemplars that were
	// captured, sparse and ordered by bucket index.
	Exemplars []BucketExemplar `json:",omitempty"`
}

// BucketExemplar is an exemplar tagged with the bucket it belongs to;
// Bucket == len(Edges) denotes the +Inf bucket.
type BucketExemplar struct {
	Bucket int `json:"bucket"`
	Exemplar
}

// Snapshot captures the histogram. Buckets are read without a global
// lock, so a snapshot taken under concurrent Observe calls may be off
// by the in-flight samples — fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Edges:  h.edges,
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Inf = h.inf.Load()
	h.mu.Lock()
	s.Count, s.Sum, s.Min, s.Max = h.count, h.sum, h.min, h.max
	h.mu.Unlock()
	h.exMu.Lock()
	for i, ex := range h.ex {
		if ex.TraceID == 0 {
			continue
		}
		ex.Trace = fmt.Sprintf("%016x", ex.TraceID)
		s.Exemplars = append(s.Exemplars, BucketExemplar{Bucket: i, Exemplar: ex})
	}
	h.exMu.Unlock()
	return s
}

// Quantile estimates the q-quantile (q in [0, 1]) of the snapshot.
// It returns 0 for an empty histogram. The estimate interpolates
// linearly within the winning bucket and is clamped to the observed
// [Min, Max].
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := uint64(0)
	for _, c := range s.Counts {
		total += c
	}
	total += s.Inf
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	cum := uint64(0)
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = s.Edges[i-1]
			}
			hi := s.Edges[i]
			// Position of the target rank inside this bucket.
			frac := (rank - float64(cum)) / float64(c)
			return s.clamp(lo + (hi-lo)*frac)
		}
		cum += c
	}
	// Target rank lies in the +Inf bucket: the best point estimate is
	// the observed maximum.
	return s.clamp(s.Max)
}

func (s HistogramSnapshot) clamp(v float64) float64 {
	if s.Count == 0 {
		return v
	}
	if v < s.Min {
		return s.Min
	}
	if v > s.Max {
		return s.Max
	}
	return v
}

// Mean returns the arithmetic mean of the snapshot, 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// metricKind discriminates the registry's value types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one named, labeled instrument in a registry.
type metric struct {
	name   string // bare metric name (no labels)
	labels []string
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics. Lookups intern on the full
// name+labels key, so repeated Counter/Gauge/Histogram calls with the
// same arguments return the same instrument. The zero Registry is not
// usable; call NewRegistry (or use Default).
type Registry struct {
	mu sync.RWMutex
	m  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]*metric)}
}

// Default is the process-wide registry every PARDIS layer records
// into.
var Default = NewRegistry()

// key builds the interning key "name{k="v",...}" from alternating
// key/value label pairs. Label order is normalized by sorting pairs.
func key(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	n := len(labels) / 2 * 2 // ignore a dangling key with no value
	pairs := make([]string, 0, n/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+`="`+labels[i+1]+`"`)
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

func (r *Registry) lookup(name string, labels []string, kind metricKind) *metric {
	k := key(name, labels)
	r.mu.RLock()
	m := r.m[k]
	r.mu.RUnlock()
	if m != nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.m[k]; m != nil {
		return m
	}
	m = &metric{name: name, labels: append([]string(nil), labels...), kind: kind}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		m.h = newHistogram(nil)
	}
	r.m[k] = m
	return m
}

// Counter returns (creating if needed) the counter with the given
// name and alternating key/value label pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup(name, labels, kindCounter).c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.lookup(name, labels, kindGauge).g
}

// Histogram returns (creating if needed) the named latency histogram
// with the default bucket edges.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.lookup(name, labels, kindHistogram).h
}

// HistogramWithBuckets returns the named histogram, creating it with
// the given inclusive upper bucket edges. Edges are fixed at creation;
// a later call with different edges returns the existing histogram.
func (r *Registry) HistogramWithBuckets(name string, edges []float64, labels ...string) *Histogram {
	k := key(name, labels)
	r.mu.RLock()
	m := r.m[k]
	r.mu.RUnlock()
	if m != nil {
		return m.h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.m[k]; m != nil {
		return m.h
	}
	m = &metric{name: name, labels: append([]string(nil), labels...), kind: kindHistogram, h: newHistogram(edges)}
	r.m[k] = m
	return m.h
}

// sortedKeys returns the registry's interning keys in stable order.
func (r *Registry) sortedKeys() []string {
	keys := make([]string, 0, len(r.m))
	for k := range r.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// EscapeLabelValue escapes a Prometheus text-format label value:
// backslash, double quote and newline.
func EscapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// TextKey renders the exposition key "name{k="v",...}" with label
// values escaped and pairs sorted — the form WriteText emits. (The
// registry's interning key keeps values raw; escaping is a render-time
// concern.)
func TextKey(name string, labels ...string) string {
	return textKey(name, labels)
}

func textKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+`="`+EscapeLabelValue(labels[i+1])+`"`)
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

func kindName(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// WriteText renders the registry in a Prometheus-style text format:
// a "# TYPE" line per metric name, counters and gauges as
// "name{labels} value", histograms as cumulative "_bucket{le=...}"
// series (with OpenMetrics-style exemplar suffixes on buckets that
// have one) plus _sum, _count and estimated quantile gauges. Label
// values are escaped per the text-format rules.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	typed := make(map[string]bool)
	for _, k := range r.sortedKeys() {
		m := r.m[k]
		if !typed[m.name] {
			typed[m.name] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, kindName(m.kind)); err != nil {
				return err
			}
		}
		switch m.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "%s %d\n", textKey(m.name, m.labels), m.c.Value()); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "%s %d\n", textKey(m.name, m.labels), m.g.Value()); err != nil {
				return err
			}
		case kindHistogram:
			if err := writeHistogramText(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogramText renders one histogram. Caller holds r.mu.
func writeHistogramText(w io.Writer, m *metric) error {
	return WriteHistogramSnapshotText(w, m.name, m.labels, m.h.Snapshot())
}

// WriteHistogramSnapshotText renders a histogram snapshot in the same
// exposition format WriteText uses — cumulative _bucket series with
// exemplar suffixes, _sum, _count and estimated quantile gauges —
// under the given name and labels. It lets a component re-expose
// histogram data it did not record itself (the agent's fleet plane
// re-exposing heartbeat digests).
func WriteHistogramSnapshotText(w io.Writer, name string, labels []string, s HistogramSnapshot) error {
	m := &metric{name: name, labels: labels}
	ex := make(map[int]Exemplar, len(s.Exemplars))
	for _, be := range s.Exemplars {
		ex[be.Bucket] = be.Exemplar
	}
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		if c == 0 {
			continue // keep the exposition compact: only occupied edges
		}
		if _, err := fmt.Fprintf(w, "%s %d%s\n",
			textKey(m.name+"_bucket", append(labelsCopy(m.labels), "le", formatFloat(s.Edges[i]))),
			cum, exemplarSuffix(ex[i])); err != nil {
			return err
		}
	}
	cum += s.Inf
	if _, err := fmt.Fprintf(w, "%s %d%s\n",
		textKey(m.name+"_bucket", append(labelsCopy(m.labels), "le", "+Inf")),
		cum, exemplarSuffix(ex[len(s.Edges)])); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", textKey(m.name+"_sum", m.labels), formatFloat(s.Sum)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", textKey(m.name+"_count", m.labels), s.Count); err != nil {
		return err
	}
	for _, q := range [...]float64{0.5, 0.95, 0.99} {
		if _, err := fmt.Fprintf(w, "%s %s\n",
			textKey(m.name, append(labelsCopy(m.labels), "quantile", formatFloat(q))),
			formatFloat(s.Quantile(q))); err != nil {
			return err
		}
	}
	return nil
}

// exemplarSuffix renders the OpenMetrics exemplar tail for a bucket
// line ("" when the bucket has no exemplar): # {trace_id="…"} value ts.
func exemplarSuffix(ex Exemplar) string {
	if ex.TraceID == 0 {
		return ""
	}
	return fmt.Sprintf(` # {trace_id="%016x"} %s %d`, ex.TraceID, formatFloat(ex.Value), ex.When.Unix())
}

func labelsCopy(l []string) []string { return append([]string(nil), l...) }

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}

// Snapshot returns every metric's current value keyed by its full
// "name{labels}" string: counters and gauges as numbers, histograms as
// HistogramSnapshot. Used by /debug/vars.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.m))
	for k, m := range r.m {
		switch m.kind {
		case kindCounter:
			out[k] = m.c.Value()
		case kindGauge:
			out[k] = m.g.Value()
		case kindHistogram:
			out[k] = m.h.Snapshot()
		}
	}
	return out
}

// CounterValue returns the summed value of every counter whose bare
// name matches (across all label sets), for tests and summaries.
func (r *Registry) CounterValue(name string) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total uint64
	for _, m := range r.m {
		if m.kind == kindCounter && m.name == name {
			total += m.c.Value()
		}
	}
	return total
}

// GaugeValue returns the summed value of every gauge whose bare name
// matches (across all label sets), for tests and status summaries.
func (r *Registry) GaugeValue(name string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total int64
	for _, m := range r.m {
		if m.kind == kindGauge && m.name == name {
			total += m.g.Value()
		}
	}
	return total
}

// HistogramsByName returns the label sets and snapshots of every
// histogram with the given bare name.
func (r *Registry) HistogramsByName(name string) map[string]HistogramSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]HistogramSnapshot)
	for k, m := range r.m {
		if m.kind == kindHistogram && m.name == name {
			out[k] = m.h.Snapshot()
		}
	}
	return out
}

// Reset drops every metric — test isolation only.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.m = make(map[string]*metric)
	r.mu.Unlock()
}
