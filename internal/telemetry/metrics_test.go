package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pardis_test_total", "op", "solve")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Interning: same name+labels → same instrument, label order
	// normalized.
	if r.Counter("pardis_test_total", "op", "solve") != c {
		t.Fatal("counter not interned")
	}
	g := r.Gauge("pardis_test_inflight")
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge = %d, want -7", got)
	}
}

func TestCounterValueSumsLabelSets(t *testing.T) {
	r := NewRegistry()
	r.Counter("pardis_x_total", "ep", "a").Add(2)
	r.Counter("pardis_x_total", "ep", "b").Add(3)
	r.Counter("pardis_other_total").Add(100)
	if got := r.CounterValue("pardis_x_total"); got != 5 {
		t.Fatalf("CounterValue = %d, want 5", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pardis_empty_seconds")
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 {
		t.Fatalf("empty snapshot count=%d sum=%v", s.Count, s.Sum)
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
}

func TestHistogramSingleSample(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pardis_single_seconds")
	h.Observe(0.003)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d, want 1", s.Count)
	}
	// Clamping to [min, max] makes every quantile of a single-sample
	// histogram exactly that sample.
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := s.Quantile(q); got != 0.003 {
			t.Fatalf("Quantile(%v) = %v, want 0.003", q, got)
		}
	}
	if s.Sum != 0.003 {
		t.Fatalf("Sum = %v, want 0.003", s.Sum)
	}
}

func TestHistogramExactBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramWithBuckets("pardis_edges", []float64{1, 2, 4})
	// Upper bounds are inclusive: a sample exactly on an edge falls in
	// that edge's bucket, as in the Prometheus "le" convention.
	for _, v := range []float64{1, 2, 4} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{1, 1, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d (le=%v) = %d, want %d", i, s.Edges[i], c, want[i])
		}
	}
	if s.Inf != 0 {
		t.Fatalf("overflow = %d, want 0", s.Inf)
	}
	// One past the last edge lands in +Inf.
	h.Observe(4.0001)
	if s = h.Snapshot(); s.Inf != 1 {
		t.Fatalf("overflow = %d, want 1", s.Inf)
	}
	// Quantiles stay clamped to the observed max even for ranks that
	// land in the +Inf bucket.
	if got := s.Quantile(1); got != 4.0001 {
		t.Fatalf("Quantile(1) = %v, want observed max 4.0001", got)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramWithBuckets("pardis_interp", []float64{10, 20, 30})
	// 10 samples in (10, 20]: the median rank (5 of 10) sits halfway
	// into the bucket → 10 + (20-10)*0.5 = 15.
	for i := 0; i < 10; i++ {
		h.Observe(11 + float64(i))
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); math.Abs(got-15) > 1e-9 {
		t.Fatalf("Quantile(0.5) = %v, want 15", got)
	}
	// p99 rank 9.9 → 10 + 10*0.99 = 19.9.
	if got := s.Quantile(0.99); math.Abs(got-19.9) > 1e-9 {
		t.Fatalf("Quantile(0.99) = %v, want 19.9", got)
	}
	// Out-of-range q is clamped.
	if got := s.Quantile(2); got != s.Quantile(1) {
		t.Fatalf("Quantile(2) = %v, want %v", got, s.Quantile(1))
	}
}

func TestHistogramQuantileAcrossBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramWithBuckets("pardis_multi", []float64{1, 2, 3, 4})
	// 1 sample ≤1, 97 in (1,2], 1 in (2,3], 1 in (3,4].
	h.Observe(0.5)
	for i := 0; i < 97; i++ {
		h.Observe(1.5)
	}
	h.Observe(2.5)
	h.Observe(3.5)
	s := h.Snapshot()
	if got := s.Quantile(0.5); got < 1 || got > 2 {
		t.Fatalf("p50 = %v, want within (1, 2]", got)
	}
	// Rank 99 of 100 is the 98th cumulative → falls in (2,3].
	if got := s.Quantile(0.99); got < 2 || got > 3 {
		t.Fatalf("p99 = %v, want within (2, 3]", got)
	}
	if got := s.Quantile(1); got != 3.5 {
		t.Fatalf("p100 = %v, want max 3.5", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pardis_conc_seconds")
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Millisecond.Seconds())
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("pardis_reqs_total", "op", "solve").Add(3)
	r.Gauge("pardis_inflight").Set(2)
	r.HistogramWithBuckets("pardis_lat_seconds", []float64{0.001, 0.01}).Observe(0.0005)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`pardis_reqs_total{op="solve"} 3`,
		"pardis_inflight 2",
		`pardis_lat_seconds_bucket{le="0.001"} 1`,
		`pardis_lat_seconds_bucket{le="+Inf"} 1`,
		"pardis_lat_seconds_count 1",
		`pardis_lat_seconds{quantile="0.5"} 0.0005`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotKinds(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Gauge("g").Set(5)
	r.Histogram("h").Observe(1)
	snap := r.Snapshot()
	if got, ok := snap["c"].(uint64); !ok || got != 1 {
		t.Fatalf("snapshot c = %#v", snap["c"])
	}
	if got, ok := snap["g"].(int64); !ok || got != 5 {
		t.Fatalf("snapshot g = %#v", snap["g"])
	}
	if hs, ok := snap["h"].(HistogramSnapshot); !ok || hs.Count != 1 {
		t.Fatalf("snapshot h = %#v", snap["h"])
	}
}
