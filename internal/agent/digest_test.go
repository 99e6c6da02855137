package agent

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"pardis/internal/telemetry"
)

func TestCollectDigestAggregates(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("pardis_server_requests_total", "key", "a").Add(100)
	reg.Counter("pardis_server_requests_total", "key", "b").Add(20)
	reg.Counter("pardis_server_shed_total", "reason", "queue_full").Add(3)
	reg.Counter("pardis_server_panics_total").Add(1)
	reg.Counter("pardis_spmd_leases_expired_total").Add(2)
	ha := reg.Histogram("pardis_server_request_seconds", "key", "a")
	hb := reg.Histogram("pardis_server_request_seconds", "key", "b")
	ha.ObserveExemplar(0.0004, 0x11) // 500µs bucket
	ha.Observe(0.0004)
	hb.ObserveExemplar(2.0, 0x22) // 2.5s bucket: the tail exemplar
	hb.Observe(0.00003)

	d := collectDigest(reg)
	if d.Requests != 120 {
		t.Errorf("requests = %d, want 120", d.Requests)
	}
	if d.Errors != 4 {
		t.Errorf("errors = %d, want 4", d.Errors)
	}
	if d.SPMDLeasesExpired != 2 {
		t.Errorf("leases expired = %d, want 2", d.SPMDLeasesExpired)
	}
	n := len(telemetry.DefaultLatencyBuckets)
	if len(d.Buckets) != n+1 {
		t.Fatalf("buckets = %d entries, want %d", len(d.Buckets), n+1)
	}
	if total := countTotal(d.Buckets); total != 4 {
		t.Errorf("bucket total = %d, want 4 observations", total)
	}
	if d.LatencySum == 0 {
		t.Errorf("latency sum = 0, want > 0")
	}
	if len(d.Exemplars) != 2 {
		t.Fatalf("exemplars = %+v, want 2", d.Exemplars)
	}
	// Tail first: the 2.0s exemplar (higher bucket) leads.
	if d.Exemplars[0].TraceID != 0x22 || d.Exemplars[1].TraceID != 0x11 {
		t.Errorf("exemplar order = %+v, want slowest bucket first", d.Exemplars)
	}
}

func TestCollectDigestCapsExemplars(t *testing.T) {
	reg := telemetry.NewRegistry()
	// One exemplar-bearing bucket per label set: more than the cap.
	for i := 0; i < MaxDigestExemplars+3; i++ {
		h := reg.Histogram("pardis_server_request_seconds", "key", fmt.Sprintf("k%d", i))
		h.ObserveExemplar(float64(i+1)*0.001, uint64(i+1))
	}
	d := collectDigest(reg)
	if len(d.Exemplars) != MaxDigestExemplars {
		t.Fatalf("exemplars = %d, want cap %d", len(d.Exemplars), MaxDigestExemplars)
	}
	for i := 1; i < len(d.Exemplars); i++ {
		if d.Exemplars[i].Bucket > d.Exemplars[i-1].Bucket {
			t.Errorf("exemplars not tail-first: %+v", d.Exemplars)
		}
	}
}

func TestDigestWireRoundTrip(t *testing.T) {
	tbl, ac := newWireFixture(t)
	n := len(telemetry.DefaultLatencyBuckets)
	buckets := make([]uint64, n+1)
	buckets[4] = 50 // 500µs bucket
	buckets[15] = 2 // 2.5s bucket
	buckets[n] = 1  // +Inf
	when := time.UnixMicro(time.Now().UnixMicro())
	digest := MetricsDigest{
		Requests: 120, Errors: 7, LatencySum: 1.25,
		SPMDLeasesExpired: 3, SPMDShed: 1,
		Buckets: buckets,
		Exemplars: []TailExemplar{
			{Bucket: n, Value: 42.0, TraceID: 0xfeed, When: when},
			{Bucket: 15, Value: 2.0, TraceID: 0xbeef, When: when},
		},
	}
	err := ac.Register(context.Background(), Registration{
		Instance: "inst-d", TTL: time.Minute,
		Names:  []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:d")}},
		Digest: digest,
	})
	if err != nil {
		t.Fatal(err)
	}
	fleet := tbl.Fleet()
	if len(fleet.Rows) != 1 {
		t.Fatalf("fleet rows = %d, want 1", len(fleet.Rows))
	}
	row := fleet.Rows[0]
	if row.Requests != 120 || row.Errors != 7 {
		t.Errorf("row R/E = %d/%d, want 120/7", row.Requests, row.Errors)
	}
	if row.SPMDLeasesExpired != 3 || row.SPMDShed != 1 {
		t.Errorf("row spmd = %d/%d, want 3/1", row.SPMDLeasesExpired, row.SPMDShed)
	}
	if row.LatencySum != 1.25 {
		t.Errorf("latency sum = %v, want 1.25", row.LatencySum)
	}
	if len(row.Buckets) != n+1 || row.Buckets[4] != 50 || row.Buckets[n] != 1 {
		t.Errorf("buckets did not survive the wire: %v", row.Buckets)
	}
	if len(row.Exemplars) != 2 {
		t.Fatalf("exemplars = %+v, want 2", row.Exemplars)
	}
	if row.Exemplars[0].Trace != fmt.Sprintf("%016x", 0xfeed) || row.Exemplars[0].Value != 42.0 {
		t.Errorf("exemplar[0] = %+v", row.Exemplars[0])
	}
	if !row.Exemplars[1].When.Equal(when) {
		t.Errorf("exemplar capture time: got %v, want %v", row.Exemplars[1].When, when)
	}
}

func TestFleetREDFromDigestDeltas(t *testing.T) {
	tbl, clk := newFakeTable()
	n := len(telemetry.DefaultLatencyBuckets)
	mk := func(requests, errors uint64, bucket4 uint64) MetricsDigest {
		b := make([]uint64, n+1)
		b[4] = bucket4 // 500µs bucket
		return MetricsDigest{Requests: requests, Errors: errors, Buckets: b}
	}
	reg := func(d MetricsDigest) {
		err := tbl.Register(Registration{
			Instance: "i1", TTL: time.Minute,
			Names:  []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:a")}},
			Load:   LoadReport{AdmissionQueued: 2, SPMDLeases: 1},
			Digest: d,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	reg(mk(1000, 10, 100))
	first := tbl.Fleet().Rows[0]
	if first.Window != 0 || first.RatePerSec != 0 {
		t.Errorf("single digest must have no rate window: %+v", first)
	}
	// Quantiles fall back to the cumulative histogram meanwhile.
	if first.P50 <= 0.00025 || first.P50 > 0.0005 {
		t.Errorf("cumulative p50 = %v, want in (250µs, 500µs]", first.P50)
	}

	clk.advance(2 * time.Second)
	reg(mk(1200, 14, 180))
	row := tbl.Fleet().Rows[0]
	if row.Window != 2*time.Second {
		t.Fatalf("window = %v, want 2s", row.Window)
	}
	if row.RatePerSec != 100 {
		t.Errorf("rate = %v/s, want 100", row.RatePerSec)
	}
	if row.ErrorRatePerSec != 2 {
		t.Errorf("error rate = %v/s, want 2", row.ErrorRatePerSec)
	}
	if row.Requests != 1200 || row.Errors != 14 {
		t.Errorf("cumulative R/E = %d/%d", row.Requests, row.Errors)
	}
	if row.P99 <= 0.00025 || row.P99 > 0.0005 {
		t.Errorf("delta p99 = %v, want in the 500µs bucket", row.P99)
	}
	if row.QueueDepth != 2 || row.Leases != 1 {
		t.Errorf("load fields lost: %+v", row)
	}

	// An idle window (no new observations) keeps lifetime quantiles
	// instead of reporting p50=0.
	clk.advance(2 * time.Second)
	reg(mk(1200, 14, 180))
	idle := tbl.Fleet().Rows[0]
	if idle.RatePerSec != 0 {
		t.Errorf("idle rate = %v, want 0", idle.RatePerSec)
	}
	if idle.P50 == 0 {
		t.Errorf("idle window p50 = 0, want lifetime fallback")
	}

	// A replica restart (counters reset) must clamp deltas at zero,
	// not underflow.
	clk.advance(2 * time.Second)
	reg(mk(5, 0, 1))
	restart := tbl.Fleet().Rows[0]
	if restart.RatePerSec != 0 || restart.ErrorRatePerSec != 0 {
		t.Errorf("restart rates = %v/%v, want 0/0", restart.RatePerSec, restart.ErrorRatePerSec)
	}
}

func TestFleetMetricsExposition(t *testing.T) {
	tbl, clk := newFakeTable()
	n := len(telemetry.DefaultLatencyBuckets)
	buckets := make([]uint64, n+1)
	buckets[15] = 3 // 2.5s bucket
	load := LoadReport{AdmissionQueued: 4, SPMDLeases: 6, BreakersOpen: 1, Draining: true}
	err := tbl.Register(Registration{
		Instance: `inst"one`, TTL: time.Minute,
		Names: []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:a")}},
		Load:  load,
		Digest: MetricsDigest{
			Requests: 33, Errors: 2, LatencySum: 6.0, Buckets: buckets,
			Exemplars: []TailExemplar{{Bucket: 15, Value: 2.2, TraceID: 0xabc, When: time.Unix(1000, 0)}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(1500 * time.Millisecond) // the digest's age at the scrape
	var sb strings.Builder
	if err := tbl.WriteFleetMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pardis_agent_fleet_requests_total counter",
		"# TYPE pardis_agent_fleet_request_seconds histogram",
		`pardis_agent_fleet_requests_total{instance="inst\"one",name="svc/e"} 33`,
		`pardis_agent_fleet_errors_total{instance="inst\"one",name="svc/e"} 2`,
		`pardis_agent_fleet_queue_depth{instance="inst\"one",name="svc/e"} 4`,
		`pardis_agent_fleet_breakers_open{instance="inst\"one",name="svc/e"} 1`,
		`pardis_agent_fleet_draining{instance="inst\"one",name="svc/e"} 1`,
		`pardis_agent_fleet_leases{instance="inst\"one",name="svc/e"} 6`,
		fmt.Sprintf(`pardis_agent_fleet_score{instance="inst\"one",name="svc/e"} %g`, load.Score()),
		`pardis_agent_fleet_digest_age_seconds{instance="inst\"one",name="svc/e"} 1.500`,
		`le="2.5"`,
		`# {trace_id="0000000000000abc"} 2.2`,
		`pardis_agent_fleet_request_seconds_count{instance="inst\"one",name="svc/e"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet exposition missing %q; got:\n%s", want, out)
		}
	}
}

func TestFleetSummary(t *testing.T) {
	tbl, clk := newFakeTable()
	reg := func(inst string, queued int, draining bool) {
		err := tbl.Register(Registration{
			Instance: inst, TTL: time.Minute,
			Names: []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:"+inst)}},
			Load:  LoadReport{AdmissionQueued: queued, Draining: draining},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	reg("i-idle", 0, false)
	clk.advance(500 * time.Millisecond)
	reg("i-busy", 9, false)
	reg("i-drain", 0, true)

	s := tbl.Summary()
	if s.Names != 1 || s.Replicas != 3 {
		t.Fatalf("summary = %+v, want 1 name / 3 replicas", s)
	}
	if s.Draining != 1 {
		t.Errorf("draining = %d, want 1", s.Draining)
	}
	// i-drain carries the draining penalty, so it is the worst replica.
	if s.WorstInstance != "i-drain" {
		t.Errorf("worst = %q (score %v), want i-drain", s.WorstInstance, s.WorstScore)
	}
	// i-idle's digest is 500ms older than the rest.
	if s.MaxDigestAge != 500*time.Millisecond {
		t.Errorf("max digest age = %v, want 500ms", s.MaxDigestAge)
	}
}

func TestDigestQuantile(t *testing.T) {
	edges := telemetry.DefaultLatencyBuckets
	n := len(edges)
	empty := make([]uint64, n+1)
	if q := digestQuantile(edges, empty, 0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
	if q := digestQuantile(edges, nil, 0.5); q != 0 {
		t.Errorf("mismatched shape quantile = %v, want 0", q)
	}
	inf := make([]uint64, n+1)
	inf[n] = 10
	if q := digestQuantile(edges, inf, 0.99); q != edges[n-1] {
		t.Errorf("+Inf-only quantile = %v, want last edge %v", q, edges[n-1])
	}
	mid := make([]uint64, n+1)
	mid[6] = 100 // (1ms, 2.5ms]
	q := digestQuantile(edges, mid, 0.5)
	if q <= edges[5] || q > edges[6] {
		t.Errorf("mid quantile = %v, want in (%v, %v]", q, edges[5], edges[6])
	}
}

// TestFleetDigestAggregationRace hammers one table with concurrent
// digest-bearing heartbeats, sweeper ticks, fleet snapshots, fleet
// metric expositions and resolves — the -race companion to the wire
// tests. Run under `go test -race` (make verify) it proves digest
// aggregation in the table is data-race free.
func TestFleetDigestAggregationRace(t *testing.T) {
	tbl := NewTable()
	stop := tbl.StartSweeper(time.Millisecond)
	defer stop()

	n := len(telemetry.DefaultLatencyBuckets)
	const instances = 4
	var wg sync.WaitGroup
	done := make(chan struct{})

	for i := 0; i < instances; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst := fmt.Sprintf("inst-%d", i)
			var reqs uint64
			for j := 0; ; j++ {
				select {
				case <-done:
					return
				default:
				}
				reqs += uint64(j % 7)
				b := make([]uint64, n+1)
				b[j%(n+1)] = reqs
				_ = tbl.Register(Registration{
					Instance: inst,
					TTL:      20 * time.Millisecond, // short: sweeper races renewals
					Names:    []NameRef{{Name: "svc/e", Ref: convRef("e", "inproc:"+inst)}},
					Load:     LoadReport{AdmissionQueued: j % 5},
					Digest: MetricsDigest{
						Requests: reqs, Errors: reqs / 10, Buckets: b,
						Exemplars: []TailExemplar{{Bucket: j % (n + 1), Value: 0.001, TraceID: uint64(j + 1)}},
					},
				})
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = tbl.Fleet()
				_ = tbl.WriteFleetMetrics(io.Discard)
				_ = tbl.Summary()
				_, _, _ = tbl.Resolve("svc/e")
			}
		}()
	}

	time.Sleep(200 * time.Millisecond)
	close(done)
	wg.Wait()

	// The table must still be coherent: every instance either live or
	// cleanly swept.
	fleet := tbl.Fleet()
	if fleet.Replicas > instances {
		t.Fatalf("fleet grew phantom replicas: %d", fleet.Replicas)
	}
}
