package agent

import (
	"fmt"
	"io"
	"sort"
	"time"

	"pardis/internal/telemetry"
)

// FleetReplica is one live replica's row in the fleet snapshot: its
// identity and ranking plus the RED view (rate, error rate, latency
// quantiles) computed by differencing its two most recent heartbeat
// digests.
type FleetReplica struct {
	Name     string  `json:"name"`
	Instance string  `json:"instance"`
	Score    float64 `json:"score"`
	Draining bool    `json:"draining,omitempty"`
	// SinceSeen is how long ago the last heartbeat arrived; DigestAge
	// is the same measured against the digest (they differ only when a
	// registration carried no digest).
	SinceSeen time.Duration `json:"since_seen_ns"`
	DigestAge time.Duration `json:"digest_age_ns"`
	// Window is the heartbeat interval the rates below cover; zero
	// until two digests have arrived (quantiles then fall back to the
	// cumulative histogram).
	Window time.Duration `json:"window_ns,omitempty"`

	Requests        uint64  `json:"requests"` // cumulative since replica start
	Errors          uint64  `json:"errors"`
	RatePerSec      float64 `json:"rate_per_sec"`
	ErrorRatePerSec float64 `json:"error_rate_per_sec"`
	P50             float64 `json:"p50_seconds"`
	P95             float64 `json:"p95_seconds"`
	P99             float64 `json:"p99_seconds"`

	QueueDepth        int    `json:"queue_depth"`
	Running           int    `json:"running"`
	Inflight          int    `json:"inflight"`
	Leases            int    `json:"leases"`
	BreakersOpen      int    `json:"breakers_open"`
	SPMDLeasesExpired uint64 `json:"spmd_leases_expired,omitempty"`
	SPMDShed          uint64 `json:"spmd_shed,omitempty"`

	// Buckets is the replica's cumulative request-latency histogram
	// over telemetry.DefaultLatencyBuckets (trailing +Inf), as carried
	// by its latest digest; LatencySum the matching sum of seconds.
	Buckets    []uint64 `json:"buckets,omitempty"`
	LatencySum float64  `json:"latency_sum_seconds,omitempty"`

	Exemplars []FleetExemplar `json:"exemplars,omitempty"`
}

// FleetExemplar is a tail-latency exemplar as served in the fleet
// snapshot, its trace id in the hex form /debug/traces accepts.
type FleetExemplar struct {
	Bucket  int       `json:"bucket"`
	Value   float64   `json:"value_seconds"`
	Trace   string    `json:"trace_id"`
	TraceID uint64    `json:"-"`
	When    time.Time `json:"when,omitempty"`
}

// FleetSnapshot is the agent's aggregate view of every live replica.
type FleetSnapshot struct {
	Names    int            `json:"names"`
	Replicas int            `json:"replicas"`
	Rows     []FleetReplica `json:"rows"`
}

// FleetSummary condenses the snapshot for /healthz: enough to tell at
// a glance whether the fleet is whole and its digests fresh.
type FleetSummary struct {
	Names         int           `json:"names"`
	Replicas      int           `json:"replicas"`
	Draining      int           `json:"draining"`
	WorstScore    float64       `json:"worst_score"`
	WorstInstance string        `json:"worst_instance,omitempty"`
	MaxDigestAge  time.Duration `json:"max_digest_age_ns"`
	// Expired is the cumulative count of replicas that aged out of
	// this table.
	Expired uint64 `json:"replicas_expired_total"`
}

// Fleet returns the live fleet snapshot, rows sorted by (name,
// instance).
func (t *Table) Fleet() FleetSnapshot {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := FleetSnapshot{Names: len(t.names)}
	for name, reps := range t.names {
		for _, rep := range reps {
			if !now.Before(rep.deadline) {
				continue // lapsed; the sweeper just hasn't run yet
			}
			snap.Replicas++
			snap.Rows = append(snap.Rows, fleetRow(name, rep, now))
		}
	}
	sort.Slice(snap.Rows, func(i, j int) bool {
		if snap.Rows[i].Name != snap.Rows[j].Name {
			return snap.Rows[i].Name < snap.Rows[j].Name
		}
		return snap.Rows[i].Instance < snap.Rows[j].Instance
	})
	return snap
}

// fleetRow builds one replica's RED row. Caller holds t.mu.
func fleetRow(name string, rep *replica, now time.Time) FleetReplica {
	row := FleetReplica{
		Name:              name,
		Instance:          rep.instance,
		Score:             rep.load.Score(),
		Draining:          rep.load.Draining,
		SinceSeen:         now.Sub(rep.lastSeen),
		DigestAge:         now.Sub(rep.digestAt),
		Requests:          rep.digest.Requests,
		Errors:            rep.digest.Errors,
		QueueDepth:        rep.load.AdmissionQueued,
		Running:           rep.load.AdmissionRunning,
		Inflight:          rep.load.Inflight,
		Leases:            rep.load.SPMDLeases,
		BreakersOpen:      rep.load.BreakersOpen,
		SPMDLeasesExpired: rep.digest.SPMDLeasesExpired,
		SPMDShed:          rep.digest.SPMDShed,
		Buckets:           rep.digest.Buckets,
		LatencySum:        rep.digest.LatencySum,
	}
	counts := rep.digest.Buckets
	if window := rep.digestAt.Sub(rep.prevAt); !rep.prevAt.IsZero() && window > 0 {
		row.Window = window
		row.RatePerSec = float64(sub(rep.digest.Requests, rep.prev.Requests)) / window.Seconds()
		row.ErrorRatePerSec = float64(sub(rep.digest.Errors, rep.prev.Errors)) / window.Seconds()
		// Quantiles over the last window when it saw traffic; an idle
		// window falls back to the lifetime histogram.
		if d := bucketDelta(rep.digest.Buckets, rep.prev.Buckets); countTotal(d) > 0 {
			counts = d
		}
	}
	edges := telemetry.DefaultLatencyBuckets
	row.P50 = digestQuantile(edges, counts, 0.5)
	row.P95 = digestQuantile(edges, counts, 0.95)
	row.P99 = digestQuantile(edges, counts, 0.99)
	for _, ex := range rep.digest.Exemplars {
		row.Exemplars = append(row.Exemplars, FleetExemplar{
			Bucket:  ex.Bucket,
			Value:   ex.Value,
			Trace:   fmt.Sprintf("%016x", ex.TraceID),
			TraceID: ex.TraceID,
			When:    ex.When,
		})
	}
	return row
}

func countTotal(counts []uint64) uint64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	return n
}

// Summary condenses the fleet for the agent's /healthz body.
func (t *Table) Summary() FleetSummary {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := FleetSummary{Names: len(t.names), Expired: t.expired}
	for _, reps := range t.names {
		for _, rep := range reps {
			if !now.Before(rep.deadline) {
				continue
			}
			s.Replicas++
			if rep.load.Draining {
				s.Draining++
			}
			if score := rep.load.Score(); score > s.WorstScore || s.WorstInstance == "" {
				s.WorstScore, s.WorstInstance = score, rep.instance
			}
			if age := now.Sub(rep.digestAt); age > s.MaxDigestAge {
				s.MaxDigestAge = age
			}
		}
	}
	return s
}

// WriteFleetMetrics renders the fleet as Prometheus text: every
// replica's digest re-exposed under pardis_agent_fleet_* names with
// {name, instance} labels (exemplars preserved on their buckets), so
// one scrape of the agent covers the whole fleet.
func (t *Table) WriteFleetMetrics(w io.Writer) error {
	snap := t.Fleet()
	if len(snap.Rows) == 0 {
		return nil
	}
	for _, s := range [][2]string{
		{"pardis_agent_fleet_requests_total", "counter"},
		{"pardis_agent_fleet_errors_total", "counter"},
		{"pardis_agent_fleet_queue_depth", "gauge"},
		{"pardis_agent_fleet_leases", "gauge"},
		{"pardis_agent_fleet_breakers_open", "gauge"},
		{"pardis_agent_fleet_draining", "gauge"},
		{"pardis_agent_fleet_score", "gauge"},
		{"pardis_agent_fleet_digest_age_seconds", "gauge"},
		{"pardis_agent_fleet_request_seconds", "histogram"},
	} {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s[0], s[1]); err != nil {
			return err
		}
	}
	edges := telemetry.DefaultLatencyBuckets
	for _, row := range snap.Rows {
		lk := func(metric string, extra ...string) string {
			return telemetry.TextKey(metric,
				append([]string{"name", row.Name, "instance", row.Instance}, extra...)...)
		}
		draining := 0
		if row.Draining {
			draining = 1
		}
		if _, err := fmt.Fprintf(w,
			"%s %d\n%s %d\n%s %d\n%s %d\n%s %d\n%s %d\n%s %g\n%s %.3f\n",
			lk("pardis_agent_fleet_requests_total"), row.Requests,
			lk("pardis_agent_fleet_errors_total"), row.Errors,
			lk("pardis_agent_fleet_queue_depth"), row.QueueDepth,
			lk("pardis_agent_fleet_leases"), row.Leases,
			lk("pardis_agent_fleet_breakers_open"), row.BreakersOpen,
			lk("pardis_agent_fleet_draining"), draining,
			lk("pardis_agent_fleet_score"), row.Score,
			lk("pardis_agent_fleet_digest_age_seconds"), row.DigestAge.Seconds(),
		); err != nil {
			return err
		}
		if err := writeFleetHistogram(w, edges, row); err != nil {
			return err
		}
	}
	return nil
}

// writeFleetHistogram re-exposes one replica's cumulative digest
// histogram under the fleet name, attaching its tail exemplars to the
// buckets they belong to. A replica that has served nothing (empty
// digest) gets no histogram series.
func writeFleetHistogram(w io.Writer, edges []float64, row FleetReplica) error {
	if len(row.Buckets) != len(edges)+1 {
		return nil
	}
	s := telemetry.HistogramSnapshot{
		Edges:  edges,
		Counts: row.Buckets[:len(edges)],
		Inf:    row.Buckets[len(edges)],
		Count:  countTotal(row.Buckets),
		Sum:    row.LatencySum,
		// The digest carries no min/max; neutralize the snapshot's
		// [Min, Max] quantile clamp with the edge range.
		Min: 0,
		Max: edges[len(edges)-1],
	}
	for _, ex := range row.Exemplars {
		s.Exemplars = append(s.Exemplars, telemetry.BucketExemplar{
			Bucket: ex.Bucket,
			Exemplar: telemetry.Exemplar{
				Value: ex.Value, TraceID: ex.TraceID, When: ex.When,
			},
		})
	}
	sort.Slice(s.Exemplars, func(i, j int) bool { return s.Exemplars[i].Bucket < s.Exemplars[j].Bucket })
	return telemetry.WriteHistogramSnapshotText(w, "pardis_agent_fleet_request_seconds",
		[]string{"name", row.Name, "instance", row.Instance}, s)
}
