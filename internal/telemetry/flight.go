package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecord is one completed invocation as kept by the flight
// recorder: enough context to explain why it was slow (or failed)
// without re-running it — which attempt path it took, how long it sat
// in the admission queue, and how much deadline budget was left when
// the handler finally dispatched.
type FlightRecord struct {
	Side     string        `json:"side"` // "client" or "server"
	Op       string        `json:"op"`
	Key      string        `json:"key,omitempty"`      // object key
	Endpoint string        `json:"endpoint,omitempty"` // last endpoint tried (client)
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	Error    string        `json:"error,omitempty"`
	TraceID  uint64        `json:"-"`
	Trace    string        `json:"trace_id,omitempty"` // hex; resolve at /debug/traces?id=
	// Client-side attempt accounting.
	Attempts   int `json:"attempts,omitempty"`
	Retries    int `json:"retries,omitempty"`
	Failovers  int `json:"failovers,omitempty"`
	ReResolves int `json:"reresolves,omitempty"`
	// Server-side dispatch accounting.
	QueueWait time.Duration `json:"queue_wait,omitempty"` // time inside the admission gate
	// DeadlineRemaining is the budget left when the request dispatched
	// (client: at send; server: at handler start). Zero means the
	// invocation carried no deadline.
	DeadlineRemaining time.Duration `json:"deadline_remaining,omitempty"`
}

// flightShard keeps the records for one (side, op) pair: the K slowest
// invocations plus a ring of the most recent errored ones. The floor
// atomic caches the slowest-set admission threshold so the common case
// (a fast, successful invocation) costs two atomic loads and no lock.
type flightShard struct {
	floor atomic.Int64 // min duration (ns) to enter the slow set once full

	mu      sync.Mutex
	slow    []FlightRecord // sorted by Duration descending, len <= k
	errs    []FlightRecord // ring, errNext points at the oldest slot
	errNext int
}

// FlightRecorder is a bounded in-memory recorder of the K slowest and
// all (up to errCap most recent) errored invocations per (side, op).
// It is safe for concurrent use and cheap when the observed invocation
// is neither slow nor errored.
type FlightRecorder struct {
	enabled atomic.Bool
	k       int
	errCap  int
	// Two-level map — side -> *sync.Map of op -> *flightShard — so the
	// per-record lookup is two lock-free reads with no key-string
	// concatenation (Record sits on every invocation's exit path).
	shards sync.Map
}

const (
	// DefaultFlightSlowK is how many slowest records each (side, op)
	// shard retains.
	DefaultFlightSlowK = 8
	// DefaultFlightErrCap bounds the per-shard errored-invocation ring.
	DefaultFlightErrCap = 32
)

// NewFlightRecorder returns an enabled recorder keeping the k slowest
// and errCap most recent errored records per (side, op).
func NewFlightRecorder(k, errCap int) *FlightRecorder {
	if k <= 0 {
		k = DefaultFlightSlowK
	}
	if errCap <= 0 {
		errCap = DefaultFlightErrCap
	}
	f := &FlightRecorder{k: k, errCap: errCap}
	f.enabled.Store(true)
	return f
}

// DefaultFlight is the process-wide flight recorder orb.Client and
// orb.Server record into; Handler serves it at /debug/slow.
var DefaultFlight = NewFlightRecorder(DefaultFlightSlowK, DefaultFlightErrCap)

// SetEnabled toggles recording and returns the previous setting.
// Disabling does not drop already-captured records.
func (f *FlightRecorder) SetEnabled(on bool) bool { return f.enabled.Swap(on) }

// Configure resets the recorder with new per-shard bounds, dropping
// all captured records. Call before traffic starts.
func (f *FlightRecorder) Configure(k, errCap int) {
	if k > 0 {
		f.k = k
	}
	if errCap > 0 {
		f.errCap = errCap
	}
	f.Reset()
}

// Reset drops every captured record.
func (f *FlightRecorder) Reset() {
	f.shards.Range(func(k, _ any) bool {
		f.shards.Delete(k)
		return true
	})
}

func (f *FlightRecorder) shard(side, op string) *flightShard {
	var ops *sync.Map
	if v, ok := f.shards.Load(side); ok {
		ops = v.(*sync.Map)
	} else {
		v, _ := f.shards.LoadOrStore(side, &sync.Map{})
		ops = v.(*sync.Map)
	}
	if s, ok := ops.Load(op); ok {
		return s.(*flightShard)
	}
	s, _ := ops.LoadOrStore(op, &flightShard{})
	return s.(*flightShard)
}

// Record offers one completed invocation to the recorder. Fast path:
// when the record is error-free and faster than the shard's current
// K-slowest floor, it is dropped without locking.
func (f *FlightRecorder) Record(r FlightRecord) {
	if !f.enabled.Load() {
		return
	}
	sh := f.shard(r.Side, r.Op)
	isErr := r.Error != ""
	if !isErr && int64(r.Duration) <= sh.floor.Load() {
		return
	}
	sh.mu.Lock()
	if isErr {
		if len(sh.errs) < f.errCap {
			sh.errs = append(sh.errs, r)
		} else {
			sh.errs[sh.errNext] = r
			sh.errNext = (sh.errNext + 1) % f.errCap
		}
		Default.Counter("pardis_flight_records_total", "kind", "error").Inc()
	}
	if int64(r.Duration) > sh.floor.Load() || len(sh.slow) < f.k {
		i := sort.Search(len(sh.slow), func(i int) bool {
			return sh.slow[i].Duration < r.Duration
		})
		sh.slow = append(sh.slow, FlightRecord{})
		copy(sh.slow[i+1:], sh.slow[i:])
		sh.slow[i] = r
		if len(sh.slow) > f.k {
			sh.slow = sh.slow[:f.k]
		}
		if len(sh.slow) == f.k {
			sh.floor.Store(int64(sh.slow[len(sh.slow)-1].Duration))
		}
		if !isErr {
			Default.Counter("pardis_flight_records_total", "kind", "slow").Inc()
		}
	}
	sh.mu.Unlock()
}

// FlightOp is the snapshot of one (side, op) shard.
type FlightOp struct {
	Side    string         `json:"side"`
	Op      string         `json:"op"`
	Slowest []FlightRecord `json:"slowest"`          // duration descending
	Errors  []FlightRecord `json:"errors,omitempty"` // newest first
}

// Snapshot returns every shard's records, sorted by (side, op), with
// hex trace ids filled in.
func (f *FlightRecorder) Snapshot() []FlightOp {
	var out []FlightOp
	f.shards.Range(func(sideKey, opsV any) bool {
		opsV.(*sync.Map).Range(func(opKey, v any) bool {
			sh := v.(*flightShard)
			sh.mu.Lock()
			op := FlightOp{
				Side:    sideKey.(string),
				Op:      opKey.(string),
				Slowest: append([]FlightRecord(nil), sh.slow...),
			}
			// Unroll the ring newest-first: the slot before errNext is
			// the most recently written.
			for i := 0; i < len(sh.errs); i++ {
				j := (sh.errNext - 1 - i + 2*len(sh.errs)) % len(sh.errs)
				if len(sh.errs) < f.errCap {
					j = len(sh.errs) - 1 - i
				}
				op.Errors = append(op.Errors, sh.errs[j])
			}
			sh.mu.Unlock()
			for i := range op.Slowest {
				if op.Slowest[i].TraceID != 0 {
					op.Slowest[i].Trace = fmt.Sprintf("%016x", op.Slowest[i].TraceID)
				}
			}
			for i := range op.Errors {
				if op.Errors[i].TraceID != 0 {
					op.Errors[i].Trace = fmt.Sprintf("%016x", op.Errors[i].TraceID)
				}
			}
			out = append(out, op)
			return true
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Side != out[j].Side {
			return out[i].Side < out[j].Side
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// writeFlightRecordText renders one record as a single indented line,
// shared by /debug/slow?format=text and the /debug/traces cross-link.
func writeFlightRecordText(w io.Writer, fr FlightRecord) {
	fmt.Fprintf(w, "  %10s %s/%s", fr.Duration.Round(time.Microsecond), fr.Side, fr.Op)
	if fr.Key != "" {
		fmt.Fprintf(w, " key=%s", fr.Key)
	}
	if fr.Endpoint != "" {
		fmt.Fprintf(w, " ep=%s", fr.Endpoint)
	}
	if fr.Attempts > 0 {
		fmt.Fprintf(w, " attempts=%d retries=%d failovers=%d", fr.Attempts, fr.Retries, fr.Failovers)
	}
	if fr.ReResolves > 0 {
		fmt.Fprintf(w, " reresolves=%d", fr.ReResolves)
	}
	if fr.QueueWait > 0 {
		fmt.Fprintf(w, " queue_wait=%s", fr.QueueWait.Round(time.Microsecond))
	}
	if fr.DeadlineRemaining > 0 {
		fmt.Fprintf(w, " deadline_rem=%s", fr.DeadlineRemaining.Round(time.Microsecond))
	}
	if fr.TraceID != 0 {
		fmt.Fprintf(w, " trace=%016x", fr.TraceID)
	}
	if fr.Error != "" {
		fmt.Fprintf(w, " error=%q", fr.Error)
	}
	fmt.Fprintln(w)
}

// WriteFlightText renders a recorder snapshot as the same text table
// /debug/slow?format=text serves, for CLI summaries.
func WriteFlightText(w io.Writer, snap []FlightOp) {
	for _, op := range snap {
		fmt.Fprintf(w, "%s %s — %d slowest, %d errored\n", op.Side, op.Op, len(op.Slowest), len(op.Errors))
		for _, fr := range op.Slowest {
			writeFlightRecordText(w, fr)
		}
		for _, fr := range op.Errors {
			writeFlightRecordText(w, fr)
		}
	}
}

// ByTrace returns every captured record belonging to the given trace,
// for cross-linking /debug/traces to the flight recorder.
func (f *FlightRecorder) ByTrace(traceID uint64) []FlightRecord {
	if traceID == 0 {
		return nil
	}
	var out []FlightRecord
	for _, op := range f.Snapshot() {
		for _, r := range op.Slowest {
			if r.TraceID == traceID {
				out = append(out, r)
			}
		}
		for _, r := range op.Errors {
			if r.TraceID == traceID {
				out = append(out, r)
			}
		}
	}
	return out
}
