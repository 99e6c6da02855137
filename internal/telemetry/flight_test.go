package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderKeepsKSlowest(t *testing.T) {
	f := NewFlightRecorder(3, 8)
	for i := 1; i <= 10; i++ {
		f.Record(FlightRecord{
			Side: "client", Op: "echo",
			Duration: time.Duration(i) * time.Millisecond,
		})
	}
	snap := f.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("shards = %d, want 1", len(snap))
	}
	op := snap[0]
	if op.Side != "client" || op.Op != "echo" {
		t.Fatalf("shard identity = %s/%s", op.Side, op.Op)
	}
	if len(op.Slowest) != 3 {
		t.Fatalf("slowest = %d records, want 3", len(op.Slowest))
	}
	for i, want := range []time.Duration{10, 9, 8} {
		if op.Slowest[i].Duration != want*time.Millisecond {
			t.Errorf("slowest[%d] = %v, want %vms", i, op.Slowest[i].Duration, want)
		}
	}
	if len(op.Errors) != 0 {
		t.Errorf("unexpected errors: %+v", op.Errors)
	}
}

// TestFlightRecorderCapsOps: past maxFlightOps distinct ops on one
// side, every further op shares the overflow shard, whose records keep
// their own op; the other side keeps its own budget. Four goroutines
// race to create the shards, so the cap must hold exactly.
func TestFlightRecorderCapsOps(t *testing.T) {
	f := NewFlightRecorder(3, 8)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < maxFlightOps+50; i += 4 {
				f.Record(FlightRecord{Side: "server", Op: fmt.Sprintf("op-%d", i), Duration: time.Millisecond})
			}
		}()
	}
	wg.Wait()
	f.Record(FlightRecord{Side: "client", Op: "echo", Duration: time.Millisecond})
	snap := f.Snapshot()
	if len(snap) != maxFlightOps+2 {
		t.Fatalf("shards = %d, want %d server ops + overflow + 1 client op", len(snap), maxFlightOps)
	}
	var overflow *FlightOp
	for i := range snap {
		if snap[i].Side == "server" && snap[i].Op == flightOverflowOp {
			overflow = &snap[i]
		}
	}
	if overflow == nil || len(overflow.Slowest) != 3 {
		t.Fatalf("overflow shard = %+v, want 3 slowest records", overflow)
	}
	if op := overflow.Slowest[0].Op; !strings.HasPrefix(op, "op-") {
		t.Fatalf("an overflow record lost its op: %q", op)
	}
}

func TestFlightRecorderErrorRing(t *testing.T) {
	f := NewFlightRecorder(2, 3)
	for i := 1; i <= 5; i++ {
		f.Record(FlightRecord{
			Side: "server", Op: "solve",
			Duration: time.Microsecond, // fast: only the error ring keeps these
			Error:    fmt.Sprintf("boom %d", i),
		})
	}
	op := f.Snapshot()[0]
	if len(op.Errors) != 3 {
		t.Fatalf("errors = %d, want ring cap 3", len(op.Errors))
	}
	// Newest first: boom 5, boom 4, boom 3.
	for i, want := range []string{"boom 5", "boom 4", "boom 3"} {
		if op.Errors[i].Error != want {
			t.Errorf("errors[%d] = %q, want %q", i, op.Errors[i].Error, want)
		}
	}
}

func TestFlightRecorderFastPathBelowFloor(t *testing.T) {
	f := NewFlightRecorder(2, 2)
	f.Record(FlightRecord{Side: "client", Op: "x", Duration: 100 * time.Millisecond})
	f.Record(FlightRecord{Side: "client", Op: "x", Duration: 90 * time.Millisecond})
	// Floor is now 90ms; a faster, error-free record must be dropped.
	f.Record(FlightRecord{Side: "client", Op: "x", Duration: time.Millisecond})
	op := f.Snapshot()[0]
	if len(op.Slowest) != 2 || op.Slowest[1].Duration != 90*time.Millisecond {
		t.Fatalf("slow set corrupted: %+v", op.Slowest)
	}
	// A slower record evicts the floor entry.
	f.Record(FlightRecord{Side: "client", Op: "x", Duration: 95 * time.Millisecond})
	op = f.Snapshot()[0]
	if op.Slowest[0].Duration != 100*time.Millisecond || op.Slowest[1].Duration != 95*time.Millisecond {
		t.Fatalf("eviction wrong: %+v", op.Slowest)
	}
}

func TestFlightRecorderDisabled(t *testing.T) {
	f := NewFlightRecorder(2, 2)
	f.SetEnabled(false)
	f.Record(FlightRecord{Side: "client", Op: "x", Duration: time.Second, Error: "nope"})
	if snap := f.Snapshot(); len(snap) != 0 {
		t.Fatalf("recorded while disabled: %+v", snap)
	}
}

func TestFlightRecorderByTrace(t *testing.T) {
	f := NewFlightRecorder(4, 4)
	f.Record(FlightRecord{Side: "client", Op: "a", Duration: time.Second, TraceID: 0xf00})
	f.Record(FlightRecord{Side: "server", Op: "a", Duration: time.Second / 2, TraceID: 0xf00})
	f.Record(FlightRecord{Side: "client", Op: "a", Duration: time.Second / 4, TraceID: 0xbaa})
	recs := f.ByTrace(0xf00)
	if len(recs) != 2 {
		t.Fatalf("ByTrace = %d records, want 2: %+v", len(recs), recs)
	}
	for _, r := range recs {
		if r.Trace != fmt.Sprintf("%016x", 0xf00) {
			t.Errorf("hex trace not filled: %+v", r)
		}
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(8, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r := FlightRecord{
					Side:     "client",
					Op:       fmt.Sprintf("op%d", i%3),
					Duration: time.Duration(i*g+1) * time.Microsecond,
				}
				if i%17 == 0 {
					r.Error = "transient"
				}
				f.Record(r)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			f.Snapshot()
		}
		close(done)
	}()
	wg.Wait()
	<-done
	snap := f.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("shards = %d, want 3", len(snap))
	}
	for _, op := range snap {
		if len(op.Slowest) == 0 || len(op.Slowest) > 8 {
			t.Errorf("%s/%s slowest = %d", op.Side, op.Op, len(op.Slowest))
		}
		for i := 1; i < len(op.Slowest); i++ {
			if op.Slowest[i].Duration > op.Slowest[i-1].Duration {
				t.Errorf("%s/%s not sorted at %d", op.Side, op.Op, i)
			}
		}
	}
}

func TestWriteFlightText(t *testing.T) {
	f := NewFlightRecorder(2, 2)
	f.Record(FlightRecord{
		Side: "client", Op: "echo", Key: "objects/e", Endpoint: "tcp:1.2.3.4:5",
		Duration: 3 * time.Millisecond, Attempts: 2, Retries: 1, Failovers: 1,
		ReResolves: 1, TraceID: 0xabc, DeadlineRemaining: 40 * time.Millisecond,
	})
	var sb strings.Builder
	WriteFlightText(&sb, f.Snapshot())
	out := sb.String()
	for _, want := range []string{
		"client echo", "attempts=2", "retries=1", "failovers=1",
		"reresolves=1", "trace=0000000000000abc", "deadline_rem=40ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
