// Harness-side tracing. Spans are recorded only here, in bench/, around
// the calls into the system's public API and inside the harness's own
// servant handlers; spans inside orb/spmd are a later change. They are
// kept in memory and written out when the run ends.
package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRingCap bounds the memory of a traced run: 2^18 per-operation spans
// hold every one of the transfer workloads and the most recent ones of
// invoke_named. Set-up spans are not in the ring (see tracer.setup).
const spanRingCap = 1 << 18

// spanFileCap bounds the trace file: the set-up spans and the newest of
// the per-operation spans are written.
const spanFileCap = 50000

// tracer is nil in an untraced run: every method is a no-op on nil, so
// the end-to-end path carries one nil check per call site and nothing
// else.
type tracer struct {
	t0   time.Time
	on   atomic.Bool
	next atomic.Uint64

	mu sync.Mutex
	// setup holds the spans that belong to no operation (op id 0): the
	// set-up phases. There are a few per set-up cycle, they are kept for
	// the whole run, and the millions of per-operation spans that follow
	// cannot push them out.
	setup []span
	ring  []span // per-operation spans, the newest spanRingCap of them
	inOps int    // per-operation spans recorded so far
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ring: make([]span, 0, spanRingCap)}
}

// spanRef is an open span: its id (so children can name it as parent)
// and start. The zero value means "not recording".
type spanRef struct {
	id    uint64
	start int64
}

func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// now is the tracer's clock (0 without a tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// pause stops recording and returns whether it was on, for resume.
func (t *tracer) pause() bool {
	if t == nil {
		return false
	}
	return t.on.Swap(false)
}

func (t *tracer) begin() spanRef {
	if t == nil || !t.on.Load() {
		return spanRef{}
	}
	return spanRef{id: t.next.Add(1), start: int64(time.Since(t.t0))}
}

func (t *tracer) end(r spanRef, name string, parent, op uint64) {
	if r.id == 0 {
		return
	}
	s := span{ID: r.id, Parent: parent, Op: op, Name: name, Start: r.start, End: int64(time.Since(t.t0))}
	t.mu.Lock()
	switch {
	case op == 0:
		t.setup = append(t.setup, s)
	case len(t.ring) < spanRingCap:
		t.ring = append(t.ring, s)
	default:
		t.ring[t.inOps%spanRingCap] = s
	}
	if op != 0 {
		t.inOps++
	}
	t.mu.Unlock()
}

// recorded is how many spans were recorded, retained or not.
func (t *tracer) recorded() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.setup) + t.inOps
}

// spans returns the retained spans in start order, with every handler
// span re-parented under the "op" span that carries the same op id (the
// handler runs in another goroutine and only knows the op id).
func (t *tracer) spans() []span {
	t.mu.Lock()
	out := append(append([]span(nil), t.setup...), t.ring...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	ops := make(map[uint64]uint64)
	for _, s := range out {
		if s.Name == spanOp {
			ops[s.Op] = s.ID
		}
	}
	for i := range out {
		if out[i].Parent == 0 && out[i].Op != 0 && out[i].Name != spanOp {
			out[i].Parent = ops[out[i].Op]
		}
	}
	return out
}

// spanSummary is the per-name roll-up: self time is a span's duration
// minus the part of it its child spans cover.
type spanSummary struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func summarize(spans []span) map[string]*spanSummary {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*spanSummary)
	for _, s := range spans {
		sum := out[s.Name]
		if sum == nil {
			sum = &spanSummary{}
			out[s.Name] = sum
		}
		sum.Count++
		sum.TotalNs += s.End - s.Start
		sum.SelfNs += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent (children arrive in start order).
func covered(p span, kids []span) int64 {
	var sum, hi int64
	hi = p.Start
	for _, k := range kids {
		lo, end := k.Start, k.End
		if lo < hi {
			lo = hi
		}
		if end > p.End {
			end = p.End
		}
		if end > lo {
			sum += end - lo
			hi = end
		}
	}
	return sum
}

type traceFile struct {
	Workload string                  `json:"workload"`
	Env      envBlock                `json:"env"`
	Recorded int                     `json:"spans_recorded"`
	Retained int                     `json:"spans_retained"`
	Summary  map[string]*spanSummary `json:"summary"`
	Spans    []span                  `json:"spans"`
}

func writeTrace(path, workload string, env envBlock, t *tracer, spans []span) error {
	tf := traceFile{
		Workload: workload,
		Env:      env,
		Recorded: t.recorded(),
		Retained: len(spans),
		Summary:  summarize(spans),
		Spans:    spans,
	}
	if cut := len(spans) - spanFileCap; cut > 0 {
		// Every set-up span and the newest of the rest.
		tf.Spans = nil
		for i, s := range spans {
			if s.Op == 0 || i >= cut {
				tf.Spans = append(tf.Spans, s)
			}
		}
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
