// Package des is a process-oriented discrete-event simulation engine:
// simulated processes run as goroutines that advance a shared virtual
// clock by waiting on events, with exactly one process executing at a
// time (sequential semantics, deterministic given a seed).
//
// It exists to model the paper's 1996 testbed — synchronous sends over
// a dedicated ATM link between two SMPs with OS scheduler interference
// — so that Tables 1-2 and Figure 4 can be regenerated on hardware
// that no longer exists. The engine itself is general: virtual clock,
// process spawn/wait, FCFS resources, and condition synchronization.
package des

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
)

// Sim is one simulation run. Create with New, add processes with
// Spawn, execute with Run. Not safe for concurrent external use; all
// interaction happens from inside process functions.
type Sim struct {
	now     float64
	events  eventHeap
	seq     int64 // tie-breaker for deterministic ordering
	rng     *rand.Rand
	current *Proc
	running int // live processes
	nextID  int

	// scheduler handshake
	yield chan struct{}

	failure any // panic payload from a process, re-raised by Run
}

// New creates a simulation with a seeded deterministic RNG.
func New(seed int64) *Sim {
	return &Sim{
		rng:   rand.New(rand.NewSource(seed)),
		yield: make(chan struct{}),
	}
}

// Now returns the current virtual time (milliseconds by convention).
func (s *Sim) Now() float64 { return s.now }

// Rand returns the simulation's deterministic RNG.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Exp draws an exponentially distributed duration with the given
// mean; a zero or negative mean returns 0.
func (s *Sim) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.rng.ExpFloat64() * mean
}

// Proc is a simulated process. Its methods must only be called from
// inside the process's own function.
type Proc struct {
	sim  *Sim
	id   int
	name string
	wake chan struct{}
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Now returns the virtual time.
func (p *Proc) Now() float64 { return p.sim.now }

// event is a scheduled wakeup.
type event struct {
	at   float64
	seq  int64
	proc *Proc
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (s *Sim) schedule(at float64, p *Proc) {
	s.seq++
	heap.Push(&s.events, event{at: at, seq: s.seq, proc: p})
}

// Spawn adds a process starting at the current virtual time. It may
// be called before Run or from inside another process.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	s.nextID++
	p := &Proc{sim: s, id: s.nextID, name: name, wake: make(chan struct{})}
	s.running++
	go func() {
		<-p.wake // wait for the scheduler to start us
		defer func() {
			if r := recover(); r != nil {
				if s.failure == nil {
					s.failure = fmt.Sprintf("des: process %s panicked: %v", p.name, r)
				}
			}
			s.running--
			s.yield <- struct{}{}
		}()
		fn(p)
	}()
	s.schedule(s.now, p)
	return p
}

// Run executes events until none remain, then returns the final
// virtual time. It panics if a process panicked or if processes
// remain blocked with no pending events (deadlock).
func (s *Sim) Run() float64 {
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(event)
		if e.at < s.now {
			panic("des: time went backwards")
		}
		s.now = e.at
		s.current = e.proc
		e.proc.wake <- struct{}{}
		<-s.yield
		if s.failure != nil {
			panic(s.failure)
		}
	}
	if s.running > 0 {
		panic(fmt.Sprintf("des: deadlock: %d processes blocked with no pending events", s.running))
	}
	return s.now
}

// pause returns control to the scheduler; the process resumes when
// its next event fires or it is activated.
func (p *Proc) pause() {
	p.sim.yield <- struct{}{}
	<-p.wake
}

// Wait advances the process by d virtual time units (d < 0 is
// treated as 0).
func (p *Proc) Wait(d float64) {
	if d < 0 || math.IsNaN(d) {
		d = 0
	}
	p.sim.schedule(p.sim.now+d, p)
	p.pause()
}

// Suspend blocks the process until a Resource, Gate or Barrier wakes
// it.
func (p *Proc) Suspend() {
	p.pause()
}

// Resource is a FCFS server pool: up to Capacity processes hold it
// concurrently; the rest queue.
type Resource struct {
	sim      *Sim
	capacity int
	inUse    int
	queue    []*Proc
}

// NewResource creates a resource with the given capacity.
func (s *Sim) NewResource(capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{sim: s, capacity: capacity}
}

// Acquire blocks until a slot is free and takes it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	r.queue = append(r.queue, p)
	p.Suspend()
	// Ownership was transferred by Release; inUse already counts us.
}

// Release frees a slot, waking the head of the queue if any.
func (r *Resource) Release(p *Proc) {
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		// Slot passes directly to next (inUse unchanged).
		p.sim.schedule(p.sim.now, next)
		return
	}
	r.inUse--
}

// Use acquires the resource, waits d, and releases — the common
// "occupy a server for a service time" pattern.
func (r *Resource) Use(p *Proc, d float64) {
	r.Acquire(p)
	p.Wait(d)
	r.Release(p)
}

// Gate is a broadcast barrier: processes Wait on it; Open releases
// all current and future waiters.
type Gate struct {
	sim     *Sim
	open    bool
	waiters []*Proc
}

// NewGate creates a closed gate.
func (s *Sim) NewGate() *Gate { return &Gate{sim: s} }

// WaitOpen blocks until the gate opens (returns immediately if
// already open).
func (g *Gate) WaitOpen(p *Proc) {
	if g.open {
		return
	}
	g.waiters = append(g.waiters, p)
	p.Suspend()
}

// Open releases all waiters.
func (g *Gate) Open() {
	if g.open {
		return
	}
	g.open = true
	for _, w := range g.waiters {
		g.sim.schedule(g.sim.now, w)
	}
	g.waiters = nil
}

// Barrier synchronizes a fixed party count: the k-th arrival releases
// everyone; the barrier then resets for reuse.
type Barrier struct {
	sim     *Sim
	parties int
	waiting []*Proc
}

// NewBarrier creates a barrier for the given party count.
func (s *Sim) NewBarrier(parties int) *Barrier {
	return &Barrier{sim: s, parties: parties}
}

// Arrive blocks until all parties have arrived.
func (b *Barrier) Arrive(p *Proc) {
	if len(b.waiting)+1 == b.parties {
		for _, w := range b.waiting {
			b.sim.schedule(b.sim.now, w)
		}
		b.waiting = nil
		return
	}
	b.waiting = append(b.waiting, p)
	p.Suspend()
}
