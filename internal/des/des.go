// Package des is a process-oriented discrete-event simulation kernel.
//
// Each simulated process is a goroutine, but exactly one goroutine (either
// the scheduler or a single process) runs at any instant: control is handed
// off explicitly, so simulations are fully deterministic given a seed.
// Virtual time advances only through the event heap.
//
// The kernel provides the two facilities the B-tree simulator needs:
// processes that can sleep for a virtual duration (Proc.Delay) and
// first-come-first-served reader/writer locks in virtual time (RWLock),
// matching the lock queues of Johnson & Shasha's analytical framework.
package des

import (
	"container/heap"
	"fmt"
)

// Environment owns the virtual clock and the event heap. Create one with
// NewEnvironment; it is not safe for use from multiple OS threads except
// through the kernel's own hand-off discipline.
type Environment struct {
	now     float64
	events  eventHeap
	seq     uint64
	yielded chan struct{}
	procs   map[*Proc]struct{}
	killed  bool
}

// NewEnvironment returns an empty environment at virtual time 0.
func NewEnvironment() *Environment {
	return &Environment{
		yielded: make(chan struct{}),
		procs:   make(map[*Proc]struct{}),
	}
}

// Schedule arranges for fn to run in scheduler context at virtual time at
// (not before the current time). Events at equal times fire in scheduling
// order.
func (env *Environment) Schedule(at float64, fn func()) {
	if at < env.now {
		panic(fmt.Sprintf("des: scheduling into the past: %v < %v", at, env.now))
	}
	env.seq++
	heap.Push(&env.events, &event{t: at, seq: env.seq, fn: fn})
}

// Spawn creates a process running fn and schedules its start at the current
// virtual time. fn runs in process context: it may call Delay and block on
// locks. Spawn may be called both before RunAll and from within running
// processes or events.
func (env *Environment) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		env:    env,
		name:   name,
		resume: make(chan struct{}),
	}
	env.procs[p] = struct{}{}
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil && r != errKilled {
				panic(r)
			}
			delete(env.procs, p)
			env.yielded <- struct{}{}
		}()
		// A process first resumed by Close (its start event never
		// fired) must unwind immediately instead of running fn: killing an
		// environment must not execute not-yet-started process bodies.
		if env.killed {
			panic(errKilled)
		}
		fn(p)
	}()
	env.Schedule(env.now, func() { env.unpark(p) })
	return p
}

// RunAll drains every event and returns the virtual time reached. An
// event that calls Close ends the run early.
func (env *Environment) RunAll() float64 {
	for len(env.events) > 0 {
		next := heap.Pop(&env.events).(*event)
		env.now = next.t
		next.fn()
	}
	return env.now
}

// Close terminates the environment. Every live process — parked on a
// Delay, waiting on a lock, or spawned but never started — is unwound via
// the kill sentinel so its goroutine exits, and all pending events are
// dropped (a stale event waking a dead process would otherwise block
// forever on its resume channel). Close is idempotent and must be called
// from scheduler context — outside RunAll or from an event — never from
// within a running process. A run that terminates early (an unstable
// abort, an error return) would otherwise leak one parked goroutine per
// abandoned process.
func (env *Environment) Close() {
	env.killed = true
	for len(env.procs) > 0 {
		for p := range env.procs {
			env.unpark(p)
			break // unpark may mutate the map; restart iteration
		}
	}
	env.events = nil
}

// unpark hands control to p until it parks again or finishes. Must only be
// called from scheduler context (inside an event function).
func (env *Environment) unpark(p *Proc) {
	p.resume <- struct{}{}
	<-env.yielded
}

// Pending returns the number of scheduled events (for tests).
func (env *Environment) Pending() int { return len(env.events) }

// Live returns the number of live processes (for tests and in-flight
// operation accounting).
func (env *Environment) Live() int { return len(env.procs) }

// errKilled is the sentinel panic value used to unwind killed processes.
var errKilled = new(int)

// Proc is a simulated process. Its methods must only be called from the
// process's own goroutine.
type Proc struct {
	env    *Environment
	name   string
	resume chan struct{}
}

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.env.now }

// Delay suspends the process for d units of virtual time (d >= 0).
func (p *Proc) Delay(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	p.env.Schedule(p.env.now+d, func() { p.env.unpark(p) })
	p.park()
}

// park suspends the process until something schedules an unpark.
// Exposed to the lock implementation below.
func (p *Proc) park() {
	p.env.yielded <- struct{}{}
	<-p.resume
	if p.env.killed {
		panic(errKilled)
	}
}

// wake schedules the process to resume at the current virtual time.
func (p *Proc) wake() {
	env := p.env
	env.Schedule(env.now, func() { env.unpark(p) })
}

// event heap -----------------------------------------------------------------

type event struct {
	t   float64
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
