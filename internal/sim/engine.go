// Package sim provides a deterministic discrete-event simulation engine.
//
// All TrEnv experiments run on virtual time: simulated processes are
// goroutines that the engine resumes one at a time in (time, sequence)
// order, so a given seed always produces bit-identical results. The engine
// also provides counted resources (CPU cores), condition signals, and the
// statistics types (histograms, time-weighted gauges) used to report
// latency distributions and memory curves.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// stopPanic is thrown into parked processes when the engine shuts down so
// their goroutines unwind instead of leaking.
type stopPanic struct{}

// Engine is a deterministic discrete-event scheduler over virtual time.
// It is not safe for concurrent use: events and processes run one at a
// time, interleaved only at explicit yield points (Sleep, Wait, Acquire).
type Engine struct {
	now      time.Duration
	seq      uint64
	queue    eventHeap
	rng      *rand.Rand
	parked   chan struct{} // signaled when the active proc yields or exits
	procs    map[*Proc]struct{}
	running  bool
	stopped  bool
	procSeq  int
	EventCap int64 // optional safety valve; 0 means unlimited
	events   int64
	free     []*event // recycled event structs for the hot push/pop path
}

type event struct {
	at   time.Duration
	seq  uint64
	proc *Proc  // resume this process...
	fn   func() // ...or run this callback
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
func (h eventHeap) peek() *event { return h[0] }
func (e *Engine) push(ev *event) {
	if e.stopped {
		return // a shut-down engine accepts no new events
	}
	e.seq++
	ev.seq = e.seq
	heap.Push(&e.queue, ev)
}
func (e *Engine) pop() *event { return heap.Pop(&e.queue).(*event) }

// newEvent takes an event struct off the engine's freelist (or allocates
// one) so the steady-state schedule loop runs allocation-free. Events are
// recycled by the run loop after they execute; events still queued at
// Shutdown are simply dropped to the garbage collector.
func (e *Engine) newEvent(at time.Duration, proc *Proc, fn func()) *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.proc, ev.fn = at, 0, proc, fn
		return ev
	}
	return &event{at: at, proc: proc, fn: fn}
}

// recycle returns an executed event to the freelist.
func (e *Engine) recycle(ev *event) {
	ev.proc, ev.fn = nil, nil
	e.free = append(e.free, ev)
}

// NewEngine returns an engine whose random stream is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:    rand.New(rand.NewSource(seed)),
		parked: make(chan struct{}),
		procs:  make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Proc is a simulated process: a goroutine that only runs while the engine
// is blocked waiting for it, giving cooperative, deterministic scheduling.
type Proc struct {
	eng  *Engine
	name string
	id   int
	wake chan struct{}
	done bool
}

// Name returns the process's debug name.
func (p *Proc) Name() string { return p.name }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Rand returns the engine's deterministic random stream.
func (p *Proc) Rand() *rand.Rand { return p.eng.rng }

// Go spawns fn as a simulated process starting at the current virtual time.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.At(e.now, name, fn)
}

// At spawns fn as a simulated process starting at virtual time t, which
// must not be in the past.
func (e *Engine) At(t time.Duration, name string, fn func(p *Proc)) *Proc {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%v) is before now (%v)", t, e.now))
	}
	e.procSeq++
	p := &Proc{eng: e, name: name, id: e.procSeq, wake: make(chan struct{})}
	e.procs[p] = struct{}{}
	go func() {
		<-p.wake // wait for first resume
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopPanic); !ok {
					panic(r)
				}
			}
			p.done = true
			delete(e.procs, p)
			e.parked <- struct{}{}
		}()
		if e.stopped {
			return // woken by Shutdown before ever running: unwind quietly
		}
		fn(p)
	}()
	e.push(e.newEvent(t, p, nil))
	return p
}

// After schedules fn to run as a bare callback (not a process) after d.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.push(e.newEvent(e.now+d, nil, fn))
}

// resume hands control to p and blocks until it yields or finishes.
func (e *Engine) resume(p *Proc) {
	p.wake <- struct{}{}
	<-e.parked
}

// park is called from inside a process goroutine to yield to the engine.
func (p *Proc) park() {
	p.eng.parked <- struct{}{}
	<-p.wake
	if p.eng.stopped {
		panic(stopPanic{})
	}
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	e := p.eng
	e.push(e.newEvent(e.now+d, p, nil))
	p.park()
}

// Yield reschedules the process at the current time, letting same-time
// events run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Park suspends the process indefinitely; some other component must
// Resume it. Building block for queues and admission control.
func (p *Proc) Park() { p.park() }

// Resume schedules a parked process to continue at the current virtual
// time. Resuming a process that is not parked corrupts the simulation;
// pair every Resume with exactly one Park.
func (e *Engine) Resume(p *Proc) {
	if p.done {
		return
	}
	e.push(e.newEvent(e.now, p, nil))
}

// Run executes events until the queue is empty or the engine is shut down.
func (e *Engine) Run() { e.RunUntil(-1) }

// RunUntil executes events with timestamps <= deadline (deadline < 0 means
// run to exhaustion) and advances Now to deadline if it is later than the
// last event. An event scheduled exactly at the deadline runs; only events
// strictly after it are left queued.
func (e *Engine) RunUntil(deadline time.Duration) {
	e.run(deadline, false)
	if deadline >= 0 && deadline > e.now {
		e.now = deadline
	}
}

// runWindow executes events with timestamps strictly before horizon and
// leaves Now at the last executed event. It is the shard coordinator's
// entry point: a shard may safely run every event below the group's
// synchronization horizon without seeing messages from its peers, because
// cross-shard messages always arrive at or beyond the horizon.
func (e *Engine) runWindow(horizon time.Duration) {
	e.run(horizon, true)
}

// run is the scheduler hot loop shared by RunUntil and runWindow. With
// exclusive set, events at exactly the deadline stay queued.
func (e *Engine) run(deadline time.Duration, exclusive bool) {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.queue) > 0 && !e.stopped {
		if deadline >= 0 {
			at := e.queue.peek().at
			if at > deadline || (exclusive && at == deadline) {
				break
			}
		}
		ev := e.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.events++
		if e.EventCap > 0 && e.events > e.EventCap {
			panic("sim: event cap exceeded (runaway simulation?)")
		}
		proc, fn := ev.proc, ev.fn
		e.recycle(ev)
		if proc != nil {
			if !proc.done {
				e.resume(proc)
			}
			continue
		}
		fn()
	}
	if e.stopped {
		e.unwind()
	}
}

// Shutdown unwinds every parked process and drops all pending events.
// After Shutdown the engine must not be reused.
//
// Shutdown may also be called from inside a running process or callback:
// in that case it marks the engine stopped and drops the queue
// immediately, and the run loop unwinds the remaining parked processes
// once the calling process yields or returns. (Unwinding synchronously
// from inside a process would deadlock: the engine goroutine is blocked
// waiting for that process to park, so it cannot arbitrate a resume of
// any other process.)
func (e *Engine) Shutdown() {
	e.stopped = true
	e.queue = nil
	if e.running {
		return // run loop performs the unwind after the active proc yields
	}
	e.unwind()
}

// unwind resumes every parked process so park() observes stopped and
// panics with stopPanic, unwinding the goroutine.
func (e *Engine) unwind() {
	for p := range e.procs {
		if !p.done {
			e.resume(p)
		}
	}
}

// Pending reports the number of queued events (for tests).
func (e *Engine) Pending() int { return len(e.queue) }

// Events returns how many events the engine has executed so far. The
// counter is an int64 end-to-end (it lives on the hot loop as one integer
// increment per event, no allocation) so event counts cannot truncate on
// 32-bit platforms during long sharded runs, and wall-clock
// self-benchmarks can derive events/sec without touching virtual time or
// the deterministic event order.
func (e *Engine) Events() int64 { return e.events }

// nextEventAt returns the timestamp of the earliest pending event, or
// false if the queue is empty. The shard coordinator uses it to compute
// the group-wide synchronization horizon.
func (e *Engine) nextEventAt() (time.Duration, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue.peek().at, true
}

// Signal is a broadcast condition variable for simulated processes.
type Signal struct {
	waiters []*Proc
}

// Wait parks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.park()
}

// Broadcast wakes every waiter at the current virtual time.
func (s *Signal) Broadcast(e *Engine) {
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		e.push(e.newEvent(e.now, w, nil))
	}
}

// Waiters reports how many processes are parked on s.
func (s *Signal) Waiters() int { return len(s.waiters) }
