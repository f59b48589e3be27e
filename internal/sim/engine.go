// Package sim provides a deterministic discrete-event simulation engine.
//
// All TrEnv experiments run on virtual time: the engine resumes simulated
// processes one at a time in (time, sequence) order, so a given seed always
// produces bit-identical results. A process body runs on a pooled runner
// goroutine that the engine binds at the process's first resume and takes
// back when the body returns, so the goroutines alive track in-flight
// processes rather than scheduled arrivals, and each keeps the stack earlier
// bodies grew. The event loop runs on whichever goroutine holds control:
// when a body parks or returns, its runner pops the next events itself and
// passes control straight to the next process's runner, in one goroutine
// switch, or to none when that process is its own or, once its body has
// returned, a fresh arrival it binds itself. A trace's arrivals enter
// through one feed (AtEach) that
// keeps a single arrival queued at a time, so the event heap holds the
// in-flight processes rather than the whole trace. The engine also
// provides counted resources (CPU cores) and the statistics types
// (histograms, time-weighted gauges) used to report latency distributions
// and memory curves.
package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"
)

// stopPanic is thrown into parked processes when the engine shuts down so
// their bodies unwind, running deferred cleanup, instead of leaking.
type stopPanic struct{}

// Engine is a deterministic discrete-event scheduler over virtual time.
// It is not safe for concurrent use: events and processes run one at a
// time, interleaved only at explicit yield points (Sleep, Park, Acquire).
type Engine struct {
	now        time.Duration
	seq        uint64
	queue      []*event // binary min-heap on (at, seq)
	rng        *rand.Rand
	busy       []*runner // runners bound to a started, unfinished process
	idle       []*runner // runners waiting for their next process, reused last-in first-out
	running    bool
	stopped    bool
	procSeq    int
	unreleased int   // arrivals of every feed not yet queued
	EventCap   int64 // optional safety valve; 0 means unlimited
	events     int64
	free       []*event      // recycled event structs for the hot push/pop path
	deadline   time.Duration // the running loop's bound; < 0 means none
	exclusive  bool          // the running loop leaves events at exactly deadline queued
	back       chan struct{} // a runner to run's caller: the run is over, or a runner exited
	fault      any           // a panic the loop raised on a runner, raised again by run's caller
	exiting    bool          // a callback called runtime.Goexit on a runner: the loop runs nothing more
}

type event struct {
	at   time.Duration
	seq  uint64
	proc *Proc  // resume this process...
	fn   func() // ...or run this callback
}

// before orders events by virtual time, then by scheduling sequence.
func (ev *event) before(o *event) bool {
	return ev.at < o.at || (ev.at == o.at && ev.seq < o.seq)
}

// push gives ev the next sequence number and queues it.
func (e *Engine) push(ev *event) {
	if e.stopped {
		return // a shut-down engine accepts no new events
	}
	e.seq++
	ev.seq = e.seq
	e.enqueue(ev)
}

// enqueue sifts ev, whose sequence number is set, up from the heap's end.
func (e *Engine) enqueue(ev *event) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	e.queue = q
}

// pop removes the earliest event, sifting the heap's last event down
// from the root into the hole.
func (e *Engine) pop() *event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(q[c]) {
				c = r
			}
			if !q[c].before(last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	e.queue = q
	return top
}

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
	return &Engine{rng: rand.New(rand.NewSource(seed)), back: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Proc is a simulated process. Its body runs on a runner the engine binds
// at the process's first resume, and only while that runner holds control,
// giving cooperative, deterministic scheduling. Creating a Proc starts no
// goroutine.
type Proc struct {
	eng  *Engine
	name string
	id   int
	fn   func(p *Proc) // body; nil once a runner has started it
	feed *feed         // the feed that released it, until a runner starts it; nil for At's processes
	r    *runner       // bound runner while the body is started and unfinished
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
	p := &Proc{eng: e, name: name, id: e.procSeq, fn: fn}
	e.push(e.newEvent(t, p, nil))
	return p
}

// feed releases the arrivals of one AtEach call into the queue one at a
// time, in (time, index) order.
type feed struct {
	name  string
	n     int
	at    func(i int) time.Duration
	body  func(p *Proc, i int)
	seq0  uint64 // sequence number of arrival 0; arrival i has seq0+i
	pid0  int    // proc id of arrival 0; arrival i has pid0+i
	order []int  // arrival indices in release order; nil when at never decreases
	next  int    // release position of the next arrival to queue
}

// AtEach schedules n processes exactly as n calls At(at(i), name, ...) in
// index order would, but keeps only one of them queued at a time. Arrival
// i runs body(p, i) at virtual time at(i) with the sequence number and
// proc id the i-th At call would have taken, so it runs in the same
// (time, sequence) order among all other events. The next arrival is
// queued when the previous one first resumes, and Pending counts the
// ones not yet queued. The times may come in any order; equal times run
// in index order. at must return the same time for i on every call, and
// every time must be at or after Now: otherwise AtEach panics with At's
// message before it schedules anything.
func (e *Engine) AtEach(name string, n int, at func(i int) time.Duration, body func(p *Proc, i int)) {
	sorted := true
	for i, prev := 0, e.now; i < n; i++ {
		t := at(i)
		if t < e.now {
			panic(fmt.Sprintf("sim: At(%v) is before now (%v)", t, e.now))
		}
		sorted = sorted && t >= prev
		prev = t
	}
	if n <= 0 {
		return
	}
	f := &feed{name: name, n: n, at: at, body: body, pid0: e.procSeq + 1}
	e.procSeq += n
	if e.stopped {
		return // a shut-down engine accepts no feed
	}
	f.seq0 = e.seq + 1
	e.seq += uint64(n)
	if !sorted {
		f.order = make([]int, n)
		for i := range f.order {
			f.order[i] = i
		}
		slices.SortStableFunc(f.order, func(a, b int) int { return cmp.Compare(at(a), at(b)) })
	}
	e.unreleased += n
	e.release(f)
}

// release queues f's next arrival, building its Proc.
func (e *Engine) release(f *feed) {
	if f.next == f.n || e.stopped {
		return
	}
	i := f.next
	if f.order != nil {
		i = f.order[i]
	}
	f.next++
	e.unreleased--
	ev := e.newEvent(f.at(i), &Proc{eng: e, name: f.name, id: f.pid0 + i, feed: f}, nil)
	ev.seq = f.seq0 + uint64(i)
	e.enqueue(ev)
}

// After schedules fn to run as a bare callback (not a process) after d.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.push(e.newEvent(e.now+d, nil, fn))
}

// runner is a long-lived goroutine that runs process bodies one after
// another, so a body starts on a stack that earlier bodies already grew.
// Exactly one goroutine holds control at a time: run's caller or one
// runner. When a body parks or returns, its runner runs the event loop
// itself and passes control straight to the runner of the next process
// over that runner's wake channel, or back to run's caller over the
// engine's back channel once the run is over. It keeps control, with no
// switch, when the next process is its own, or a fresh one it binds
// after its body returned.
type runner struct {
	eng  *Engine
	wake chan struct{} // control passes to this runner; closed to stop it while idle
	proc *Proc         // bound process; nil while idle
	slot int           // index in eng.busy while bound
}

// serve runs each process bound to r until r leaves the pool or stopIdle
// closes wake.
func (r *runner) serve() {
	for range r.wake {
		for {
			if !r.exec() {
				return // left the pool; exec passed control on
			}
			if !r.handoff() {
				break // control passed on: wait for the next process
			}
		}
	}
	r.eng.back <- struct{}{} // stopped while idle: stopIdle waits for this
}

// exec runs the bound process's body to its end and detaches the process.
// It reports whether r stays in the pool: not after runtime.Goexit in the
// body, nor once the engine has stopped. A runner that leaves the pool
// passes control on before its goroutine exits.
func (r *runner) exec() (reuse bool) {
	e, p := r.eng, r.proc
	returned := false
	defer func() {
		v := recover()
		if _, ok := v.(stopPanic); v != nil && !ok {
			panic(v)
		}
		reuse = (returned || v != nil) && !e.stopped
		e.unbind(r, reuse)
		if !reuse {
			r.handoff() // r is on neither list, so control leaves it
		}
	}()
	fn, f := p.fn, p.feed
	p.fn, p.feed = nil, nil
	if f != nil {
		f.body(p, p.id-f.pid0)
	} else {
		fn(p)
	}
	returned = true
	return
}

// handoff runs the loop on r's goroutine, which holds control, and passes
// control to the runner the loop returns, or back to run's caller. It
// reports whether that runner is r, which then goes on with no switch.
// A panic the loop raises ends the run: run's caller raises it again. So
// does runtime.Goexit in a callback, once r's goroutine has unwound: a
// parked body runs its deferred calls and exec hands the run back, and a
// runner with no body leaves the pool and hands it back at once.
func (r *runner) handoff() (stay bool) {
	e := r.eng
	looped := false
	defer func() {
		if looped {
			return
		}
		v := recover()
		if v == nil { // runtime.Goexit
			e.exiting = true
			if r.proc != nil {
				return
			}
			if i := slices.Index(e.idle, r); i >= 0 {
				e.idle = slices.Delete(e.idle, i, i+1)
			}
		}
		e.fault = v
		e.back <- struct{}{}
	}()
	next := e.loop()
	looped = true
	if next == r {
		return true
	}
	if next == nil {
		e.back <- struct{}{}
	} else {
		next.wake <- struct{}{}
	}
	return false
}

// drive passes control to r and waits until a runner hands the run back,
// then raises again a panic or runtime.Goexit the loop raised on a runner.
func (e *Engine) drive(r *runner) {
	r.wake <- struct{}{}
	<-e.back
	if v := e.fault; v != nil {
		e.fault = nil
		panic(v)
	}
	if e.exiting {
		e.exiting = false
		runtime.Goexit()
	}
}

// bind gives p the most recently idled runner, or a new one.
func (e *Engine) bind(p *Proc) *runner {
	var r *runner
	if n := len(e.idle); n > 0 {
		r = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		r = &runner{eng: e, wake: make(chan struct{})}
		go r.serve()
	}
	r.proc, r.slot = p, len(e.busy)
	e.busy = append(e.busy, r)
	p.r = r
	return r
}

// unbind marks r's process done and takes r off the busy list, back to
// the idle list when reuse is set. It runs on r, which holds control.
func (e *Engine) unbind(r *runner, reuse bool) {
	r.proc.done, r.proc.r, r.proc = true, nil, nil
	last := len(e.busy) - 1
	e.busy[r.slot] = e.busy[last]
	e.busy[r.slot].slot = r.slot
	e.busy[last] = nil
	e.busy = e.busy[:last]
	if reuse {
		e.idle = append(e.idle, r)
	}
}

// stopIdle stops every idle runner's goroutine and waits for it to exit.
func (e *Engine) stopIdle() {
	for i, r := range e.idle {
		close(r.wake)
		<-e.back
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}

// Sleep suspends the process for d of virtual time. When its wake-up
// would be the running loop's next event, the process carries on in
// place instead of parking: the wake-up takes the sequence number a
// queued one would have, advances Now and counts as an event, so the
// schedule is the same either way. That holds when the engine is not
// stopped, now+d is inside the loop's bound, EventCap allows one more
// event and nothing is queued at or before now+d (a queued event at the
// same instant has a smaller sequence number and runs first).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	e := p.eng
	at := e.now + d
	if e.wakesNext(at) {
		e.seq++
		e.now = at
		e.events++
		return
	}
	e.push(e.newEvent(at, p, nil))
	p.Park()
}

// wakesNext reports whether an event pushed now at t would be the next
// one the running loop pops and runs. A process body runs only inside
// run, or in Shutdown's unwind, where the engine is stopped; so while it
// is not stopped, deadline and exclusive are the running loop's. t is
// before now only when now+d overflowed: queued, it trips the loop's
// time-went-backwards panic.
func (e *Engine) wakesNext(t time.Duration) bool {
	return t >= e.now && e.runsAt(t) &&
		(len(e.queue) == 0 || t < e.queue[0].at) &&
		(e.EventCap <= 0 || e.events < e.EventCap)
}

// Yield reschedules the process at the current time, letting same-time
// events run first. With none queued, it returns at once.
func (p *Proc) Yield() { p.Sleep(0) }

// Park suspends the process indefinitely; some other component must
// Resume it. Sleep and Resource wait through it, as does admission control.
func (p *Proc) Park() {
	if r := p.r; !r.handoff() {
		<-r.wake // control comes back when the process is next due, or to unwind it
	}
	if p.eng.stopped {
		panic(stopPanic{})
	}
}

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

// run is shared by RunUntil and runWindow. With exclusive set, events at
// exactly the deadline stay queued. It runs the loop on its own goroutine
// until the first process is due, then passes control to that process's
// runner and waits until a runner hands the run back.
func (e *Engine) run(deadline time.Duration, exclusive bool) {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	e.deadline, e.exclusive = deadline, exclusive
	defer func() { e.running = false }()
	if r := e.loop(); r != nil {
		e.drive(r)
	}
	if e.stopped {
		e.unwind()
	} else if len(e.queue) == 0 {
		e.stopIdle() // drained: nothing is left to start a process
	}
}

// loop is the scheduler hot loop. It runs on whichever goroutine holds
// control: run's caller, or a runner whose body parked or returned. It
// pops events in (time, sequence) order and runs callbacks in place until
// a process is due, and returns that process's runner, binding one at its
// first resume; it returns nil when the run is over.
func (e *Engine) loop() *runner {
	for len(e.queue) > 0 && e.runsAt(e.queue[0].at) {
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
		if proc == nil {
			fn()
			continue
		}
		if proc.done {
			continue
		}
		if proc.r != nil {
			return proc.r
		}
		if proc.feed != nil {
			e.release(proc.feed) // the feed's next arrival waits in the queue from now on
		}
		return e.bind(proc)
	}
	return nil
}

// runsAt reports whether the running loop would run an event at t now:
// the engine is not stopped, no callback's runtime.Goexit is unwinding and
// t is inside the loop's bound. The loop's head check and Sleep's in-place
// wake-up share it, so the two agree.
func (e *Engine) runsAt(t time.Duration) bool {
	return !e.stopped && !e.exiting && (e.deadline < 0 || t < e.deadline || (t == e.deadline && !e.exclusive))
}

// Shutdown unwinds every parked process in proc-id order, drops all
// pending events and unreleased feed arrivals, and stops the engine's
// runners. After Shutdown the engine must not be reused.
//
// Shutdown may also be called from inside a running process or callback:
// in that case it marks the engine stopped and drops the queue
// immediately, and run's caller unwinds the started processes once the
// goroutine holding control parks, returns or finishes the callback and
// hands the run back. (That goroutine cannot unwind them in proc-id order
// itself: its own body, if it has one, is still running.)
func (e *Engine) Shutdown() {
	e.stopped = true
	e.queue = nil
	e.unreleased = 0
	if e.running {
		return // run loop performs the unwind after the active proc yields
	}
	e.unwind()
}

// unwind resumes every started process in proc-id order so park observes
// stopped and panics with stopPanic, running the body's deferred cleanup;
// a process that never started has nothing to unwind. A cleanup that parks
// again is resumed on the next pass. Then it stops the idle runners.
func (e *Engine) unwind() {
	var started []*runner
	for len(e.busy) > 0 {
		started = append(started[:0], e.busy...)
		sort.Slice(started, func(i, j int) bool { return started[i].proc.id < started[j].proc.id })
		for _, r := range started {
			e.drive(r)
		}
	}
	e.stopIdle()
}

// Pending reports the number of queued events, counting every feed
// arrival not yet queued as one (for tests).
func (e *Engine) Pending() int { return len(e.queue) + e.unreleased }

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
	return e.queue[0].at, true
}
