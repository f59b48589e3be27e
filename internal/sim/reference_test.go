package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// refEngine, refProc and the ref* primitives are the slow reference model
// of the engine: every process is a fresh goroutine started by At, and the
// engine hands control to it over a per-process wake channel and one
// engine-wide parked channel. FuzzEngineDifferential drives it next to
// the runner engine, and refShardGroup next to ShardGroup. It differs
// from the goroutine-per-process engine it replaced in one place:
// Shutdown unwinds in proc-id order, not map order, so that the unwind
// order can be compared at all.
type refEngine struct {
	now     time.Duration
	seq     uint64
	queue   refEventHeap
	rng     *rand.Rand
	parked  chan struct{} // signaled when the active proc yields or exits
	procs   map[*refProc]struct{}
	running bool
	stopped bool
	procSeq int
	events  int64
}

type refEvent struct {
	at   time.Duration
	seq  uint64
	proc *refProc
	fn   func()
}

type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

func (e *refEngine) push(ev *refEvent) {
	if e.stopped {
		return
	}
	e.seq++
	ev.seq = e.seq
	heap.Push(&e.queue, ev)
}

func newRefEngine(seed int64) *refEngine {
	return &refEngine{
		rng:    rand.New(rand.NewSource(seed)),
		parked: make(chan struct{}),
		procs:  make(map[*refProc]struct{}),
	}
}

func (e *refEngine) Now() time.Duration { return e.now }
func (e *refEngine) Rand() *rand.Rand   { return e.rng }
func (e *refEngine) Pending() int       { return len(e.queue) }
func (e *refEngine) Events() int64      { return e.events }

type refProc struct {
	eng  *refEngine
	name string
	id   int
	wake chan struct{}
	done bool
}

func (p *refProc) Now() time.Duration { return p.eng.now }

func (e *refEngine) Go(name string, fn func(p *refProc)) *refProc {
	return e.At(e.now, name, fn)
}

func (e *refEngine) At(t time.Duration, name string, fn func(p *refProc)) *refProc {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%v) is before now (%v)", t, e.now))
	}
	e.procSeq++
	p := &refProc{eng: e, name: name, id: e.procSeq, wake: make(chan struct{})}
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
	e.push(&refEvent{at: t, proc: p})
	return p
}

// AtEach is the reference arrival feed: n At calls in index order, after
// the same check of every time.
func (e *refEngine) AtEach(name string, n int, at func(i int) time.Duration, body func(p *refProc, i int)) {
	for i := 0; i < n; i++ {
		if t := at(i); t < e.now {
			panic(fmt.Sprintf("sim: At(%v) is before now (%v)", t, e.now))
		}
	}
	for i := 0; i < n; i++ {
		e.At(at(i), name, func(p *refProc) { body(p, i) })
	}
}

func (e *refEngine) After(d time.Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.push(&refEvent{at: e.now + d, fn: fn})
}

func (e *refEngine) resume(p *refProc) {
	p.wake <- struct{}{}
	<-e.parked
}

func (p *refProc) park() {
	p.eng.parked <- struct{}{}
	<-p.wake
	if p.eng.stopped {
		panic(stopPanic{})
	}
}

func (p *refProc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	e := p.eng
	e.push(&refEvent{at: e.now + d, proc: p})
	p.park()
}

func (p *refProc) Yield() { p.Sleep(0) }
func (p *refProc) Park()  { p.park() }

func (e *refEngine) Resume(p *refProc) {
	if p.done {
		return
	}
	e.push(&refEvent{at: e.now, proc: p})
}

func (e *refEngine) Run() { e.RunUntil(-1) }

func (e *refEngine) RunUntil(deadline time.Duration) {
	e.run(deadline, false)
	if deadline >= 0 && deadline > e.now {
		e.now = deadline
	}
}

// runWindow runs the events strictly before horizon and leaves Now at
// the last one, as a shard window does.
func (e *refEngine) runWindow(horizon time.Duration) { e.run(horizon, true) }

// run executes events up to deadline (< 0: no bound); with exclusive
// set, an event at exactly the deadline stays queued.
func (e *refEngine) run(deadline time.Duration, exclusive bool) {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.queue) > 0 && !e.stopped {
		if at := e.queue[0].at; deadline >= 0 && (at > deadline || exclusive && at == deadline) {
			break
		}
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.events++
		if ev.proc != nil {
			if !ev.proc.done {
				e.resume(ev.proc)
			}
			continue
		}
		ev.fn()
	}
	if e.stopped {
		e.unwind()
	}
}

func (e *refEngine) Shutdown() {
	e.stopped = true
	e.queue = nil
	if e.running {
		return
	}
	e.unwind()
}

// unwind resumes every live process, in proc-id order, so park observes
// stopped and panics with stopPanic.
func (e *refEngine) unwind() {
	live := make([]*refProc, 0, len(e.procs))
	for p := range e.procs {
		live = append(live, p)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for _, p := range live {
		if !p.done {
			e.resume(p)
		}
	}
}

// refShardGroup is the reference for ShardGroup: refEngines run one
// after another through the same exclusive-horizon windows, and the
// messages sent during a window are delivered after it in (arrival time,
// sending shard, emission index) order.
type refShardGroup struct {
	lookahead time.Duration
	shards    []*refEngine
	outbox    []refShardMsg
	emitted   []int
	windows   int64
	messages  int64
}

type refShardMsg struct {
	at       time.Duration
	from, to int
	idx      int
	fn       func()
}

// newRefShardGroup seeds shard i as NewShardGroup does.
func newRefShardGroup(seed int64, n int, lookahead time.Duration) *refShardGroup {
	g := &refShardGroup{lookahead: lookahead, emitted: make([]int, n)}
	for i := 0; i < n; i++ {
		g.shards = append(g.shards, newRefEngine(seed+int64(i)*1000003))
	}
	return g
}

func (g *refShardGroup) Shard(i int) *refEngine   { return g.shards[i] }
func (g *refShardGroup) Lookahead() time.Duration { return g.lookahead }
func (g *refShardGroup) Windows() int64           { return g.windows }
func (g *refShardGroup) Messages() int64          { return g.messages }

func (g *refShardGroup) Events() int64 {
	var n int64
	for _, e := range g.shards {
		n += e.events
	}
	return n
}

func (g *refShardGroup) Now() time.Duration {
	var t time.Duration
	for _, e := range g.shards {
		t = max(t, e.now)
	}
	return t
}

func (g *refShardGroup) Send(from, to int, delay time.Duration, fn func()) {
	if delay < g.lookahead {
		panic(fmt.Sprintf("sim: cross-shard delay %v below lookahead %v", delay, g.lookahead))
	}
	g.outbox = append(g.outbox, refShardMsg{at: g.shards[from].now + delay, from: from, to: to, idx: g.emitted[from], fn: fn})
	g.emitted[from]++
}

func (g *refShardGroup) deliver() {
	sort.Slice(g.outbox, func(a, b int) bool {
		x, y := g.outbox[a], g.outbox[b]
		if x.at != y.at {
			return x.at < y.at
		}
		if x.from != y.from {
			return x.from < y.from
		}
		return x.idx < y.idx
	})
	for _, m := range g.outbox {
		g.shards[m.to].push(&refEvent{at: m.at, fn: m.fn})
		g.messages++
	}
	g.outbox = g.outbox[:0]
}

// next returns the earliest queued event time across the shards.
func (g *refShardGroup) next() (time.Duration, bool) {
	var t time.Duration
	found := false
	for _, e := range g.shards {
		if len(e.queue) > 0 && (!found || e.queue[0].at < t) {
			t, found = e.queue[0].at, true
		}
	}
	return t, found
}

func (g *refShardGroup) window(horizon time.Duration) {
	g.windows++
	for _, e := range g.shards {
		e.runWindow(horizon)
	}
}

func (g *refShardGroup) Run() {
	for {
		g.deliver()
		t, ok := g.next()
		if !ok {
			return
		}
		g.window(t + g.lookahead)
	}
}

func (g *refShardGroup) RunUntil(deadline time.Duration) {
	for {
		g.deliver()
		t, ok := g.next()
		if !ok || t > deadline {
			break
		}
		g.window(min(t+g.lookahead, deadline+1))
	}
	g.deliver()
	for _, e := range g.shards {
		e.RunUntil(deadline)
	}
}

func (g *refShardGroup) Shutdown() {
	for _, e := range g.shards {
		e.Shutdown()
	}
}

type refResource struct {
	name      string
	capacity  int
	inUse     int
	queue     []*refResWaiter
	waitTotal time.Duration
	acquires  int
}

type refResWaiter struct {
	p     *refProc
	n     int
	since time.Duration
}

func newRefResource(name string, capacity int) *refResource {
	return &refResource{name: name, capacity: capacity}
}

func (r *refResource) InUse() int  { return r.inUse }
func (r *refResource) Queued() int { return len(r.queue) }

func (r *refResource) Acquire(p *refProc, n int) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d of resource %q (capacity %d)", n, r.name, r.capacity))
	}
	r.acquires++
	if len(r.queue) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	w := &refResWaiter{p: p, n: n, since: p.Now()}
	r.queue = append(r.queue, w)
	p.park()
	r.waitTotal += p.Now() - w.since
}

func (r *refResource) TryAcquire(n int) bool {
	if n <= 0 || n > r.capacity {
		return false
	}
	if len(r.queue) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return true
	}
	return false
}

func (r *refResource) Release(e *refEngine, n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("sim: release %d of resource %q (in use %d)", n, r.name, r.inUse))
	}
	r.inUse -= n
	for len(r.queue) > 0 {
		w := r.queue[0]
		if r.inUse+w.n > r.capacity {
			break
		}
		r.queue = r.queue[1:]
		r.inUse += w.n
		e.push(&refEvent{at: e.now, proc: w.p})
	}
}

func (r *refResource) MeanWait() time.Duration {
	if r.acquires == 0 {
		return 0
	}
	return r.waitTotal / time.Duration(r.acquires)
}
