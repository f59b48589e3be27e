package sim

import (
	"fmt"
	"time"
)

// Resource is a counted resource (e.g. physical CPU cores) with a FIFO
// wait queue. Acquire blocks the calling simulated process until the
// requested units are available, which is how CPU contention and
// overcommitment delays arise in the model.
type Resource struct {
	name     string
	capacity int
	inUse    int
	queue    []resWaiter // FIFO wait queue; queue[head:] are waiting
	head     int

	// contention accounting
	waitTotal time.Duration
	acquires  int
}

type resWaiter struct {
	p     *Proc
	n     int
	since time.Duration
}

// NewResource creates a resource with the given capacity (> 0).
func NewResource(name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity must be positive", name))
	}
	return &Resource{name: name, capacity: capacity}
}

// Name returns the resource's debug name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the total units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the currently held units.
func (r *Resource) InUse() int { return r.inUse }

// Queued returns the number of waiting processes.
func (r *Resource) Queued() int { return len(r.queue) - r.head }

// Acquire blocks p until n units are available, then holds them.
// n must be in [1, capacity].
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d of resource %q (capacity %d)", n, r.name, r.capacity))
	}
	r.acquires++
	if r.Queued() == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	since := p.Now()
	r.enqueue(resWaiter{p: p, n: n, since: since})
	p.Park()
	r.waitTotal += p.Now() - since
}

// enqueue appends a waiter without allocating in steady state: when the
// backing array is full and at least half of it lies before head, the
// live waiters move to the front instead of the array growing.
func (r *Resource) enqueue(w resWaiter) {
	if len(r.queue) == cap(r.queue) && r.head > 0 && r.head >= len(r.queue)/2 {
		n := copy(r.queue, r.queue[r.head:])
		clear(r.queue[n:])
		r.queue, r.head = r.queue[:n], 0
	}
	r.queue = append(r.queue, w)
}

// TryAcquire acquires n units without blocking; it reports success.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 || n > r.capacity {
		return false
	}
	if r.Queued() == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return true
	}
	return false
}

// Release returns n units and wakes queued waiters in FIFO order.
// It may be called from any simulated context.
func (r *Resource) Release(e *Engine, n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("sim: release %d of resource %q (in use %d)", n, r.name, r.inUse))
	}
	r.inUse -= n
	for r.Queued() > 0 {
		w := r.queue[r.head]
		if r.inUse+w.n > r.capacity {
			break
		}
		r.queue[r.head] = resWaiter{}
		r.head++
		if r.head == len(r.queue) {
			r.queue, r.head = r.queue[:0], 0
		}
		r.inUse += w.n
		e.push(e.newEvent(e.now, w.p, nil))
	}
}

// MeanWait returns the average queueing delay across completed Acquires.
func (r *Resource) MeanWait() time.Duration {
	if r.acquires == 0 {
		return 0
	}
	return r.waitTotal / time.Duration(r.acquires)
}
