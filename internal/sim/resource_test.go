package sim

import (
	"testing"
	"time"
)

func TestResourceContentionQueues(t *testing.T) {
	e := NewEngine(1)
	cpu := NewResource("cpu", 2)
	var finished []time.Duration
	for i := 0; i < 4; i++ {
		e.Go("job", func(p *Proc) {
			cpu.Acquire(p, 1)
			p.Sleep(10 * time.Millisecond)
			cpu.Release(e, 1)
			finished = append(finished, p.Now())
		})
	}
	e.Run()
	if len(finished) != 4 {
		t.Fatalf("finished %d jobs, want 4", len(finished))
	}
	// 2 cores, 4 jobs of 10ms: two waves at 10ms and 20ms.
	want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond}
	for i := range want {
		if finished[i] != want[i] {
			t.Fatalf("finish times %v, want %v", finished, want)
		}
	}
	if cpu.InUse() != 0 {
		t.Fatalf("resource leaked: inUse=%d", cpu.InUse())
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEngine(1)
	r := NewResource("r", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(time.Duration(i)*time.Microsecond, "w", func(p *Proc) {
			r.Acquire(p, 1)
			order = append(order, i)
			p.Sleep(time.Millisecond)
			r.Release(e, 1)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("waiters served out of order: %v", order)
		}
	}
}

func TestResourceMultiUnitDoesNotStarve(t *testing.T) {
	e := NewEngine(1)
	r := NewResource("r", 4)
	var bigDone, smallDone time.Duration
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 3)
		p.Sleep(10 * time.Millisecond)
		r.Release(e, 3)
	})
	e.Go("big", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p, 4) // must wait for holder
		bigDone = p.Now()
		p.Sleep(time.Millisecond)
		r.Release(e, 4)
	})
	e.Go("small", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		r.Acquire(p, 1) // arrives after big; FIFO means it waits behind big
		smallDone = p.Now()
		r.Release(e, 1)
	})
	e.Run()
	if bigDone != 10*time.Millisecond {
		t.Fatalf("big acquired at %v, want 10ms", bigDone)
	}
	if smallDone < bigDone {
		t.Fatalf("small (%v) jumped the FIFO queue ahead of big (%v)", smallDone, bigDone)
	}
}

func TestTryAcquire(t *testing.T) {
	e := NewEngine(1)
	r := NewResource("r", 2)
	if !r.TryAcquire(2) {
		t.Fatal("TryAcquire(2) on empty resource failed")
	}
	if r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) on full resource succeeded")
	}
	r.Release(e, 2)
	if !r.TryAcquire(1) {
		t.Fatal("TryAcquire(1) after release failed")
	}
	if r.TryAcquire(0) || r.TryAcquire(3) {
		t.Fatal("TryAcquire accepted out-of-range n")
	}
}

func TestResourceMeanWait(t *testing.T) {
	e := NewEngine(1)
	r := NewResource("r", 1)
	e.Go("a", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(10 * time.Millisecond)
		r.Release(e, 1)
	})
	e.Go("b", func(p *Proc) {
		r.Acquire(p, 1) // waits 10ms
		r.Release(e, 1)
	})
	e.Run()
	if got := r.MeanWait(); got != 5*time.Millisecond {
		t.Fatalf("mean wait = %v, want 5ms (0 + 10ms over 2 acquires)", got)
	}
}

func TestResourceReleaseTooManyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	e := NewEngine(1)
	r := NewResource("r", 1)
	r.Release(e, 1)
}

// A contended resource keeps the hot loop allocation-free too: waiters
// queue by value and Release wakes them through the event freelist.
func TestContendedResourceAllocsPerEventCeiling(t *testing.T) {
	e := NewEngine(1)
	cpu := NewResource("cpu", 2)
	for i := 0; i < 5; i++ {
		e.Go("worker", func(p *Proc) {
			for {
				cpu.Acquire(p, 1)
				p.Sleep(time.Microsecond)
				cpu.Release(e, 1)
			}
		})
	}
	e.RunUntil(time.Millisecond) // warm the freelist, the heap and the wait queue
	if cpu.Queued() == 0 {
		t.Fatal("resource is not contended")
	}
	start := e.Events()
	allocs := testing.AllocsPerRun(1, func() {
		e.RunUntil(e.Now() + 5*time.Millisecond)
	})
	ran := e.Events() - start
	if ran < 1000 {
		t.Fatalf("measured window ran only %d events", ran)
	}
	perEvent := allocs / float64(ran)
	if perEvent > 0.01 {
		t.Fatalf("%.4f allocs/event, want pooled hot loop at <= 0.01", perEvent)
	}
	// The queue never empties here, so only compaction keeps its backing
	// array from growing with every waiter ever queued.
	if c := cap(cpu.queue); c > 16 {
		t.Fatalf("wait queue backing array grew to %d for at most 3 waiters", c)
	}
	e.Shutdown()
}
