package sim

import (
	"testing"
	"time"
)

// RunUntil's deadline is inclusive: an event scheduled exactly at the
// deadline must run, and only strictly-later events stay queued.
func TestRunUntilDeadlineEqualsHeadEvent(t *testing.T) {
	e := NewEngine(1)
	var ran []string
	e.After(10*time.Millisecond, func() { ran = append(ran, "at-deadline") })
	e.After(10*time.Millisecond+time.Nanosecond, func() { ran = append(ran, "after") })
	e.RunUntil(10 * time.Millisecond)
	if len(ran) != 1 || ran[0] != "at-deadline" {
		t.Fatalf("ran %v, want exactly the at-deadline event", ran)
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("now %v, want 10ms", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d, want 1 (the strictly-later event)", e.Pending())
	}
	e.Run()
	if len(ran) != 2 {
		t.Fatalf("ran %v, want both events after final Run", ran)
	}
}

// Shutdown called from inside a running proc must not deadlock: the run
// loop defers unwinding until the calling proc yields or returns, then
// unwinds every other parked proc.
func TestShutdownFromInsideRunningProc(t *testing.T) {
	e := NewEngine(1)
	var unwound, survived bool
	e.Go("bystander", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(time.Hour) // parked well past the shutdown point
		survived = true
	})
	e.Go("killer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Engine().Shutdown()
	})
	done := make(chan struct{})
	go func() { e.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after in-proc Shutdown (deadlock)")
	}
	if !unwound {
		t.Fatal("bystander proc was not unwound")
	}
	if survived {
		t.Fatal("bystander proc ran past its park after shutdown")
	}
}

// A proc that calls Shutdown and then sleeps or yields must itself be
// unwound: a stopped engine wakes nothing, in place or queued.
func TestShutdownFromInsideProcThenPark(t *testing.T) {
	for _, d := range []time.Duration{time.Second, 0} {
		e := NewEngine(1)
		var unwound bool
		e.Go("self-stopper", func(p *Proc) {
			defer func() { unwound = true }()
			p.Engine().Shutdown()
			p.Sleep(d) // must unwind via stopPanic, not run
			t.Errorf("Sleep(%v): proc ran past park after shutting the engine down", d)
		})
		done := make(chan struct{})
		go func() { e.Run(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("Sleep(%v): Run did not return after self-shutdown (deadlock)", d)
		}
		if !unwound || e.Now() != 0 || e.Events() != 1 {
			t.Fatalf("Sleep(%v): unwound %v, Now %v, Events %d; want true, 0, 1", d, unwound, e.Now(), e.Events())
		}
	}
}

// Pending must report zero after Shutdown drops the queue, whether the
// shutdown came from outside or from inside a proc.
func TestPendingAfterShutdown(t *testing.T) {
	e := NewEngine(1)
	e.After(time.Millisecond, func() {})
	e.After(time.Second, func() {})
	e.Go("sleeper", func(p *Proc) { p.Sleep(time.Minute) })
	e.Shutdown()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after external Shutdown, want 0", got)
	}

	e2 := NewEngine(2)
	e2.After(time.Second, func() {})
	e2.Go("stopper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Engine().Shutdown()
	})
	e2.Run()
	if got := e2.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after in-proc Shutdown, want 0", got)
	}
}

// The events counter and cap are int64 end-to-end; a cap larger than
// MaxInt32 must not wrap or trip early.
func TestEventCapInt64(t *testing.T) {
	e := NewEngine(1)
	e.EventCap = int64(1)<<33 + 5
	for i := 0; i < 100; i++ {
		e.After(time.Duration(i)*time.Millisecond, func() {})
	}
	e.Run()
	if e.Events() != 100 {
		t.Fatalf("Events() = %d, want 100", e.Events())
	}
}

// The freelist keeps the steady-state schedule loop allocation-free:
// self-rescheduling procs must stay under a small allocs-per-event
// ceiling once warmed up. Two tickers interleave, so each wake-up ties
// or follows the other's queued one and goes through the heap, the
// runner handoff and the freelist rather than carrying on in place.
func TestAllocsPerEventCeiling(t *testing.T) {
	e := NewEngine(1)
	const events = 30000
	var left = events
	for i := 0; i < 2; i++ {
		e.Go("ticker", func(p *Proc) {
			for left > 0 {
				left--
				p.Sleep(time.Microsecond)
			}
		})
	}
	e.RunUntil(time.Millisecond) // warm the freelist and the heap slice
	// ran counts the measured run's events, not those of AllocsPerRun's
	// warm-up run.
	var ran int64
	allocs := testing.AllocsPerRun(1, func() {
		start := e.Events()
		e.RunUntil(e.Now() + 5*time.Millisecond)
		ran = e.Events() - start
	})
	if ran < 1000 {
		t.Fatalf("measured window ran only %d events", ran)
	}
	perEvent := allocs / float64(ran)
	if perEvent > 0.01 {
		t.Fatalf("%.4f allocs/event, want pooled hot loop at <= 0.01", perEvent)
	}
}
