package sim

import (
	"testing"
	"time"
)

func TestEngineSleepAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var woke time.Duration
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		woke = p.Now()
	})
	e.Run()
	if woke != 10*time.Millisecond {
		t.Fatalf("woke at %v, want 10ms", woke)
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("engine now %v, want 10ms", e.Now())
	}
}

func TestEngineOrderingIsDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		var order []string
		e.At(5*time.Millisecond, "b", func(p *Proc) { order = append(order, "b") })
		e.At(1*time.Millisecond, "a", func(p *Proc) { order = append(order, "a") })
		e.At(5*time.Millisecond, "c", func(p *Proc) { order = append(order, "c") })
		e.Go("d", func(p *Proc) {
			order = append(order, "d0")
			p.Sleep(2 * time.Millisecond)
			order = append(order, "d2")
		})
		e.Run()
		return order
	}
	want := []string{"d0", "a", "d2", "b", "c"}
	for i := 0; i < 5; i++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("run %d: got %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("run %d: got %v, want %v", i, got, want)
			}
		}
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, "p", func(p *Proc) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestEngineAfterCallback(t *testing.T) {
	e := NewEngine(1)
	fired := time.Duration(-1)
	e.After(7*time.Millisecond, func() { fired = e.Now() })
	e.Run()
	if fired != 7*time.Millisecond {
		t.Fatalf("callback fired at %v", fired)
	}
}

func TestRunUntilStopsAndAdvances(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Second)
			count++
		}
	})
	e.RunUntil(10 * time.Second)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("now = %v, want 10s", e.Now())
	}
	// Remaining events still runnable.
	e.RunUntil(15 * time.Second)
	if count != 15 {
		t.Fatalf("count = %d after second window, want 15", count)
	}
}

func TestRunUntilAdvancesPastLastEvent(t *testing.T) {
	e := NewEngine(1)
	e.Go("quick", func(p *Proc) { p.Sleep(time.Millisecond) })
	e.RunUntil(time.Hour)
	if e.Now() != time.Hour {
		t.Fatalf("now = %v, want 1h", e.Now())
	}
}

func TestShutdownUnwindsParkedProcs(t *testing.T) {
	e := NewEngine(1)
	cleanups := 0
	for i := 0; i < 4; i++ {
		e.Go("stuck", func(p *Proc) {
			defer func() { cleanups++ }()
			p.Park() // never resumed
		})
	}
	e.RunUntil(time.Second)
	e.Shutdown()
	if cleanups != 4 {
		t.Fatalf("cleanups = %d, want 4 (deferred funcs must run on shutdown)", cleanups)
	}
}

func TestYieldLetsSameTimeEventsRun(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Go("first", func(p *Proc) {
		order = append(order, "first-a")
		p.Yield()
		order = append(order, "first-b")
	})
	e.Go("second", func(p *Proc) { order = append(order, "second") })
	e.Run()
	want := []string{"first-a", "second", "first-b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewEngine(7).Rand().Int63()
	b := NewEngine(7).Rand().Int63()
	if a != b {
		t.Fatalf("same seed produced different values: %d vs %d", a, b)
	}
	c := NewEngine(8).Rand().Int63()
	if a == c {
		t.Fatalf("different seeds produced identical first value")
	}
}

func TestAtInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Go("p", func(p *Proc) {
		p.Sleep(time.Second)
		defer func() {
			if recover() == nil {
				t.Errorf("At in the past did not panic")
			}
		}()
		e.At(0, "bad", func(p *Proc) {})
	})
	e.Run()
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine(1)
	e.Go("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Errorf("negative sleep did not panic")
			}
		}()
		p.Sleep(-time.Second)
	})
	e.Run()
}

func TestEngineEventsCounter(t *testing.T) {
	e := NewEngine(1)
	if e.Events() != 0 {
		t.Fatalf("fresh engine reports %d events, want 0", e.Events())
	}
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Millisecond) // spawn event + wake event
	})
	e.After(2*time.Millisecond, func() {}) // one callback event
	e.Run()
	// spawn resume, sleep wake, callback = 3 executed events.
	if got := e.Events(); got != 3 {
		t.Fatalf("Events() = %d, want 3", got)
	}
	// Same-seed rerun executes the identical count: the counter is a
	// pure function of the deterministic schedule.
	e2 := NewEngine(1)
	e2.Go("sleeper", func(p *Proc) { p.Sleep(time.Millisecond) })
	e2.After(2*time.Millisecond, func() {})
	e2.Run()
	if e2.Events() != e.Events() {
		t.Fatalf("same-seed event counts differ: %d vs %d", e2.Events(), e.Events())
	}
}
