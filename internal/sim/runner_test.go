package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Live runners track in-flight processes, not trace length: arrivals that
// each finish before the next one starts share one runner.
func TestRunnersTrackInFlightProcesses(t *testing.T) {
	e := NewEngine(1)
	const arrivals = 1000
	peak, ran := 0, 0
	for i := 0; i < arrivals; i++ {
		e.At(time.Duration(i)*time.Millisecond, "arrival", func(p *Proc) {
			p.Sleep(100 * time.Microsecond)
			peak = max(peak, len(e.busy)+len(e.idle))
			ran++
		})
	}
	e.Run()
	if ran != arrivals {
		t.Fatalf("ran %d of %d arrivals", ran, arrivals)
	}
	if peak > 2 {
		t.Fatalf("%d sequential arrivals kept %d runners alive, want at most 2", arrivals, peak)
	}
	if n := len(e.busy) + len(e.idle); n != 0 {
		t.Fatalf("%d runners left after Run drained, want 0", n)
	}
}

// waitForGoroutines polls until the process's goroutine count is back at
// base: a stopped runner exits shortly after the engine lets it go.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want the baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunnerGoroutinesStopWhenRunDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	cpu := NewResource("cpu", 2)
	for i := 0; i < 50; i++ {
		e.At(time.Duration(i%5)*time.Millisecond, "job", func(p *Proc) {
			cpu.Acquire(p, 1)
			p.Sleep(time.Millisecond)
			cpu.Release(e, 1)
		})
	}
	e.Run()
	if n := len(e.busy) + len(e.idle); n != 0 {
		t.Fatalf("%d runners left after Run drained, want 0", n)
	}
	waitForGoroutines(t, base)
}

func TestRunnerGoroutinesStopAfterShutdown(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	cleanups := 0
	for i := 0; i < 20; i++ {
		e.Go("stuck", func(p *Proc) {
			defer func() { cleanups++ }()
			p.Park() // never resumed
		})
		e.Go("quick", func(p *Proc) { p.Sleep(time.Millisecond) })                // leaves an idle runner
		e.At(time.Hour, "never", func(p *Proc) { t.Error("ran after Shutdown") }) // never starts
	}
	e.RunUntil(time.Second)
	if len(e.busy) != 20 || len(e.idle) == 0 {
		t.Fatalf("before Shutdown: %d busy and %d idle runners, want 20 busy and some idle", len(e.busy), len(e.idle))
	}
	e.Shutdown()
	if cleanups != 20 {
		t.Fatalf("cleanups = %d, want 20", cleanups)
	}
	waitForGoroutines(t, base)
}

// A body that calls runtime.Goexit (t.Fatal inside a process does) retires
// its runner: the run goes on, and the next process gets a live runner.
func TestGoexitInBodyRetiresRunner(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	ran := false
	e.Go("quitter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		runtime.Goexit()
	})
	e.At(2*time.Millisecond, "next", func(p *Proc) { ran = true })
	done := make(chan struct{})
	go func() { e.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after a body called runtime.Goexit")
	}
	if !ran {
		t.Fatal("the process after the Goexit never ran")
	}
	waitForGoroutines(t, base)
}

// A panic a callback raises reaches Run's caller with the same value,
// whether the callback runs on the runner of a body that parked or of one
// that returned. Shutdown then unwinds the parked body and stops every
// runner.
func TestCallbackPanicReachesRunCaller(t *testing.T) {
	for _, park := range []bool{true, false} {
		base := runtime.NumGoroutine()
		e := NewEngine(1)
		boom := fmt.Errorf("boom (park %v)", park)
		unwound := false
		e.Go("scheduler", func(p *Proc) {
			defer func() { unwound = true }()
			e.After(time.Millisecond, func() { panic(boom) })
			if park {
				p.Park() // the callback runs on this body's runner
				t.Errorf("park %v: the body ran past its park", park)
			}
		})
		func() {
			defer func() {
				if v := recover(); v != boom {
					t.Errorf("park %v: Run's caller recovered %v, want %v", park, v, boom)
				}
			}()
			e.Run()
			t.Errorf("park %v: Run returned", park)
		}()
		if e.Now() != time.Millisecond || e.Events() != 2 {
			t.Errorf("park %v: Now %v, Events %d; want 1ms, 2", park, e.Now(), e.Events())
		}
		e.Shutdown()
		if !unwound {
			t.Errorf("park %v: the body's deferred cleanup did not run", park)
		}
		waitForGoroutines(t, base)
	}
}

// runtime.Goexit in a callback ends the goroutine that called Run, and
// the loop runs no further event. A parked body whose runner ran the
// callback unwinds with it, so no goroutine is left behind, and a later
// Shutdown finds no runner to stop.
func TestCallbackGoexitEndsRunCaller(t *testing.T) {
	for _, park := range []bool{true, false} {
		base := runtime.NumGoroutine()
		e := NewEngine(1)
		unwound, ranOn := false, false
		e.Go("scheduler", func(p *Proc) {
			defer func() { unwound = true }()
			e.After(time.Millisecond, runtime.Goexit)
			e.After(time.Millisecond, func() { ranOn = true })
			if park {
				p.Park() // the callback runs on this body's runner
				t.Errorf("park %v: the body ran past its park", park)
			}
		})
		returned := false
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			e.Run()
			returned = true
		}()
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			t.Fatalf("park %v: the goroutine that called Run did not exit", park)
		}
		if returned || ranOn || !unwound {
			t.Fatalf("park %v: Run returned %v, later callback ran %v, body unwound %v; want false, false, true",
				park, returned, ranOn, unwound)
		}
		if e.Now() != time.Millisecond || e.Events() != 2 || e.Pending() != 1 {
			t.Fatalf("park %v: Now %v, Events %d, Pending %d; want 1ms, 2, 1", park, e.Now(), e.Events(), e.Pending())
		}
		waitForGoroutines(t, base)
		e.Shutdown()
		waitForGoroutines(t, base)
	}
}

// Shutdown from inside a process unwinds the parked processes in proc-id
// order, so two same-seed runs record their cleanups identically.
func TestShutdownUnwindOrderIsDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine(3)
		var cleanups []string
		for i := 0; i < 64; i++ {
			e.At(time.Duration(e.Rand().Intn(5))*time.Millisecond, fmt.Sprintf("w%d", i), func(p *Proc) {
				defer func() { cleanups = append(cleanups, fmt.Sprintf("%s@%v", p.Name(), p.Now())) }()
				if p.Rand().Intn(2) == 0 {
					p.Park()
				} else {
					p.Sleep(time.Hour)
				}
			})
		}
		e.At(10*time.Millisecond, "killer", func(p *Proc) {
			defer func() { cleanups = append(cleanups, "killer") }()
			p.Engine().Shutdown()
			p.Sleep(time.Second) // unwound in turn with the others
		})
		e.Run()
		return cleanups
	}
	first := run()
	if len(first) != 65 {
		t.Fatalf("%d cleanups, want 65", len(first))
	}
	for i, c := range first[:64] {
		if want := fmt.Sprintf("w%d@10ms", i); c != want {
			t.Fatalf("cleanup %d is %s, want %s (proc-id order)", i, c, want)
		}
	}
	for i := 0; i < 3; i++ {
		if again := run(); fmt.Sprint(again) != fmt.Sprint(first) {
			t.Fatalf("run %d recorded cleanups %v, first run %v", i+2, again, first)
		}
	}
}
