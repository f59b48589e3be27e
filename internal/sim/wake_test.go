package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// A wake-up at the instant of a queued event stays queued: the queued
// event has the smaller sequence number, so it runs first.
func TestSleepWakeTyingQueuedEventStaysQueued(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, "sleeper")
		p.Yield()
		order = append(order, "sleeper-yielded")
	})
	e.After(time.Millisecond, func() {
		order = append(order, "callback")
		e.After(0, func() { order = append(order, "callback-follow-up") })
	})
	e.Run()
	want := "callback sleeper callback-follow-up sleeper-yielded"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
	if e.Events() != 5 {
		t.Fatalf("Events() = %d, want 5", e.Events())
	}
}

// RunUntil's deadline is inclusive for an in-place wake-up as for a
// queued event: a wake-up exactly at the deadline carries on in place,
// and one just past it stays queued with Now left at the deadline.
func TestSleepWakeAtRunUntilDeadline(t *testing.T) {
	const deadline = time.Millisecond
	e := NewEngine(1)
	var woke []time.Duration
	e.Go("sleeper", func(p *Proc) {
		if !e.wakesNext(deadline) || e.wakesNext(deadline+1) {
			t.Errorf("wakesNext(deadline) = %v, wakesNext(deadline+1) = %v; want true, false",
				e.wakesNext(deadline), e.wakesNext(deadline+1))
		}
		p.Sleep(deadline)
		woke = append(woke, p.Now())
		p.Sleep(time.Nanosecond)
		woke = append(woke, p.Now())
	})
	e.RunUntil(deadline)
	if fmt.Sprint(woke) != "[1ms]" || e.Now() != deadline || e.Pending() != 1 || e.Events() != 2 {
		t.Fatalf("after RunUntil: woke %v, Now %v, Pending %d, Events %d; want [1ms], 1ms, 1, 2",
			woke, e.Now(), e.Pending(), e.Events())
	}
	e.Run()
	if fmt.Sprint(woke) != "[1ms 1.000001ms]" || e.Events() != 3 {
		t.Fatalf("after Run: woke %v, Events %d; want [1ms 1.000001ms], 3", woke, e.Events())
	}
}

// A wake-up that would exceed EventCap goes through the queue, so the
// loop panics with the cap's message before the body runs on.
func TestSleepWakePastEventCapPanicsInLoop(t *testing.T) {
	e := NewEngine(1)
	e.EventCap = 2
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Millisecond) // event 2: inside the cap
		p.Sleep(time.Millisecond) // event 3: over it
		t.Error("sleeper ran past the event cap")
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "event cap exceeded") {
			t.Errorf("panic %q, want the event cap's message", msg)
		}
		if e.Events() != 3 || e.Now() != 2*time.Millisecond {
			t.Errorf("Events %d, Now %v; want 3, 2ms", e.Events(), e.Now())
		}
		e.Shutdown()
	}()
	e.Run()
}

// A sleep whose wake-up time overflows virtual time goes through the
// queue, so the loop panics instead of moving Now backwards.
func TestSleepWakePastEndOfTimePanicsInLoop(t *testing.T) {
	e := NewEngine(1)
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Nanosecond)
		p.Sleep(math.MaxInt64)
		t.Error("sleeper ran past an overflowed wake-up")
	})
	defer func() {
		msg, _ := recover().(string)
		if msg != "sim: time went backwards" || e.Now() != time.Nanosecond {
			t.Errorf("panic %q, Now %v; want the loop's time-went-backwards panic at 1ns", msg, e.Now())
		}
		e.Shutdown()
	}()
	e.Run()
}

// A shard window's horizon is exclusive for an in-place wake-up as for a
// queued event. A sleeper waking exactly at the horizon while a peer's
// message lands at the same instant wakes first (its wake-up was queued
// before the message was delivered), and its same-instant follow-ups run
// after the message.
func TestSleepWakeAtShardHorizonStaysQueued(t *testing.T) {
	const lookahead = time.Millisecond
	for _, workers := range []int{1, 2} {
		g := NewShardGroup(1, 2, lookahead)
		g.SetWorkers(workers)
		e := g.Shard(0)
		var order []string
		e.Go("sleeper", func(p *Proc) {
			p.Sleep(lookahead) // the first window's horizon: 0 + lookahead
			order = append(order, fmt.Sprintf("sleeper@%v", p.Now()))
			e.After(0, func() { order = append(order, "follow-up") })
			p.Yield()
			order = append(order, "sleeper-yielded")
		})
		g.Shard(1).After(0, func() {
			g.Send(1, 0, lookahead, func() { order = append(order, fmt.Sprintf("message@%v", e.Now())) })
		})
		g.Run()
		want := "sleeper@1ms message@1ms follow-up sleeper-yielded"
		if got := strings.Join(order, " "); got != want {
			t.Fatalf("workers=%d: order %s, want %s", workers, got, want)
		}
		if g.Windows() != 2 {
			t.Fatalf("workers=%d: %d windows, want 2", workers, g.Windows())
		}
	}
}

// BenchmarkSleep measures one Sleep: inline, one sleeper whose every
// wake-up is the loop's next event and carries on in place; handoff, two
// interleaved sleepers whose every wake-up is queued, then popped by the
// other sleeper's runner as it parks, which passes control straight to
// the sleeper's runner in one goroutine switch.
func BenchmarkSleep(b *testing.B) {
	for _, bc := range []struct {
		name     string
		sleepers int
	}{{"inline", 1}, {"handoff", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngine(1)
			left := b.N
			for i := 0; i < bc.sleepers; i++ {
				e.Go("sleeper", func(p *Proc) {
					for left > 0 {
						left--
						p.Sleep(time.Microsecond)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}
