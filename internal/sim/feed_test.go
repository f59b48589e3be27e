package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// An arrival feed keeps one arrival queued and counts the rest in
// Pending; unsorted times run in (time, index) order.
func TestAtEachQueuesOneArrivalAtATime(t *testing.T) {
	e := NewEngine(1)
	times := []time.Duration{3, 1, 2, 1, 0}
	var ran []string
	e.AtEach("arrival", len(times),
		func(i int) time.Duration { return times[i] * time.Millisecond },
		func(p *Proc, i int) { ran = append(ran, fmt.Sprintf("%d@%v", i, p.Now())) })
	if len(e.queue) != 1 || e.Pending() != len(times) {
		t.Fatalf("queued %d events, Pending %d; want 1 and %d", len(e.queue), e.Pending(), len(times))
	}
	e.Run()
	want := "4@0s 1@1ms 3@1ms 2@2ms 0@3ms"
	if got := strings.Join(ran, " "); got != want {
		t.Fatalf("arrivals ran %s, want %s", got, want)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after the run, want 0", e.Pending())
	}
}

// A feed with a time before Now panics with At's message and schedules
// none of its arrivals.
func TestAtEachRejectsThePastBeforeScheduling(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(time.Second)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "is before now") {
			t.Fatalf("panic %q, want At's before-now message", msg)
		}
		if e.Pending() != 0 {
			t.Fatalf("Pending() = %d after the panic, want 0", e.Pending())
		}
	}()
	e.AtEach("arrival", 3,
		func(i int) time.Duration { return time.Duration(2-i) * time.Second },
		func(p *Proc, i int) { t.Error("arrival ran") })
}

// Shutdown drops a feed's unreleased arrivals, and a stopped engine
// accepts no feed.
func TestAtEachAfterShutdown(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	at := func(i int) time.Duration { return time.Duration(i) * time.Millisecond }
	body := func(p *Proc, i int) { ran++ }
	e.AtEach("arrival", 10, at, body)
	e.RunUntil(3 * time.Millisecond)
	e.Shutdown()
	e.AtEach("arrival", 10, func(i int) time.Duration { return e.Now() + at(i) }, body)
	e.Run()
	if ran != 4 || e.Pending() != 0 {
		t.Fatalf("ran %d arrivals, Pending %d; want 4 and 0", ran, e.Pending())
	}
}

// BenchmarkAtEach feeds a trace-sized run through the event loop: 6,000
// arrivals 10 ms apart, each sleeping twice for 150 ms in all, so the
// queue holds about fifteen processes and one arrival. It reports the
// allocations per arrival in allocs/arrival.
func BenchmarkAtEach(b *testing.B) {
	const arrivals = 6000
	at := func(i int) time.Duration { return time.Duration(i) * 10 * time.Millisecond }
	body := func(p *Proc, i int) {
		p.Sleep(100 * time.Millisecond)
		p.Sleep(50 * time.Millisecond)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		e.AtEach("arrival", arrivals, at, body)
		e.Run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*arrivals), "allocs/arrival")
}
