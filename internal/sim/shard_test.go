package sim

import (
	"fmt"
	"testing"
	"time"
)

// pingPong builds a deterministic multi-shard workload: every shard runs
// a local ticker plus procs that bounce messages to the next shard with
// per-hop rng jitter, and records a schedule log. Returns the log.
func pingPong(workers int) []string {
	const shards = 4
	g := NewShardGroup(7, shards, time.Millisecond)
	g.SetWorkers(workers)
	logs := make([][]string, shards)
	var hop func(shard, hops int)
	hop = func(shard, hops int) {
		e := g.Shard(shard)
		logs[shard] = append(logs[shard], fmt.Sprintf("hop@%v on %d (hops=%d)", e.Now(), shard, hops))
		if hops == 0 {
			return
		}
		next := (shard + 1) % shards
		delay := time.Millisecond + time.Duration(e.Rand().Intn(5))*100*time.Microsecond
		g.Send(shard, next, delay, func() { hop(next, hops-1) })
	}
	for s := 0; s < shards; s++ {
		s := s
		e := g.Shard(s)
		e.Go("ticker", func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Sleep(time.Duration(100+p.Rand().Intn(300)) * time.Microsecond)
				logs[s] = append(logs[s], fmt.Sprintf("tick@%v on %d", p.Now(), s))
			}
		})
		e.After(time.Duration(s)*50*time.Microsecond, func() { hop(s, 12) })
	}
	g.Run()
	var all []string
	for s := 0; s < shards; s++ {
		all = append(all, logs[s]...)
	}
	all = append(all, fmt.Sprintf("events=%d messages=%d windows=%d now=%v",
		g.Events(), g.Messages(), g.Windows(), g.Now()))
	return all
}

// The logical schedule must be byte-identical at any worker count: the
// shards' event order and the sorted message delivery fully determine
// it, workers only change wall-clock execution.
func TestShardGroupInvariantOfWorkerCount(t *testing.T) {
	want := pingPong(1)
	if len(want) < 100 {
		t.Fatalf("workload too small to be meaningful: %d lines", len(want))
	}
	for _, workers := range []int{2, 4, 8} {
		got := pingPong(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d log lines, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: line %d = %q, want %q", workers, i, got[i], want[i])
			}
		}
	}
}

// Messages must arrive at sender-time + delay, never inside the sending
// window (conservative lookahead contract).
func TestShardGroupMessageTiming(t *testing.T) {
	g := NewShardGroup(1, 2, time.Millisecond)
	var arrived time.Duration
	g.Shard(0).After(3*time.Millisecond, func() {
		g.Send(0, 1, 2*time.Millisecond, func() {
			arrived = g.Shard(1).Now()
		})
	})
	g.Run()
	if arrived != 5*time.Millisecond {
		t.Fatalf("message arrived at %v, want 5ms", arrived)
	}
}

// Delays below the lookahead violate the window contract and must panic.
func TestShardGroupShortDelayPanics(t *testing.T) {
	g := NewShardGroup(1, 2, time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("Send below lookahead did not panic")
		}
	}()
	g.Send(0, 1, 500*time.Microsecond, func() {})
}

// Same-time cross-shard messages from different shards must be delivered
// in (arrival, sending shard, emission index) order regardless of the
// order windows finish.
func TestShardGroupDeliveryOrderDeterministic(t *testing.T) {
	run := func(workers int) []string {
		g := NewShardGroup(3, 3, time.Millisecond)
		g.SetWorkers(workers)
		var order []string
		for s := 0; s < 2; s++ {
			s := s
			g.Shard(s).After(time.Millisecond, func() {
				for i := 0; i < 3; i++ {
					i := i
					g.Send(s, 2, time.Millisecond, func() {
						order = append(order, fmt.Sprintf("from=%d idx=%d", s, i))
					})
				}
			})
		}
		g.Run()
		return order
	}
	want := run(1)
	if len(want) != 6 {
		t.Fatalf("got %d deliveries, want 6", len(want))
	}
	for _, w := range []int{2, 3} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: delivery %d = %q, want %q", w, i, got[i], want[i])
			}
		}
	}
}

// A single-shard group must behave exactly like a bare engine with the
// same seed: same event count, same rng draws, same clock.
func TestShardGroupSingleShardMatchesEngine(t *testing.T) {
	load := func(e *Engine) {
		e.Go("w", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(time.Duration(1+p.Rand().Intn(100)) * time.Microsecond)
			}
		})
	}
	ref := NewEngine(9)
	load(ref)
	ref.Run()

	g := NewShardGroup(9, 1, time.Millisecond)
	load(g.Shard(0))
	g.Run()

	if g.Events() != ref.Events() || g.Now() != ref.Now() {
		t.Fatalf("sharded(1): events=%d now=%v; engine: events=%d now=%v",
			g.Events(), g.Now(), ref.Events(), ref.Now())
	}
	if g.Shard(0).Rand().Int63() != ref.Rand().Int63() {
		t.Fatal("rng streams diverged between 1-shard group and bare engine")
	}
}

// RunUntil must advance every shard's clock to the deadline and leave
// strictly-later work pending.
func TestShardGroupRunUntil(t *testing.T) {
	g := NewShardGroup(5, 2, time.Millisecond)
	var late bool
	g.Shard(0).After(10*time.Millisecond, func() {})
	g.Shard(1).After(30*time.Millisecond, func() { late = true })
	g.RunUntil(20 * time.Millisecond)
	if late {
		t.Fatal("event after deadline ran")
	}
	for i := 0; i < 2; i++ {
		if g.Shard(i).Now() != 20*time.Millisecond {
			t.Fatalf("shard %d now = %v, want 20ms", i, g.Shard(i).Now())
		}
	}
	g.Run()
	if !late {
		t.Fatal("pending event did not run on final Run")
	}
}

// An event inside the final lookahead window but beyond the deadline
// must not run: the window bound is clamped to the deadline.
func TestShardGroupRunUntilClampsFinalWindow(t *testing.T) {
	g := NewShardGroup(5, 2, time.Millisecond)
	var atDeadline, past bool
	g.Shard(0).After(20*time.Millisecond, func() { atDeadline = true })
	g.Shard(0).After(20*time.Millisecond+500*time.Microsecond, func() { past = true })
	g.RunUntil(20 * time.Millisecond)
	if !atDeadline {
		t.Fatal("event exactly at deadline did not run")
	}
	if past {
		t.Fatal("event inside lookahead window but past deadline ran")
	}
}

// A window in which only one shard has an event below the horizon runs
// on the calling goroutine at any worker count: it starts no worker and
// waits at no barrier, so a warm window allocates nothing.
func TestShardGroupOneActiveShardWindowAllocatesNothing(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		g := NewShardGroup(1, 4, time.Millisecond)
		g.SetWorkers(workers)
		g.Shard(0).Go("sleeper", func(p *Proc) {
			for {
				p.Sleep(5 * time.Millisecond)
			}
		})
		var deadline time.Duration
		window := func() {
			deadline += 5 * time.Millisecond
			g.RunUntil(deadline)
		}
		for i := 0; i < 10; i++ {
			window()
		}
		before := g.Windows()
		allocs := testing.AllocsPerRun(100, window)
		if got := g.Windows() - before; got != 101 {
			t.Fatalf("workers=%d: %d windows in 101 runs, want one per run", workers, got)
		}
		if allocs != 0 {
			t.Fatalf("workers=%d: %.1f allocs per window, want 0", workers, allocs)
		}
		g.Shutdown()
	}
}

// A window with two active shards still fans out: each shard's callback
// signals its peer and then waits for the peer's signal, which only
// arrives if the two callbacks run on different goroutines at once.
func TestShardGroupTwoActiveShardsRunConcurrently(t *testing.T) {
	for _, workers := range []int{2, 4} {
		g := NewShardGroup(1, 4, time.Millisecond)
		g.SetWorkers(workers)
		active := [2]int{1, 3}
		signals := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
		var met [2]bool
		for k, s := range active {
			k := k
			g.Shard(s).After(time.Duration(k)*100*time.Microsecond, func() {
				signals[1-k] <- struct{}{}
				select {
				case <-signals[k]:
					met[k] = true
				case <-time.After(time.Second):
				}
			})
		}
		g.Run()
		if g.Windows() != 1 {
			t.Fatalf("workers=%d: %d windows, want both callbacks in one", workers, g.Windows())
		}
		for k, s := range active {
			if !met[k] {
				t.Fatalf("workers=%d: shard %d's callback never met its peer: the window ran its shards one after another", workers, s)
			}
		}
	}
}
