package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ShardGroup advances several independent engines in lockstep windows of
// virtual time, exchanging cross-shard work as timestamped messages at
// deterministic synchronization horizons.
//
// The model is conservative parallel discrete-event simulation: each
// shard owns its own event heap, sequence counter, and seeded rng stream,
// so within a window [T, T+lookahead) every shard can run entirely
// independently — provided no message can arrive inside the window. That
// is guaranteed by construction: Send requires a delay of at least the
// group's lookahead, so a message emitted at any time t < T+lookahead
// lands at t+delay >= T+lookahead, i.e. at or beyond the horizon. The
// coordinator therefore runs each shard up to (exclusive of) the horizon,
// delivers the accumulated messages in a deterministic order — sorted by
// (arrival time, sending shard, emission index) — and opens the next
// window. A window in which only one shard has an event below the horizon
// runs on the coordinator's goroutine. Only a window with several such
// shards fans them out over worker goroutines, and the coordinator waits
// for all of them before it delivers.
//
// Because the logical schedule depends only on the per-shard event order
// and the sorted message delivery, it is invariant of how many OS worker
// goroutines execute the windows: Workers controls physical parallelism
// only, and a given seed produces byte-identical results at any worker
// count, including 1.
type ShardGroup struct {
	lookahead time.Duration
	shards    []*Engine
	outboxes  [][]shardMsg // one per shard; appended only by that shard's window
	emitted   []int        // per-shard running emission index (deterministic tiebreak)
	workers   int
	windows   int64
	messages  int64
}

// shardMsg is a timestamped cross-shard message: fn runs on shard to at
// virtual time at.
type shardMsg struct {
	at   time.Duration
	from int
	idx  int
	to   int
	fn   func()
}

// NewShardGroup creates n engines whose rng streams are derived from
// seed (shard i is seeded seed + i*1000003, a fixed odd stride so the
// per-shard streams are stable across releases). lookahead is the
// minimum cross-shard latency and must be positive; it bounds how far a
// window extends and therefore the minimum delay Send accepts.
func NewShardGroup(seed int64, n int, lookahead time.Duration) *ShardGroup {
	if n <= 0 {
		panic("sim: ShardGroup needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: ShardGroup lookahead must be positive")
	}
	g := &ShardGroup{
		lookahead: lookahead,
		shards:    make([]*Engine, n),
		outboxes:  make([][]shardMsg, n),
		emitted:   make([]int, n),
		workers:   1,
	}
	for i := range g.shards {
		g.shards[i] = NewEngine(seed + int64(i)*1000003)
	}
	return g
}

// SetWorkers sets how many OS goroutines may execute a shard window in
// parallel. A window starts no more of them than it has shards with an
// event below its horizon, and runs on the calling goroutine when it has
// one. It affects wall-clock speed only, never the schedule; values below
// 1 are clamped to 1.
func (g *ShardGroup) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	g.workers = n
}

// Workers returns the configured physical parallelism.
func (g *ShardGroup) Workers() int { return g.workers }

// Shards returns the number of shards.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns shard i's engine. Code running on shard i must only
// touch state owned by shard i; the only sanctioned cross-shard channel
// is Send.
func (g *ShardGroup) Shard(i int) *Engine { return g.shards[i] }

// Lookahead returns the conservative synchronization window width.
func (g *ShardGroup) Lookahead() time.Duration { return g.lookahead }

// Windows returns how many synchronization windows the group has run.
func (g *ShardGroup) Windows() int64 { return g.windows }

// Messages returns how many cross-shard messages have been delivered.
func (g *ShardGroup) Messages() int64 { return g.messages }

// Events returns the total events executed across all shards.
func (g *ShardGroup) Events() int64 {
	var n int64
	for _, e := range g.shards {
		n += e.Events()
	}
	return n
}

// Now returns the latest virtual time reached by any shard.
func (g *ShardGroup) Now() time.Duration {
	var t time.Duration
	for _, e := range g.shards {
		if e.Now() > t {
			t = e.Now()
		}
	}
	return t
}

// Send schedules fn to run on shard to after delay, measured from shard
// from's current virtual time. delay must be at least the group's
// lookahead — that is what keeps windows causally closed. Send must be
// called from code running on shard from (during its window, or between
// windows from the coordinator).
func (g *ShardGroup) Send(from, to int, delay time.Duration, fn func()) {
	if delay < g.lookahead {
		panic(fmt.Sprintf("sim: cross-shard delay %v below lookahead %v", delay, g.lookahead))
	}
	if to < 0 || to >= len(g.shards) {
		panic(fmt.Sprintf("sim: Send to unknown shard %d", to))
	}
	g.outboxes[from] = append(g.outboxes[from], shardMsg{
		at:   g.shards[from].Now() + delay,
		from: from,
		idx:  g.emitted[from],
		to:   to,
		fn:   fn,
	})
	g.emitted[from]++
}

// Run advances all shards in synchronization windows until every queue
// is empty and no messages are in flight.
func (g *ShardGroup) Run() {
	for {
		g.deliver()
		t, ok := g.nextEventTime()
		if !ok {
			return
		}
		g.runWindow(t + g.lookahead)
	}
}

// RunUntil advances all shards until every event with timestamp <=
// deadline has run, then advances each shard's clock to deadline.
// Cross-shard messages arriving after the deadline stay queued for a
// later Run or RunUntil.
func (g *ShardGroup) RunUntil(deadline time.Duration) {
	for {
		g.deliver()
		t, ok := g.nextEventTime()
		if !ok || t > deadline {
			break
		}
		// Clamp the window so no event beyond the deadline runs. The clamp
		// only ever tightens the bound below t+lookahead, so the causal
		// guarantee (messages land at or beyond the window end) still holds.
		horizon := t + g.lookahead
		if horizon > deadline+1 {
			horizon = deadline + 1
		}
		g.runWindow(horizon)
	}
	// Any messages emitted by the final window arrive strictly after the
	// deadline; park them in their target queues, then advance clocks.
	g.deliver()
	for _, e := range g.shards {
		e.RunUntil(deadline)
	}
}

// nextEventTime returns the earliest pending event time across shards.
func (g *ShardGroup) nextEventTime() (time.Duration, bool) {
	var min time.Duration
	found := false
	for _, e := range g.shards {
		if at, ok := e.nextEventAt(); ok && (!found || at < min) {
			min, found = at, true
		}
	}
	return min, found
}

// runWindow executes every shard's events strictly below horizon. It
// fans the shards over at most as many worker goroutines as there are
// shards with an event below the horizon, and waits for all of them; a
// window with one such shard runs on the calling goroutine.
func (g *ShardGroup) runWindow(horizon time.Duration) {
	g.windows++
	workers := g.workers
	if workers > 1 {
		workers = min(workers, g.activeShards(horizon))
	}
	if workers <= 1 {
		for _, e := range g.shards {
			e.runWindow(horizon)
		}
		return
	}
	n := len(g.shards)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				g.shards[i].runWindow(horizon)
			}
		}()
	}
	wg.Wait()
}

// activeShards counts the shards with an event strictly below horizon.
func (g *ShardGroup) activeShards(horizon time.Duration) int {
	active := 0
	for _, e := range g.shards {
		if at, ok := e.nextEventAt(); ok && at < horizon {
			active++
		}
	}
	return active
}

// deliver pushes all accumulated cross-shard messages into their target
// shards in deterministic (arrival time, sending shard, emission index)
// order, so downstream sequence numbers — and therefore the schedule —
// do not depend on which worker finished first.
func (g *ShardGroup) deliver() {
	var pending []shardMsg
	for i := range g.outboxes {
		pending = append(pending, g.outboxes[i]...)
		g.outboxes[i] = g.outboxes[i][:0]
	}
	if len(pending) == 0 {
		return
	}
	sort.Slice(pending, func(a, b int) bool {
		if pending[a].at != pending[b].at {
			return pending[a].at < pending[b].at
		}
		if pending[a].from != pending[b].from {
			return pending[a].from < pending[b].from
		}
		return pending[a].idx < pending[b].idx
	})
	for _, m := range pending {
		e := g.shards[m.to]
		e.push(e.newEvent(m.at, nil, m.fn))
		g.messages++
	}
}

// Shutdown shuts every shard down.
func (g *ShardGroup) Shutdown() {
	for _, e := range g.shards {
		e.Shutdown()
	}
}
