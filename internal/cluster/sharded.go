package cluster

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/faas"
	"repro/internal/mem"
	"repro/internal/mmtemplate"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// SpillDelay is the cross-rack dispatch-forwarding latency of the
// sharded fleet — the RPC hop plus fabric queueing that a request pays
// when its home rack is saturated and it re-dispatches elsewhere. It is
// also the shard group's conservative lookahead: no rack can influence
// another in less virtual time than this, which is what lets the racks'
// event loops run in parallel between synchronization horizons.
const SpillDelay = 200 * time.Microsecond

// ShardedConfig sizes a ShardedFleet.
type ShardedConfig struct {
	// Racks is the number of shards; each rack is a full Cluster (own
	// CXL pool, snapshot store, nodes, breakers, hedger) plus a fabric
	// window, on its own simulation engine.
	Racks int
	// NodesPerRack sizes each rack.
	NodesPerRack int
	// TraceCap, when > 0, attaches one span tracer per rack with this
	// ring capacity; Spans() merges them deterministically.
	TraceCap int
	// Workers is the most OS goroutines executing a rack window in
	// parallel (0 or 1 = sequential). A window starts no more of them
	// than it has racks with an event below its horizon, and runs on the
	// calling goroutine when only one rack has work. Workers changes
	// wall-clock speed only — the schedule, and therefore every exported
	// artifact, is byte-identical at any worker count.
	Workers int
}

// ShardedFleet is the multi-rack topology of §8.2. Each function's
// consolidated image lives once, in its home rack's CXL pool; every other
// rack reaches the same bytes through a read-only window over the
// inter-rack RDMA fabric, so home-rack instances get direct reads and
// spilled instances pay lazy fabric fetches.
//
// Racks are independently-advancing event queues (one sim.Engine each,
// own heap, sequence counter, and rng stream) coordinated by a
// sim.ShardGroup, and the only cross-rack coupling — spillover dispatch
// from a saturated home rack — travels as a timestamped message
// delivered at a deterministic synchronization horizon. Two choices keep
// the shards causally closed. Each rack's fabric window (an RDMA pool and
// snapshot store) is owned by that rack's shard: checkpointed pages are
// immutable, so a fabric read never touches the home rack's state, and
// fabric contention is modelled locally. Spillover targets are chosen
// blindly by per-home-rack round robin, since reading another rack's
// load would couple two shards below the lookahead. Hedging, crash
// re-dispatch, and breaker routing all stay intra-rack.
type ShardedFleet struct {
	group    *sim.ShardGroup
	racks    []*Cluster
	fabric   []*snapshot.Store // rack i's window onto images homed elsewhere
	tracers  []*obs.Tracer
	homes    map[string]int
	regOrder int
	seed     int64

	// Per-rack state written only by that rack's shard (single-writer,
	// race-free under parallel windows); summed after the run.
	spillsFrom []int64
	spillRR    []int
}

// NewShardedFleet builds sc.Racks racks of sc.NodesPerRack nodes. cfg
// must use TrEnvCXL (each rack is a Cluster); cfg.Engine must be nil —
// the fleet derives one engine per rack from cfg.Seed.
func NewShardedFleet(sc ShardedConfig, cfg faas.Config) (*ShardedFleet, error) {
	if sc.Racks <= 0 || sc.NodesPerRack <= 0 {
		return nil, fmt.Errorf("cluster: need positive rack/node counts, got %d x %d", sc.Racks, sc.NodesPerRack)
	}
	if cfg.Engine != nil {
		return nil, fmt.Errorf("cluster: sharded fleet owns its engines; cfg.Engine must be nil")
	}
	f := &ShardedFleet{
		group:      sim.NewShardGroup(cfg.Seed, sc.Racks, SpillDelay),
		homes:      make(map[string]int),
		seed:       cfg.Seed,
		spillsFrom: make([]int64, sc.Racks),
		spillRR:    make([]int, sc.Racks),
	}
	f.group.SetWorkers(sc.Workers)
	for ri := 0; ri < sc.Racks; ri++ {
		rackCfg := cfg
		rackCfg.Engine = f.group.Shard(ri)
		rackCfg.Node = fmt.Sprintf("r%d", ri) // prefix: nodes become r<ri>n<j>
		if sc.TraceCap > 0 {
			tr := obs.NewTracer(sc.TraceCap)
			rackCfg.Tracer = tr
			f.tracers = append(f.tracers, tr)
		}
		rack, err := New(sc.NodesPerRack, rackCfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: rack %d: %w", ri, err)
		}
		f.racks = append(f.racks, rack)
		// A window, not a copy: pages preprocessed here stand for the
		// home rack's CXL bytes and count against no pool capacity.
		window := mem.NewPool(mem.RDMA, 0, rack.Pool().Latency())
		window.SetHome("fabric")
		f.fabric = append(f.fabric, snapshot.NewStore(mem.NewBlockStore(window), mmtemplate.NewRegistry()))
	}
	return f, nil
}

// Group returns the shard coordinator.
func (f *ShardedFleet) Group() *sim.ShardGroup { return f.group }

// Racks returns the per-rack clusters (shard order).
func (f *ShardedFleet) Racks() []*Cluster { return f.racks }

// Seed returns the fleet's base seed (rack i's engine derives from it).
func (f *ShardedFleet) Seed() int64 { return f.seed }

// Register homes a function on a rack in registration round-robin
// order — a pure function of registration sequence, so homing never
// depends on map iteration. The home rack holds the one consolidated CXL
// copy; every other rack's nodes attach to the image through that rack's
// fabric window.
func (f *ShardedFleet) Register(prof workload.FunctionProfile) error {
	if _, ok := f.homes[prof.Name]; ok {
		return fmt.Errorf("cluster: function %q already registered", prof.Name)
	}
	home := f.regOrder % len(f.racks)
	if err := f.racks[home].Register(prof); err != nil {
		return fmt.Errorf("cluster: rack %d: %w", home, err)
	}
	for ri, rack := range f.racks {
		if ri == home {
			continue
		}
		window := f.fabric[ri]
		img, err := window.Preprocess(prof.Snapshot(), snapshot.Placement{Hot: window.Blocks().Pool(), HotFraction: 1})
		if err != nil {
			return fmt.Errorf("cluster: rack %d fabric: %w", ri, err)
		}
		for _, node := range rack.nodes {
			if err := node.RegisterWithImage(prof, img); err != nil {
				return fmt.Errorf("cluster: rack %d: %w", ri, err)
			}
		}
	}
	f.homes[prof.Name] = home
	f.regOrder++
	return nil
}

// Home returns the rack a function's dispatch is homed on.
func (f *ShardedFleet) Home(fn string) int { return f.homes[fn] }

// dispatchOn places fn on rack ri, or spills it. The decision reads only
// rack ri's state: if the node pick chooses holds a warm instance or an
// idle core, dispatch there; otherwise forward to the next rack in ri's
// round-robin rotation after the fabric delay. pick takes a warm
// candidate first and otherwise the least-loaded one, and every node of
// a rack has the same cores, so its one choice has room whenever any
// candidate has. Spilled arrivals always dispatch locally at the target
// — one hop, no ping-pong.
func (f *ShardedFleet) dispatchOn(ri int, p *sim.Proc, fn string) {
	rack := f.racks[ri]
	node := rack.pick(fn)
	if n := rack.nodes[node]; len(f.racks) == 1 || n.HasWarm(fn) || n.Active() < n.Cores() {
		rack.hedge.dispatch(p, fn, "rack", node)
		return
	}
	f.spillsFrom[ri]++
	target := f.nextSpillTarget(ri)
	f.group.Send(ri, target, SpillDelay, func() {
		f.group.Shard(target).Go("spill/"+fn, func(p2 *sim.Proc) {
			to := f.racks[target]
			to.hedge.dispatch(p2, fn, "fleet-spill", to.pick(fn))
		})
	})
}

// nextSpillTarget rotates rack ri's private round-robin cursor over the
// other racks, in rack order after ri: from rack 0 of 4 the targets run
// 1, 2, 3, 1, …, never 0. It needs at least two racks; dispatchOn never
// spills from a one-rack fleet. Blind by design: reading another shard's
// load during a window would break causal closure, so the fleet trades
// placement quality for parallelism on the spill path.
func (f *ShardedFleet) nextSpillTarget(ri int) int {
	n := len(f.racks)
	f.spillRR[ri] = f.spillRR[ri]%(n-1) + 1
	return (ri + f.spillRR[ri]) % n
}

// RunTrace splits tr by home rack, in trace order, and feeds each
// rack's share to its shard one queued arrival at a time
// (sim.Engine.AtEach); placement, and a possible spill, is decided when
// an arrival comes due, on its home rack's shard. Then it advances every
// rack in synchronization windows to completion. It panics on a function
// that was never registered, before it schedules anything. Unlike
// Cluster, the sharded fleet has no recorder pump: sampling one registry
// across concurrently-advancing shards would need a global clock inside
// windows. Gather metrics after the run instead.
func (f *ShardedFleet) RunTrace(tr workload.Trace) {
	shares := make([]workload.Trace, len(f.racks))
	for _, inv := range tr {
		home, ok := f.homes[inv.Function]
		if !ok {
			panic(fmt.Sprintf("cluster: invoke of unregistered function %q", inv.Function))
		}
		shares[home] = append(shares[home], inv)
	}
	for ri, share := range shares {
		f.group.Shard(ri).AtEach("dispatch", len(share),
			func(i int) time.Duration { return share[i].At },
			func(p *sim.Proc, i int) { f.dispatchOn(ri, p, share[i].Function) })
	}
	f.group.Run()
}

// Spillovers counts invocations forwarded off their home rack.
func (f *ShardedFleet) Spillovers() int64 {
	var n int64
	for _, s := range f.spillsFrom {
		n += s
	}
	return n
}

// Invocations sums recorded invocations across all racks.
func (f *ShardedFleet) Invocations() int {
	n := 0
	for _, rack := range f.racks {
		n += rack.Invocations()
	}
	return n
}

// Dispatched sums primary dispatches across the racks' hedgers.
func (f *ShardedFleet) Dispatched() int64 {
	var n int64
	for _, rack := range f.racks {
		n += rack.Dispatched()
	}
	return n
}

// Wedged sums the racks' no-loss balances; zero after RunTrace means no
// attempt was lost anywhere in the fleet.
func (f *ShardedFleet) Wedged() int64 {
	var n int64
	for _, rack := range f.racks {
		n += rack.Wedged()
	}
	return n
}

// Events sums executed events across every shard.
func (f *ShardedFleet) Events() int64 { return f.group.Events() }

// Spans merges the racks' span rings into one virtual-time-ordered
// list: concatenate in rack order (deterministic), then stable-sort by
// start time, so the result is a pure function of the logical schedule
// and identical at any worker count.
func (f *ShardedFleet) Spans() []*obs.Span {
	var all []*obs.Span
	for _, tr := range f.tracers {
		all = append(all, tr.Spans()...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// RegisterMetrics publishes the fleet into reg: every node under
// rack/node labels, each rack's pool, registry, breakers, and hedger
// under its rack label, each rack's fabric window under
// scope="fabric", per-rack spill counters, fleet-wide trenv_cluster_*
// aggregates, and the shard coordinator's window and message counters
// under scope="shard".
func (f *ShardedFleet) RegisterMetrics(reg *obs.Registry) {
	var nodes []*faas.Platform
	for ri, rack := range f.racks {
		rackName := fmt.Sprintf("r%d", ri)
		for _, node := range rack.nodes {
			node.RegisterMetricsLabeled(reg, map[string]string{"rack": rackName, "node": node.NodeName()})
		}
		rackLabels := map[string]string{"scope": "rack", "rack": rackName}
		rack.cxl.RegisterMetricsLabeled(reg, rackLabels)
		rack.store.Registry().RegisterMetrics(reg, rackLabels)
		fabricLabels := map[string]string{"scope": "fabric", "rack": rackName}
		f.fabric[ri].Blocks().Pool().RegisterMetricsLabeled(reg, fabricLabels)
		f.fabric[ri].Registry().RegisterMetrics(reg, fabricLabels)
		registerBreakers(reg, rack.breakers, func(i int) string { return rack.nodes[i].NodeName() })
		registerHedger(reg, rack.hedge, map[string]string{"rack": rackName})
		ri := ri
		reg.CounterFunc("trenv_rack_spillovers_total", "Invocations forwarded off this home rack.",
			map[string]string{"rack": rackName}, func() int64 { return f.spillsFrom[ri] })
		nodes = append(nodes, rack.nodes...)
	}
	alive := func() float64 {
		n := 0
		for _, rack := range f.racks {
			n += len(rack.AliveNodes())
		}
		return float64(n)
	}
	registerFleetAggregates(reg, nodes, alive)
	reg.CounterFunc("trenv_cluster_spillovers_total", "Invocations dispatched off their home rack.", nil,
		f.Spillovers)
	shard := map[string]string{"scope": "shard"}
	reg.CounterFunc("trenv_shard_windows_total", "Synchronization windows the shard group has run.", shard,
		f.group.Windows)
	reg.CounterFunc("trenv_shard_messages_total", "Cross-shard messages delivered at horizons.", shard,
		f.group.Messages)
	reg.GaugeFunc("trenv_shard_lookahead_seconds", "Conservative lookahead (= spill delay) in seconds.", shard,
		f.group.Lookahead().Seconds)
}
