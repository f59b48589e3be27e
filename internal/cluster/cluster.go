// Package cluster composes multiple faas nodes around one shared CXL
// memory pool — the paper's rack-level deployment (§8.2): a consolidated
// image and its mm-templates exist once per rack, because pool offsets
// are machine independent, and every node's instances attach to the same
// read-only pages.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/alert"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mmtemplate"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// Cluster is a rack of nodes sharing one CXL pool.
type Cluster struct {
	eng   *sim.Engine
	cxl   *mem.Pool
	store *snapshot.Store
	nodes []*faas.Platform
	down  []bool // by node index

	// Per-node circuit breakers over pool-fetch failure rate: pick
	// routes around open breakers the way it routes around dead nodes.
	breakers []*fault.Breaker
	chaos    *fault.Injector

	// hedge owns dispatch, hedging/cloning within this rack, crash
	// re-dispatch, and the no-loss accounting.
	hedge *hedger

	// resultHook, when non-nil, observes every node's terminal outcomes
	// (experiments use it for availability bucketing). See
	// hedger.settle for the delivery contract under hedging.
	resultHook func(node int, r faas.InvocationResult)

	recorder *obs.Recorder
	recEvery time.Duration
	alerts   *alert.Engine
	seed     int64
}

// maxNodes caps a rack so that one word holds any set of its nodes
// (nodeSet).
const maxNodes = 64

// nodeSet is a set of node indices within one rack.
type nodeSet uint64

func (s nodeSet) has(i int) bool     { return s&(1<<i) != 0 }
func (s nodeSet) with(i int) nodeSet { return s | 1<<i }

// New builds a cluster of n nodes, at most 64. Each node gets cfg's
// policy and sizing; the CXL pool, block store, and template registry
// are shared. Only TrEnv-CXL makes sense rack-wide (the point of the
// experiment); other policies are rejected.
func New(n int, cfg faas.Config) (*Cluster, error) {
	if n <= 0 || n > maxNodes {
		return nil, fmt.Errorf("cluster: need 1 to %d nodes, got %d", maxNodes, n)
	}
	if cfg.Policy != faas.PolicyTrEnvCXL {
		return nil, fmt.Errorf("cluster: rack sharing requires trenv-cxl, got %q", cfg.Policy)
	}
	eng := cfg.Engine
	if eng == nil {
		eng = sim.NewEngine(cfg.Seed)
	}
	lat := mem.DefaultLatencyModel()
	if cfg.Latency != nil {
		lat = *cfg.Latency // the same model every node prices its pools with
	}
	cxl := mem.NewPool(mem.CXL, 0, lat)
	// The shared pool lives on the rack's memory server, not on any
	// compute node — remote-fetch spans report it as their home.
	cxl.SetHome("mem0")
	store := snapshot.NewStore(mem.NewBlockStore(cxl), mmtemplate.NewRegistry())
	c := &Cluster{eng: eng, cxl: cxl, store: store, down: make([]bool, n), seed: cfg.Seed}
	for i := 0; i < n; i++ {
		nodeCfg := cfg
		nodeCfg.Engine = eng
		nodeCfg.SharedStore = store
		// cfg.Node acts as a rack prefix ("" keeps the classic n0..nN
		// names; the sharded fleet passes "r2" to get "r2n0"...).
		nodeCfg.Node = fmt.Sprintf("%sn%d", cfg.Node, i)
		c.nodes = append(c.nodes, faas.New(nodeCfg))
		c.breakers = append(c.breakers, fault.NewBreaker(fault.DefaultBreakerConfig(), eng.Now))
	}
	c.hedge = newHedger(c)
	return c, nil
}

// SetHedgePolicy arms request hedging/cloning for every invocation
// dispatched after the call; the policy's deadline (when set) pushes
// onto every node. Set before RunTrace.
func (c *Cluster) SetHedgePolicy(hp HedgePolicy) {
	c.hedge.policy = hp
	applyDeadline(c.nodes, hp)
}

// HedgePolicy returns the armed policy (zero value = off).
func (c *Cluster) HedgePolicy() HedgePolicy { return c.hedge.policy }

// SetSettleHook observes each invocation's settling outcome with its
// logical end-to-end latency (dispatch → first real terminal, hedge
// delays and re-dispatches included). Set before RunTrace.
func (c *Cluster) SetSettleHook(fn func(fn string, latency time.Duration, r faas.InvocationResult)) {
	c.hedge.onSettle = fn
}

// SetResultHook observes every invocation's terminal outcome with its
// node index. Set before RunTrace.
func (c *Cluster) SetResultHook(fn func(node int, r faas.InvocationResult)) {
	c.resultHook = fn
}

// Dispatched counts invocations handed to a node (excluding re-dispatch
// and hedge attempts).
func (c *Cluster) Dispatched() int64 { return c.hedge.dispatched.Value() }

// Results counts non-cancelled terminal outcomes observed.
func (c *Cluster) Results() int64 { return c.hedge.results.Value() }

// Redispatched counts crash-aborted invocations re-dispatched to survivors.
func (c *Cluster) Redispatched() int64 { return c.hedge.redispatched.Value() }

// Hedged counts hedge/clone attempts launched beyond primary dispatches.
func (c *Cluster) Hedged() int64 { return c.hedge.hedged.Value() }

// HedgeWins counts races settled by a non-primary attempt.
func (c *Cluster) HedgeWins() int64 { return c.hedge.hedgeWins.Value() }

// HedgeSkips counts hedge triggers dropped because no healthy distinct
// target node existed (graceful degradation to unhedged dispatch).
func (c *Cluster) HedgeSkips() int64 { return c.hedge.hedgeSkips.Value() }

// Cancelled counts losing attempts cooperatively cancelled after their
// race settled.
func (c *Cluster) Cancelled() int64 { return c.hedge.cancelled.Value() }

// RedispatchExhausted counts invocations abandoned after spending the
// crash re-dispatch budget.
func (c *Cluster) RedispatchExhausted() int64 { return c.hedge.exhausted.Value() }

// Wedged returns the attempts that never reached a terminal outcome:
// dispatched + redispatched + hedged − results − cancelled. After
// RunTrace drains, any recovery scheme worth the name leaves this at
// zero — with hedging on, every extra attempt must terminate too.
func (c *Cluster) Wedged() int64 { return c.hedge.wedged() }

// Breakers exposes the per-node circuit breakers (node order).
func (c *Cluster) Breakers() []*fault.Breaker { return c.breakers }

// AttachChaos points every node's pools (and the shared CXL pool) at the
// injector, wires node-crash events to KillNode, and arms the schedule.
// Attach before RunTrace.
func (c *Cluster) AttachChaos(inj *fault.Injector) {
	c.chaos = inj
	c.cxl.SetFaultAgent(inj, c.eng.Now)
	for _, node := range c.nodes {
		node.AttachFaults(inj)
	}
	inj.OnNodeCrash(func(name string) {
		for i, node := range c.nodes {
			if node.NodeName() == name {
				// Last-node and double-kill guards apply; a crash the
				// guards reject is dropped rather than wedging the rack.
				_ = c.KillNode(i)
				return
			}
		}
	})
	inj.Arm()
}

// Chaos returns the attached injector (nil when none).
func (c *Cluster) Chaos() *fault.Injector { return c.chaos }

// Engine returns the shared simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Seed returns the simulation seed the cluster was built with — part of
// a run report's identity.
func (c *Cluster) Seed() int64 { return c.seed }

// Nodes returns the cluster's platforms.
func (c *Cluster) Nodes() []*faas.Platform { return c.nodes }

// Pool returns the shared CXL pool.
func (c *Cluster) Pool() *mem.Pool { return c.cxl }

// Register deploys a function on every node; the consolidated image and
// templates are built once (first node) and shared by the rest.
func (c *Cluster) Register(prof workload.FunctionProfile) error {
	for i, node := range c.nodes {
		if err := node.Register(prof); err != nil {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	return nil
}

// KillNode takes a node out of rotation — its warm instances and local
// memory are lost, but the consolidated images and templates live in the
// shared pool, so the survivors keep serving every function with no
// re-preprocessing. This is the disaggregation dividend: node-local
// state is disposable.
func (c *Cluster) KillNode(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: node %d out of range", i)
	}
	if c.down[i] {
		return fmt.Errorf("cluster: node %d already down", i)
	}
	alive := 0
	for j := range c.nodes {
		if !c.down[j] && j != i {
			alive++
		}
	}
	if alive == 0 {
		return fmt.Errorf("cluster: cannot kill the last node")
	}
	c.down[i] = true
	// Crash the platform so the dead node's warm instances release their
	// local-memory accounting and in-flight invocations abort (and are
	// re-dispatched when their attempts settle) instead of completing
	// normally.
	c.nodes[i].Crash()
	return nil
}

// AliveNodes returns the nodes still in rotation.
func (c *Cluster) AliveNodes() []*faas.Platform {
	var out []*faas.Platform
	for i, node := range c.nodes {
		if !c.down[i] {
			out = append(out, node)
		}
	}
	return out
}

// pick returns the index of the node to run fn on: prefer a healthy node
// holding a warm instance, else the least-loaded healthy node. Crashed
// nodes and open-breaker nodes are skipped.
func (c *Cluster) pick(fn string) int { return c.pickExcluding(fn, 0) }

// pickExcluding is pick with the nodes the current hedge race already
// tried removed from candidacy; -1 when no candidate remains (the hedger
// degrades to unhedged dispatch then). The candidates are the alive
// nodes whose breakers admit traffic; when every alive node's breaker is
// open there is nowhere better to send work, so they are all the alive
// nodes — availability beats breaker hygiene. One walk in index order
// takes the first warm candidate, else the least-loaded one with ties
// to the lowest index, so placement is a pure function of cluster state.
func (c *Cluster) pickExcluding(fn string, exclude nodeSet) int {
	warm, least, load := -1, -1, 0
	healthySeen := false
	for i, node := range c.nodes {
		if c.down[i] {
			continue
		}
		healthy := c.breakers[i].Allow()
		if healthy && !healthySeen {
			// The open-breaker nodes before the first healthy one were
			// candidates only while no node admitted traffic.
			healthySeen = true
			warm, least = -1, -1
		}
		if warm >= 0 || exclude.has(i) || (healthySeen && !healthy) {
			continue
		}
		if node.HasWarm(fn) {
			warm = i
		} else if a := node.Active(); least < 0 || a < load {
			least, load = i, a
		}
	}
	if warm >= 0 {
		return warm
	}
	return least
}

// Invoke schedules one invocation at virtual time at, placing it when the
// time arrives (so warm state is inspected at dispatch, not at submit).
func (c *Cluster) Invoke(at time.Duration, fn string) {
	c.eng.At(at, "dispatch/"+fn, func(p *sim.Proc) {
		c.hedge.dispatch(p, fn, "rack", c.pick(fn))
	})
}

// AttachRecorder samples reg's series into rec every interval of
// virtual time while RunTrace drives the rack (interval <= 0 uses
// obs.DefaultSampleInterval). Attach before RunTrace.
func (c *Cluster) AttachRecorder(rec *obs.Recorder, every time.Duration) {
	c.recorder = rec
	c.recEvery = every
}

// AttachAlerts binds an alert engine to the rack: it evaluates on the
// attached recorder's sampling instants (bound when RunTrace starts),
// links incidents through the rack's shared tracer, and watches every
// node's SLO tracker. Attach before RunTrace, alongside AttachRecorder
// — without a recorder nothing drives evaluation.
func (c *Cluster) AttachAlerts(ae *alert.Engine) {
	c.alerts = ae
	// Nodes share one tracer when Config.Tracer was set; the first
	// node's view covers the rack.
	ae.SetTracer(c.nodes[0].Tracer())
	for _, node := range c.nodes {
		ae.AddSLO(node.SLO())
	}
}

// Alerts returns the attached alert engine (nil unless AttachAlerts was
// called).
func (c *Cluster) Alerts() *alert.Engine { return c.alerts }

// active returns the invocations in flight across the rack.
func (c *Cluster) active() int {
	n := 0
	for _, node := range c.nodes {
		n += node.Active()
	}
	return n
}

// RunTrace feeds tr's invocations to the rack's engine, one queued
// arrival at a time (sim.Engine.AtEach), dispatches each when it
// arrives, and runs to completion. The order of events is the one Invoke
// calls in trace order would give, and tr need not be sorted.
func (c *Cluster) RunTrace(tr workload.Trace) {
	c.eng.AtEach("dispatch", len(tr),
		func(i int) time.Duration { return tr[i].At },
		func(p *sim.Proc, i int) {
			fn := tr[i].Function
			c.hedge.dispatch(p, fn, "rack", c.pick(fn))
		})
	if c.recorder != nil {
		if c.alerts != nil {
			c.alerts.Observe(c.recorder)
		}
		end := tr.Duration()
		c.recorder.PumpWhile(c.eng, c.recEvery, func() bool {
			return c.eng.Now() < end || c.active() > 0
		})
	}
	c.eng.Run()
}

// DedupFactor returns logical/unique bytes for the rack's consolidated
// images: how many per-node copies the shared pool replaced.
func (c *Cluster) DedupFactor() float64 {
	unique := c.store.Blocks().UniqueBytes()
	if unique == 0 {
		return 1
	}
	return float64(c.store.Blocks().LogicalBytes()) / float64(unique)
}

// TotalPeakMemory sums the nodes' DRAM high-water marks.
func (c *Cluster) TotalPeakMemory() int64 {
	var n int64
	for _, node := range c.nodes {
		n += node.PeakMemory()
	}
	return n
}

// Invocations sums recorded invocations across nodes.
func (c *Cluster) Invocations() int {
	n := 0
	for _, node := range c.nodes {
		n += node.Metrics().Invocations()
	}
	return n
}
