// Package faas is the serverless platform layer: a faasd-like control
// plane over the container runtime that registers functions, schedules
// invocations from a trace, maintains the keep-alive pool, and collects
// the latency/memory metrics the paper's container-based evaluation
// reports (§9.1-§9.5).
//
// Each platform instance runs one scheduling policy:
//
//	faasd      keep-alive + cold starts
//	criu       keep-alive + vanilla CRIU restore (new sandbox each start)
//	reap+      keep-alive + netns pool + REAP lazy restore in microVMs
//	faasnap+   like reap+ with FaaSnap async prefetch
//	trenv-cxl  repurposable sandboxes + mm-template on a CXL pool
//	trenv-rdma repurposable sandboxes + mm-template on an RDMA pool
//	reconfig   ablation: repurposed sandbox, full-copy memory, legacy cgroup
//	cgroup     ablation: + CLONE_INTO_CGROUP, still full-copy memory
package faas

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/alert"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmtemplate"
	"repro/internal/obs"
	"repro/internal/pagetable"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// Policy selects the platform's start strategy.
type Policy string

// Policies under evaluation.
const (
	PolicyFaasd       Policy = "faasd"
	PolicyCRIU        Policy = "criu"
	PolicyREAPPlus    Policy = "reap+"
	PolicyFaaSnapPlus Policy = "faasnap+"
	PolicyTrEnvCXL    Policy = "trenv-cxl"
	PolicyTrEnvRDMA   Policy = "trenv-rdma"
	PolicyReconfig    Policy = "reconfig"
	PolicyCgroup      Policy = "cgroup"
)

// IsTrEnv reports whether the policy uses repurposable sandboxes.
func (p Policy) IsTrEnv() bool {
	switch p {
	case PolicyTrEnvCXL, PolicyTrEnvRDMA, PolicyReconfig, PolicyCgroup:
		return true
	}
	return false
}

// Config parameterizes a platform.
type Config struct {
	Policy Policy
	Seed   int64
	// Node names this platform's node in exported spans and metrics
	// ("" = "n0"). Clusters set it per member ("n3", "r1n2") so
	// cross-node causal chains name where each hop ran.
	Node string
	// Cores is the node's physical core count.
	Cores int
	// SoftMemCap triggers idle-instance eviction when node usage would
	// exceed it (0 = unlimited). W2 runs with a 32 GB cap.
	SoftMemCap int64
	// KeepAlive is the idle retention window (the paper uses 10 min).
	KeepAlive time.Duration
	// WarmReuse is the dispatch cost of reusing a kept-alive instance.
	WarmReuse time.Duration
	// Warmup excludes invocations arriving before this time from the
	// metrics (the paper warms every system up for ~5 minutes).
	Warmup time.Duration
	// HotFraction places this share of each TrEnv image on the hot pool
	// (1 = everything; <1 spills the tail to the cold pool, the
	// multi-layer configuration).
	HotFraction float64
	// PromoteHotAfter, when > 0, promotes a kept-alive instance's hot
	// working set into node DRAM once it has served this many
	// invocations, removing the steady-state remote-access penalty at
	// the price of per-instance memory (§9.2.1's suggested tuning).
	PromoteHotAfter int
	// Prefetch enables working-set–guided prefetching on the TrEnv
	// restore path: a template's first run records its demand-fault
	// order into the image's working-set log; every later restore
	// replays the log as doorbell-batched fetches racing the
	// invocation, so demand faults on in-flight pages wait for their
	// batch instead of paying a full round trip each (see
	// internal/prefetch). Same-seed runs stay byte-identical with the
	// flag on.
	Prefetch bool
	// PrefetchBatchPages caps pages per batched fetch (0 =
	// prefetch.DefaultBatchPages).
	PrefetchBatchPages int
	// PromoteThreshold, with Prefetch, promotes a recorded run into the
	// node's direct-access promotion cache once its cross-invocation
	// replay count reaches this value — repeat RDMA faults become
	// CXL-cost hits (0 disables promotion).
	PromoteThreshold int
	// PromoteCacheBytes bounds the promotion cache, LRU-evicted
	// (0 = 256 MB).
	PromoteCacheBytes int64
	// PreWarmSandboxes provisions this many cleaned sandboxes into the
	// universal pool before traffic arrives (TrEnv policies), so even
	// the very first burst repurposes instead of building isolation
	// environments under contention.
	PreWarmSandboxes int
	// MaxPerFunction caps concurrently-running instances per function
	// (faasd's scale limit); excess invocations queue FIFO and dispatch
	// as instances free up. 0 = unlimited.
	MaxPerFunction int
	// CleanAfterUse gives Groundhog-style sequential request isolation
	// (§10): after each invocation the instance's memory state is thrown
	// away and re-attached from the template, so a kept-alive instance
	// never carries one request's state into the next. Only meaningful
	// for TrEnv policies (re-attach is a metadata copy); the restore
	// happens off the request's critical path.
	CleanAfterUse bool
	// CXLCapacity / RDMACapacity bound the pools (0 = unlimited).
	CXLCapacity  int64
	RDMACapacity int64
	// Latency overrides the memory-system latency constants (nil =
	// DefaultLatencyModel). Used by the calibration-sensitivity study.
	Latency *mem.LatencyModel

	// Tracer, when non-nil, records a hierarchical span tree for every
	// invocation (queue/sandbox/restore/exec phases) into the ring.
	Tracer *obs.Tracer

	// SLOTarget, when > 0, tracks a latency objective for every
	// registered function: SLOObjective (default 0.99) of post-warmup
	// invocations must finish end-to-end within SLOTarget. Burn rates
	// over sliding virtual-time windows export through the registry; use
	// Platform.SLO() to set per-function overrides.
	SLOTarget    time.Duration
	SLOObjective float64

	// Engine, when non-nil, embeds the platform in an existing simulation
	// (multi-node clusters share one virtual clock).
	Engine *sim.Engine
	// SharedStore, when non-nil, is a snapshot store shared with other
	// nodes attached to the same memory pool: preprocessing happens once
	// per rack and templates resolve machine-independent offsets.
	SharedStore *snapshot.Store

	// Deadline, when > 0, bounds each invocation end-to-end from
	// arrival: an attempt that overruns it terminates with
	// OutcomeDeadline at its next checkpoint instead of completing.
	Deadline time.Duration

	// DisableFallback turns off graceful degradation: a restore whose
	// pool is inside an injected outage window fails the invocation
	// instead of falling back to a local cold start. The availability
	// experiment uses this as its no-recovery baseline.
	DisableFallback bool
	// Retry overrides the fetch retry policy applied to the node's
	// pools by AttachFaults (nil = mem.DefaultRetryPolicy).
	Retry *mem.RetryPolicy
	// OnResult, when non-nil, observes every invocation's terminal
	// outcome. Clusters use it to feed per-node circuit breakers and
	// to re-dispatch work aborted by a node crash.
	OnResult func(InvocationResult)
}

// DefaultConfig returns the testbed-like configuration for a policy.
func DefaultConfig(policy Policy) Config {
	return Config{
		Policy:      policy,
		Seed:        1,
		Cores:       64,
		KeepAlive:   10 * time.Minute,
		WarmReuse:   500 * time.Microsecond,
		HotFraction: 1,
	}
}

// Function is a registered function plus its policy-specific artifacts.
type Function struct {
	Profile workload.FunctionProfile
	Snap    *snapshot.Snapshot
	Img     *snapshot.Image // TrEnv policies
	WS      map[string]int  // recorded working set (lazy policies)
}

// Platform is one simulated node running one policy.
type Platform struct {
	cfg     Config
	eng     *sim.Engine
	node    *mem.Tracker
	rt      *core.Runtime
	cpu     *sim.Resource
	cxl     *mem.Pool
	rdma    *mem.Pool
	tmpfs   *mem.Pool
	store   *snapshot.Store
	fns     map[string]*Function
	warm    map[string][]*core.Instance
	warmN   int // instances in warm, kept so WarmCount need not walk it
	metrics *Metrics
	tracer  *obs.Tracer

	lat        mem.LatencyModel
	memGauge   sim.Gauge
	active     int
	traceEnd   time.Duration
	samplerOn  bool
	sampleStep time.Duration

	slo      *obs.SLOTracker
	recorder *obs.Recorder
	recEvery time.Duration
	alerts   *alert.Engine

	// prefetcher replays working-set logs on TrEnv restores; promoCache
	// is its direct-access promotion cache (both nil unless
	// Config.Prefetch is set on a TrEnv policy).
	prefetcher *prefetch.Prefetcher
	promoCache *mem.PromotionCache

	// nodeName labels spans/IDs; invSeq numbers invocations so trace
	// identity is deterministic (hash of node, function, sequence).
	nodeName string
	invSeq   int64

	// Per-function admission control (MaxPerFunction).
	running map[string]int
	waiting map[string][]*sim.Proc

	// crashed marks a dead node: in-flight invocations abort at their
	// next checkpoint, new ones abort immediately (see Crash).
	crashed bool
}

// New creates a platform for cfg.
func New(cfg Config) *Platform {
	if cfg.Cores <= 0 {
		cfg.Cores = 64
	}
	if cfg.KeepAlive == 0 {
		cfg.KeepAlive = 10 * time.Minute
	}
	if cfg.HotFraction == 0 {
		cfg.HotFraction = 1
	}
	lat := mem.DefaultLatencyModel()
	if cfg.Latency != nil {
		lat = *cfg.Latency
	}
	eng := cfg.Engine
	if eng == nil {
		eng = sim.NewEngine(cfg.Seed)
	}
	node := mem.NewTracker("node-dram", 0)
	pl := &Platform{
		cfg:        cfg,
		eng:        eng,
		node:       node,
		rt:         core.DefaultRuntime(node),
		lat:        lat,
		cpu:        sim.NewResource("cores", cfg.Cores),
		cxl:        mem.NewPool(mem.CXL, cfg.CXLCapacity, lat),
		rdma:       mem.NewPool(mem.RDMA, cfg.RDMACapacity, lat),
		tmpfs:      mem.NewPool(mem.Tmpfs, 0, lat),
		fns:        make(map[string]*Function),
		warm:       make(map[string][]*core.Instance),
		metrics:    NewMetrics(),
		tracer:     cfg.Tracer,
		sampleStep: time.Second,
		running:    make(map[string]int),
		waiting:    make(map[string][]*sim.Proc),
		nodeName:   cfg.Node,
	}
	if pl.nodeName == "" {
		pl.nodeName = "n0"
	}
	pl.rt.Lat = lat
	if cfg.SLOTarget > 0 {
		obj := cfg.SLOObjective
		if obj == 0 {
			obj = 0.99
		}
		pl.slo = obs.NewSLOTracker()
		pl.slo.SetDefault(obs.SLO{Target: cfg.SLOTarget, Objective: obj})
	}
	switch {
	case cfg.SharedStore != nil:
		pl.store = cfg.SharedStore
		pl.cxl = cfg.SharedStore.Blocks().Pool()
	case cfg.Policy == PolicyTrEnvRDMA:
		pl.store = snapshot.NewStore(mem.NewBlockStore(pl.rdma), mmtemplate.NewRegistry())
	default:
		pl.store = snapshot.NewStore(mem.NewBlockStore(pl.cxl), mmtemplate.NewRegistry())
	}
	// Rack-attached nodes keep their cold tier on the memory server too:
	// a cold-tail RDMA fetch is a cross-node operation there.
	if cfg.SharedStore != nil && pl.cxl.Home() != "" {
		pl.rdma.SetHome(pl.cxl.Home())
	}
	// Label remaining unplaced pools with their hosting node; a
	// rack-shared pool keeps the home the cluster stamped on it.
	for _, pool := range []*mem.Pool{pl.cxl, pl.rdma, pl.tmpfs} {
		if pool.Home() == "" {
			pool.SetHome(pl.nodeName)
		}
	}
	// Working-set prefetching rides the TrEnv restore path only: other
	// policies restore eagerly (or not at all), so there is nothing to
	// replay.
	if cfg.Prefetch && cfg.Policy.IsTrEnv() {
		if cfg.PromoteThreshold > 0 {
			capBytes := cfg.PromoteCacheBytes
			if capBytes == 0 {
				capBytes = 256 << 20
			}
			pl.promoCache = mem.NewPromotionCache(capBytes, lat)
			pl.promoCache.Pool().SetHome(pl.nodeName)
		}
		pl.prefetcher = prefetch.New(pl.promoCache, prefetch.Config{
			BatchPages:   cfg.PrefetchBatchPages,
			PromoteAfter: cfg.PromoteThreshold,
		})
		pl.rt.Prefetcher = pl.prefetcher
	}
	return pl
}

// Prefetcher returns the node's working-set prefetcher (nil unless
// Config.Prefetch is set on a TrEnv policy).
func (pl *Platform) Prefetcher() *prefetch.Prefetcher { return pl.prefetcher }

// PromotionCache returns the node's hot-page promotion cache (nil
// unless prefetching with a promotion threshold is configured).
func (pl *Platform) PromotionCache() *mem.PromotionCache { return pl.promoCache }

// NodeName returns the node label this platform stamps on spans.
func (pl *Platform) NodeName() string { return pl.nodeName }

// Policy returns the scheduling policy this platform runs — part of a
// run report's identity.
func (pl *Platform) Policy() Policy { return pl.cfg.Policy }

// Seed returns the simulation seed the platform was built with.
func (pl *Platform) Seed() int64 { return pl.cfg.Seed }

// Engine exposes the simulation engine (for composing experiments).
func (pl *Platform) Engine() *sim.Engine { return pl.eng }

// Node returns the node DRAM tracker.
func (pl *Platform) Node() *mem.Tracker { return pl.node }

// Runtime returns the underlying container runtime.
func (pl *Platform) Runtime() *core.Runtime { return pl.rt }

// Metrics returns the collected metrics.
func (pl *Platform) Metrics() *Metrics { return pl.metrics }

// MemoryGauge returns node DRAM usage over time (sampled).
func (pl *Platform) MemoryGauge() *sim.Gauge { return &pl.memGauge }

// SetTracer attaches (or detaches, with nil) an invocation span
// recorder.
func (pl *Platform) SetTracer(t *obs.Tracer) { pl.tracer = t }

// Tracer returns the attached span recorder (nil when tracing is off).
func (pl *Platform) Tracer() *obs.Tracer { return pl.tracer }

// RegisterMetrics publishes the platform's full metric surface into
// reg: invocation counters and latency histograms, node DRAM and
// keep-alive-pool gauges, memory-pool contention, page-fault/CoW
// traffic, template sharing, sandbox-factory reuse counters, and (when
// configured) SLO burn rates.
func (pl *Platform) RegisterMetrics(reg *obs.Registry) {
	pl.RegisterMetricsLabeled(reg, nil)
}

// RegisterMetricsLabeled is RegisterMetrics with extra labels merged
// into every series, so a fleet of nodes exports through one registry
// (labels like node="n3" or rack="r1"). Resources shared with other
// nodes — the rack's CXL pool and snapshot store when cfg.SharedStore
// is set — are NOT registered here; register them once at the
// cluster level to keep series unique.
func (pl *Platform) RegisterMetricsLabeled(reg *obs.Registry, labels map[string]string) {
	pl.metrics.RegisterLabeled(reg, labels)
	reg.GaugeFunc("trenv_node_mem_used_bytes", "Node DRAM currently in use.", labels,
		func() float64 { return float64(pl.node.Used()) })
	reg.GaugeFunc("trenv_node_mem_peak_bytes", "Node DRAM high-water mark.", labels,
		func() float64 { return float64(pl.node.Peak()) })
	reg.GaugeFunc("trenv_warm_instances", "Kept-alive instances in the pool.", labels,
		func() float64 { return float64(pl.WarmCount()) })
	reg.GaugeFunc("trenv_active_invocations", "Invocations currently in flight.", labels,
		func() float64 { return float64(pl.active) })
	pools := []*mem.Pool{pl.rdma, pl.tmpfs}
	if pl.cfg.SharedStore == nil {
		pools = append(pools, pl.cxl)
		pl.store.Registry().RegisterMetrics(reg, labels)
	}
	for _, pool := range pools {
		pool.RegisterMetricsLabeled(reg, labels)
	}
	if pl.promoCache != nil {
		pl.promoCache.RegisterMetricsLabeled(reg, labels)
	}
	pagetable.RegisterStats(reg, labels, &pl.rt.PageStats)
	reg.CounterFunc("trenv_sandboxes_created_total", "Sandboxes built from scratch by the factory.", labels,
		pl.rt.Factory.Created)
	reg.CounterFunc("trenv_sandboxes_repurposed_total", "Sandbox handoffs served by reuse.", labels,
		pl.rt.Factory.Repurposed)
	if pl.slo != nil {
		pl.slo.Register(reg, labels, pl.eng.Now)
	}
}

// SLO returns the platform's SLO tracker (nil unless Config.SLOTarget
// was set).
func (pl *Platform) SLO() *obs.SLOTracker { return pl.slo }

// FaultStats returns a copy of the node-wide page-fault/CoW/traffic
// aggregate across every address space the runtime restored.
func (pl *Platform) FaultStats() pagetable.Stats { return pl.rt.PageStats }

// AttachRecorder samples reg's series into rec every interval of
// virtual time while RunTrace drives the platform (interval <= 0 uses
// obs.DefaultSampleInterval). Attach before RunTrace.
func (pl *Platform) AttachRecorder(rec *obs.Recorder, every time.Duration) {
	pl.recorder = rec
	pl.recEvery = every
}

// AttachAlerts binds an alert engine to the platform: it evaluates on
// the attached recorder's sampling instants (bound when RunTrace
// starts), links incidents to the platform's tracer, and watches the
// SLO tracker when one is configured. Attach before RunTrace, alongside
// AttachRecorder — without a recorder nothing drives evaluation.
func (pl *Platform) AttachAlerts(ae *alert.Engine) {
	pl.alerts = ae
	ae.SetTracer(pl.tracer)
	if pl.slo != nil {
		ae.AddSLO(pl.slo)
	}
}

// Alerts returns the attached alert engine (nil unless AttachAlerts was
// called).
func (pl *Platform) Alerts() *alert.Engine { return pl.alerts }

// PoolUsage returns bytes held in the CXL, RDMA, and tmpfs pools.
func (pl *Platform) PoolUsage() (cxl, rdma, tmpfs int64) {
	return pl.cxl.Tracker().Used(), pl.rdma.Tracker().Used(), pl.tmpfs.Tracker().Used()
}

// Register deploys a function: synthesizing its snapshot and preparing
// the policy's artifacts (consolidated image + templates for TrEnv,
// tmpfs snapshot files + recorded working sets for the others).
func (pl *Platform) Register(prof workload.FunctionProfile) error {
	if _, ok := pl.fns[prof.Name]; ok {
		return fmt.Errorf("faas: function %q already registered", prof.Name)
	}
	fn := &Function{Profile: prof, Snap: prof.Snapshot()}
	switch pl.cfg.Policy {
	case PolicyTrEnvCXL:
		// Another node on the same pool may have preprocessed already:
		// the consolidated image and its templates are rack-shared.
		if img := pl.store.Image(prof.Name); img != nil {
			fn.Img = img
			break
		}
		place := snapshot.Placement{Hot: pl.cxl, HotFraction: pl.cfg.HotFraction}
		if pl.cfg.HotFraction < 1 {
			place.Cold = pl.rdma
		}
		img, err := pl.store.Preprocess(fn.Snap, place)
		if err != nil {
			return err
		}
		fn.Img = img
	case PolicyTrEnvRDMA:
		img, err := pl.store.Preprocess(fn.Snap, snapshot.Placement{Hot: pl.rdma, HotFraction: 1})
		if err != nil {
			return err
		}
		fn.Img = img
	case PolicyREAPPlus, PolicyFaaSnapPlus:
		fn.WS = prof.WorkingSet()
		pl.tmpfs.Tracker().MustAlloc(fn.Snap.MemBytes()) // snapshot file
	case PolicyCRIU, PolicyReconfig, PolicyCgroup:
		pl.tmpfs.Tracker().MustAlloc(fn.Snap.MemBytes()) // snapshot file
	case PolicyFaasd:
		// no snapshot artifacts
	default:
		return fmt.Errorf("faas: unknown policy %q", pl.cfg.Policy)
	}
	pl.fns[prof.Name] = fn
	return nil
}

// RegisterWithImage deploys a function whose consolidated image and
// templates were preprocessed elsewhere — a sharded fleet's non-home
// rack, whose nodes reach the home rack's immutable copy through a
// read-only window over the inter-rack fabric instead of their own
// rack's pool. TrEnv policies only.
func (pl *Platform) RegisterWithImage(prof workload.FunctionProfile, img *snapshot.Image) error {
	if !pl.cfg.Policy.IsTrEnv() {
		return fmt.Errorf("faas: policy %q cannot use preprocessed images", pl.cfg.Policy)
	}
	if img == nil {
		return fmt.Errorf("faas: nil image for %q", prof.Name)
	}
	if _, ok := pl.fns[prof.Name]; ok {
		return fmt.Errorf("faas: function %q already registered", prof.Name)
	}
	pl.fns[prof.Name] = &Function{Profile: prof, Snap: img.Snapshot, Img: img}
	return nil
}

// Redeploy replaces a registered function's code/snapshot (TrEnv
// policies): a fresh consolidated image and templates are built, warm
// instances of the old version are drained, and the retired image's pool
// blocks are released once they are gone.
func (pl *Platform) Redeploy(prof workload.FunctionProfile) error {
	fn, ok := pl.fns[prof.Name]
	if !ok {
		return fmt.Errorf("faas: redeploy of unknown function %q", prof.Name)
	}
	if fn.Img == nil {
		return fmt.Errorf("faas: policy %q does not use preprocessed images", pl.cfg.Policy)
	}
	snap := prof.Snapshot()
	place := snapshot.Placement{Hot: pl.store.Blocks().Pool(), HotFraction: pl.cfg.HotFraction}
	if pl.cfg.HotFraction < 1 {
		place.Cold = pl.rdma
	}
	fresh, retired, err := pl.store.Update(snap, place)
	if err != nil {
		return err
	}
	fn.Profile = prof
	fn.Snap = snap
	fn.Img = fresh
	// Drain stale warm instances; their sandboxes recycle as usual.
	stale := pl.warm[prof.Name]
	pl.warm[prof.Name] = nil
	pl.warmN -= len(stale)
	pl.eng.Go("redeploy-drain/"+prof.Name, func(p *sim.Proc) {
		for _, in := range stale {
			pl.release(p, in)
		}
		if err := pl.store.ReleaseImage(retired); err != nil {
			pl.metrics.Errors.Inc()
		}
	})
	return nil
}

// takeWarm pops the most recently used warm instance for fn.
func (pl *Platform) takeWarm(fn string) *core.Instance {
	list := pl.warm[fn]
	if len(list) == 0 {
		return nil
	}
	in := list[len(list)-1]
	pl.warm[fn] = list[:len(list)-1]
	pl.warmN--
	return in
}

// parkWarm returns an instance to the keep-alive pool and schedules its
// expiry.
func (pl *Platform) parkWarm(in *core.Instance) {
	in.IdleSince = pl.eng.Now()
	pl.warm[in.Function] = append(pl.warm[in.Function], in)
	pl.warmN++
	idleMark := in.IdleSince
	pl.eng.After(pl.cfg.KeepAlive, func() {
		// Still idle since the same moment? Then it expired.
		if in.IdleSince != idleMark || !pl.removeWarm(in) {
			return
		}
		pl.eng.Go("expire/"+in.Function, func(p *sim.Proc) {
			t0 := p.Now()
			pl.release(p, in)
			pl.recordLifecycle("expire/"+in.Function, in.Function, t0, p.Now(),
				in.LastTraceID, "after")
		})
	})
}

// recordLifecycle records a non-invocation root span (keep-alive
// eviction, expiry) causally linked to the invocation trace that led
// to it. The tracer assigns the span's own deterministic trace ID.
func (pl *Platform) recordLifecycle(name, fn string, start, end time.Duration, cause, causeType string) {
	if pl.tracer == nil {
		return
	}
	sp := obs.NewSpan(name, start, end)
	sp.SetAttr("node", pl.nodeName).SetAttr("function", fn)
	if cause != "" {
		sp.AddLink(obs.Link{TraceID: cause, Type: causeType})
	}
	pl.tracer.Record(sp)
}

func (pl *Platform) removeWarm(in *core.Instance) bool {
	list := pl.warm[in.Function]
	for i, cand := range list {
		if cand == in {
			pl.warm[in.Function] = append(list[:i], list[i+1:]...)
			pl.warmN--
			return true
		}
	}
	return false
}

// release tears an instance down, recycling the sandbox under TrEnv
// policies.
func (pl *Platform) release(p *sim.Proc, in *core.Instance) {
	pl.rt.Release(p, in, pl.cfg.Policy.IsTrEnv())
}

// evictForSpace evicts least-recently-used idle instances while the soft
// cap would be exceeded by an allocation of need bytes. traceID is the
// admitting invocation the eviction spans link back to.
func (pl *Platform) evictForSpace(p *sim.Proc, traceID string, need int64) {
	if pl.cfg.SoftMemCap == 0 {
		return
	}
	for pl.node.Used()+need > pl.cfg.SoftMemCap {
		victim := pl.oldestIdle()
		if victim == nil {
			return
		}
		pl.removeWarm(victim)
		pl.metrics.Evictions.Inc()
		t0 := p.Now()
		pl.release(p, victim)
		pl.recordLifecycle("evict/"+victim.Function, victim.Function, t0, p.Now(),
			traceID, "evicted-by")
	}
}

func (pl *Platform) oldestIdle() *core.Instance {
	var victim *core.Instance
	for _, list := range pl.warm {
		for _, in := range list {
			if victim == nil || in.IdleSince < victim.IdleSince {
				victim = in
			}
		}
	}
	return victim
}

// estimateStartBytes approximates the node memory a fresh start needs,
// used only to drive soft-cap eviction.
func (pl *Platform) estimateStartBytes(fn *Function) int64 {
	img := fn.Snap.MemBytes()
	switch pl.cfg.Policy {
	case PolicyFaasd, PolicyCRIU, PolicyReconfig, PolicyCgroup:
		return img + pl.rt.ContainerOverhead
	case PolicyREAPPlus, PolicyFaaSnapPlus:
		var ws int64
		for _, pages := range fn.WS {
			ws += int64(pages) * mem.PageSize
		}
		return ws + pl.rt.VMOverhead
	default: // TrEnv: CoW writes only
		return int64(float64(img)*fn.Profile.WriteFrac) + pl.rt.ContainerOverhead
	}
}

// contentionPools returns the pools an invocation keeps busy while it
// runs under the current policy.
func (pl *Platform) contentionPools() []*mem.Pool {
	switch pl.cfg.Policy {
	case PolicyTrEnvCXL:
		if pl.cfg.HotFraction < 1 {
			return []*mem.Pool{pl.cxl, pl.rdma}
		}
		return []*mem.Pool{pl.cxl}
	case PolicyTrEnvRDMA:
		return []*mem.Pool{pl.rdma}
	case PolicyREAPPlus, PolicyFaaSnapPlus:
		return []*mem.Pool{pl.tmpfs}
	}
	return nil
}

// start brings up a fresh instance per the policy.
func (pl *Platform) start(p *sim.Proc, fn *Function) (*core.Instance, core.Startup, error) {
	switch pl.cfg.Policy {
	case PolicyFaasd:
		return pl.rt.StartCold(p, fn.Profile)
	case PolicyCRIU:
		return pl.rt.StartCRIU(p, fn.Profile, fn.Snap)
	case PolicyREAPPlus:
		return pl.rt.StartLazyVM(p, fn.Profile, fn.Snap, pl.tmpfs, snapshot.ReapConfig(fn.WS))
	case PolicyFaaSnapPlus:
		return pl.rt.StartLazyVM(p, fn.Profile, fn.Snap, pl.tmpfs, snapshot.FaaSnapConfig(fn.WS))
	case PolicyTrEnvCXL, PolicyTrEnvRDMA:
		return pl.rt.StartTrEnv(p, fn.Profile, fn.Img)
	case PolicyReconfig:
		return pl.rt.StartReconfig(p, fn.Profile, fn.Snap, false)
	case PolicyCgroup:
		return pl.rt.StartReconfig(p, fn.Profile, fn.Snap, true)
	}
	return nil, core.Startup{}, fmt.Errorf("faas: unknown policy %q", pl.cfg.Policy)
}

// admit blocks p until the function has a free instance slot.
func (pl *Platform) admit(p *sim.Proc, name string) {
	if pl.cfg.MaxPerFunction <= 0 {
		return
	}
	// A crash wakes queued procs; they fall through here and abort at
	// the post-admit checkpoint instead of waiting forever.
	for !pl.crashed && pl.running[name] >= pl.cfg.MaxPerFunction {
		pl.waiting[name] = append(pl.waiting[name], p)
		pl.metrics.Queued.Inc()
		p.Park()
	}
	pl.running[name]++
}

// leave releases p's instance slot and wakes the next queued invocation.
func (pl *Platform) leave(name string) {
	if pl.cfg.MaxPerFunction <= 0 {
		return
	}
	pl.running[name]--
	if q := pl.waiting[name]; len(q) > 0 {
		next := q[0]
		pl.waiting[name] = q[1:]
		pl.eng.Resume(next)
	}
}

// poolByKind maps a pool-kind label back to the platform's pool.
func (pl *Platform) poolByKind(kind string) *mem.Pool {
	for _, pool := range []*mem.Pool{pl.cxl, pl.rdma, pl.tmpfs} {
		if pool.Kind().String() == kind {
			return pool
		}
	}
	return nil
}

// emitPoolFetch records the pool-side half of a remote memory fetch —
// a root span on the pool's home node, cross-linked with the
// invocation-side span (target must already have its IDs assigned) —
// so a remote restore/exec fetch is walkable across nodes as one
// causal chain. site disambiguates multiple fetches in one invocation
// ("exec", "restore").
func (pl *Platform) emitPoolFetch(target *obs.Span, fn, kind, site string, seq int64) {
	home := pl.nodeName
	if pool := pl.poolByKind(kind); pool != nil && pool.Home() != "" {
		home = pool.Home()
	}
	ftid := obs.TraceIDFor(home, "pool-fetch", kind, site, fn, strconv.FormatInt(seq, 10))
	ps := obs.NewSpan("pool-fetch/"+kind, target.Start, target.End)
	ps.SetAttr("node", home).SetAttr("pool", kind).SetAttr("function", fn).SetAttr("site", site)
	if pages := target.Attr("pages"); pages != "" {
		ps.SetAttr("pages", pages)
	}
	ps.AssignIDs(ftid)
	ps.AddLink(obs.Link{TraceID: target.TraceID, SpanID: target.SpanID, Type: "serves"})
	target.SetAttr("pool-node", home)
	target.AddLink(obs.Link{TraceID: ftid, SpanID: ps.SpanID, Type: "remote-fetch"})
	pl.tracer.Record(ps)
}

// invoke is the full lifecycle of one invocation attempt. dispatcher
// names the cluster policy that placed it ("" when none did) and tok
// lets that dispatcher cancel it (nil = not cancellable).
func (pl *Platform) invoke(p *sim.Proc, name, dispatcher string, tok *CancelToken) {
	tArrive := p.Now()
	seq := pl.invSeq
	pl.invSeq++
	// Trace identity is a hash of (node, function, sequence): no
	// randomness, no wall clock, so same-seed runs reproduce it.
	traceID := obs.TraceIDFor(pl.nodeName, name, strconv.FormatInt(seq, 10))
	tok.setTrace(traceID)
	// An attempt's absolute deadline, or 0 when unbounded.
	var deadline time.Duration
	if pl.cfg.Deadline > 0 {
		deadline = tArrive + pl.cfg.Deadline
	}
	// Every invocation terminates in exactly one outcome, delivered to
	// OnResult on every exit path — nothing is silently lost.
	res := InvocationResult{Function: name, Node: pl.nodeName, TraceID: traceID, Token: tok}
	defer func() {
		if pl.cfg.OnResult != nil {
			pl.cfg.OnResult(res)
		}
	}()
	fn, ok := pl.fns[name]
	if !ok {
		pl.terminate(&res, tArrive, nil, fmt.Errorf("function %q not registered", name))
		return
	}
	if err := pl.checkpoint(name, tok, deadline); err != nil {
		pl.terminate(&res, tArrive, nil, err)
		return
	}
	pl.active++
	defer func() { pl.active-- }()
	pl.admit(p, name)
	defer pl.leave(name)
	if err := pl.checkpoint(name, tok, deadline); err != nil {
		pl.terminate(&res, tArrive, nil, err)
		return
	}
	// Metrics measure e2e from admission (matching the per-function
	// scale-limit semantics); the span additionally covers queueing.
	t0 := p.Now()
	tAdmit := t0
	var st core.Startup
	in := pl.takeWarm(name)
	tStart := tAdmit
	fellBack := false
	var fallbackAt time.Duration
	var fallbackCause *mem.ErrPoolUnavailable
	if in != nil {
		p.Sleep(pl.cfg.WarmReuse)
		st = core.Startup{Path: core.PathWarm, Restore: pl.cfg.WarmReuse}
	} else {
		pl.evictForSpace(p, traceID, pl.estimateStartBytes(fn))
		tStart = p.Now() // soft-cap eviction work ends here
		var err error
		in, st, err = pl.start(p, fn)
		if err != nil {
			var pu *mem.ErrPoolUnavailable
			if errors.As(err, &pu) && !pl.cfg.DisableFallback && pl.cfg.Policy != PolicyFaasd {
				// Graceful degradation: the restore source is inside an
				// injected outage window. Build the instance from scratch
				// locally instead of wedging — slower, but available.
				fallbackAt = p.Now()
				in, st, err = pl.rt.StartCold(p, fn.Profile)
				if err != nil {
					pl.terminate(&res, tArrive, nil, fmt.Errorf("fallback cold start also failed: %w", err))
					return
				}
				st.Path = core.PathFallback
				in.Path = core.PathFallback
				fellBack = true
				fallbackCause = pu
				res.FaultTrace = pu.FaultTrace
				pl.metrics.Fallbacks.Inc()
			} else {
				pl.terminate(&res, tArrive, nil, err)
				return
			}
		}
	}
	// A recording first run publishes its working-set log only if the
	// invocation completes: Seal on success, abandon on failure so a
	// later first run can re-record a full fault order.
	finishRecording := func(ok bool) {
		if st.Prefetch == nil || !st.Prefetch.Recording || fn.Img == nil || fn.Img.WSLog == nil {
			return
		}
		if ok {
			fn.Img.WSLog.Seal()
		} else {
			fn.Img.WSLog.AbortRecording()
		}
	}
	if err := pl.checkpoint(name, tok, deadline); err != nil {
		finishRecording(false)
		pl.terminate(&res, tArrive, in, err)
		return
	}
	tUp := p.Now() // startup complete
	if pl.cfg.PromoteHotAfter > 0 && in.Uses >= pl.cfg.PromoteHotAfter {
		promoted, err := pl.rt.PromoteWorkingSet(in)
		if err != nil {
			finishRecording(false)
			pl.terminate(&res, tArrive, nil, err)
			pl.release(p, in)
			return
		}
		if promoted > 0 {
			p.Sleep(pl.lat.CopyCost(promoted))
			pl.metrics.Promotions.Inc()
		}
	}
	tExec := p.Now()
	es, err := pl.rt.Execute(p, in, core.ExecOptions{
		CPU:             pl.cpu,
		ContentionPools: pl.contentionPools(),
	})
	res.Retries += es.Retries
	if res.FaultTrace == "" {
		res.FaultTrace = es.FaultTrace
	}
	if es.Retries > 0 {
		pl.metrics.Retries.IncBy(int64(es.Retries))
	}
	if err != nil {
		finishRecording(false)
		pl.terminate(&res, tArrive, nil, err)
		pl.release(p, in)
		return
	}
	if err := pl.checkpoint(name, tok, deadline); err != nil {
		finishRecording(false)
		pl.terminate(&res, tArrive, in, err)
		return
	}
	tEnd := p.Now()
	in.LastTraceID = traceID
	res.Outcome = OutcomeSuccess
	if fellBack {
		res.Outcome = OutcomeFallback
	}
	res.Startup = st.Total()
	res.FetchLat = es.FetchLat
	res.PrefetchWait = es.PrefetchWait
	finishRecording(true)
	if st.Prefetch != nil {
		if st.Prefetch.Recording {
			pl.metrics.PrefetchRecordings.Inc()
		} else if st.Prefetch.Batches > 0 || st.Prefetch.PromotedPages > 0 {
			pl.metrics.PrefetchLaunches.Inc()
			pl.metrics.PrefetchBatches.IncBy(int64(st.Prefetch.Batches))
			pl.metrics.PrefetchPages.IncBy(int64(st.Prefetch.Pages))
			pl.metrics.PromotedPages.IncBy(int64(st.Prefetch.PromotedPages))
			if st.Prefetch.Batches > 0 {
				pl.metrics.PrefetchBatchSize.Add(float64(st.Prefetch.Pages) / float64(st.Prefetch.Batches))
			}
		}
	}
	if es.PrefetchHits > 0 {
		pl.metrics.PrefetchHits.IncBy(int64(es.PrefetchHits))
	}
	if pl.prefetcher != nil && es.FetchedPages > 0 {
		// Demand fetches the replay did not cover (or did not win).
		pl.metrics.PrefetchMisses.IncBy(int64(es.FetchedPages))
	}
	if t0 >= pl.cfg.Warmup {
		pl.metrics.Record(name, st, es, tEnd-t0)
		if pl.tracer != nil {
			pl.metrics.ObserveExemplar(name, float64(tEnd-t0)/float64(time.Millisecond), traceID)
		}
		if pl.slo != nil {
			pl.slo.Record(name, tEnd, tEnd-t0)
		}
	}
	if pl.tracer != nil {
		root := obs.NewSpan("invoke/"+name, tArrive, tEnd)
		root.SetAttr("function", name).SetAttr("policy", string(pl.cfg.Policy)).
			SetAttr("path", string(st.Path)).SetAttr("node", pl.nodeName)
		if dispatcher != "" {
			// Zero-width placement step: the cluster picked this node at
			// arrival time.
			root.SetAttr("dispatcher", dispatcher)
			root.Child("pick", tArrive, tArrive).SetAttr("dispatcher", dispatcher)
		}
		if tAdmit > tArrive {
			root.Child("queue", tArrive, tAdmit)
		}
		if tStart > tAdmit {
			root.Child("evict", tAdmit, tStart)
		}
		if fellBack {
			// The failed remote-restore attempt, linked to the injected
			// fault that caused it, then the fallback cold start wrapping
			// the actual startup breakdown — the graceful-degradation
			// chain is walkable from the invocation's critical path.
			rf := root.Child("restore-failed", tStart, fallbackAt)
			rf.SetAttr("error_type", "pool-unavailable").
				SetAttr("pool", fallbackCause.Pool)
			rf.Fail(fallbackCause)
			if fallbackCause.FaultTrace != "" {
				rf.AddLink(obs.Link{TraceID: fallbackCause.FaultTrace, Type: "caused-by"})
			}
			fb := root.Child("fallback", fallbackAt, tUp)
			fb.SetAttr("cause", "pool-unavailable")
			fb.Children = append(fb.Children, core.StartupSpan(st, fallbackAt))
		} else {
			root.Children = append(root.Children, core.StartupSpan(st, tStart))
		}
		if tExec > tUp {
			root.Child("promote", tUp, tExec)
		}
		exec := root.Child("exec", tExec, tEnd)
		if es.CPUWait > 0 {
			exec.Child("cpu-wait", tExec, tExec+es.CPUWait)
		}
		var execFetch *obs.Span
		if es.FetchedPages > 0 && es.FetchLat > 0 {
			// The pages execution pulled from remote memory, placed right
			// after the core was acquired (fetch latency is charged as
			// on-CPU stall time).
			fs := tExec + es.CPUWait
			execFetch = exec.Child("remote-fetch", fs, fs+es.FetchLat)
			execFetch.SetAttr("pool", es.FetchPool).
				SetAttr("pages", strconv.Itoa(es.FetchedPages))
			if es.Retries > 0 {
				// Retried attempts and the fault that forced them, linked
				// so tail analysis can walk fetch → fault.
				execFetch.SetAttr("retries", strconv.Itoa(es.Retries))
				if es.FaultTrace != "" {
					execFetch.AddLink(obs.Link{TraceID: es.FaultTrace, Type: "caused-by"})
				}
			}
		}
		root.AssignIDs(traceID)
		if execFetch != nil {
			pl.emitPoolFetch(execFetch, name, es.FetchPool, "exec", seq)
		}
		if st.RestorePool != "" && st.RestorePool != "local" {
			// The restore's copy phase read a remote medium: link its span
			// with a pool-side twin on the medium's home node.
			var copySp *obs.Span
			root.Walk(func(_ int, sp *obs.Span) {
				if copySp == nil && sp.Name == "copy" {
					copySp = sp
				}
			})
			if copySp != nil {
				pl.emitPoolFetch(copySp, name, st.RestorePool, "restore", seq)
			}
		}
		if st.Prefetch != nil && !st.Prefetch.Recording && st.Prefetch.Batches > 0 {
			// The working-set replay races the invocation on its own
			// trace — [tUp, tUp+Latency] overlaps exec instead of
			// extending the critical path — cross-linked with the restore
			// span that launched it.
			pf := obs.NewSpan("prefetch/"+name, tUp, tUp+st.Prefetch.Latency)
			pf.SetAttr("function", name).SetAttr("node", pl.nodeName).
				SetAttr("pool", st.Prefetch.Pool).
				SetAttr("pages", strconv.Itoa(st.Prefetch.Pages)).
				SetAttr("batches", strconv.Itoa(st.Prefetch.Batches))
			if st.Prefetch.PromotedPages > 0 {
				pf.SetAttr("promoted_pages", strconv.Itoa(st.Prefetch.PromotedPages))
			}
			if st.Prefetch.Err != nil {
				pf.Fail(st.Prefetch.Err)
			}
			pfTid := obs.TraceIDFor(pl.nodeName, "prefetch", name, strconv.FormatInt(seq, 10))
			pf.AssignIDs(pfTid)
			var restoreSp *obs.Span
			root.Walk(func(_ int, sp *obs.Span) {
				if restoreSp == nil && sp.Name == "restore" {
					restoreSp = sp
				}
			})
			if restoreSp != nil {
				pf.AddLink(obs.Link{TraceID: root.TraceID, SpanID: restoreSp.SpanID, Type: "launched-by"})
				restoreSp.AddLink(obs.Link{TraceID: pfTid, SpanID: pf.SpanID, Type: "prefetch"})
			}
			pl.tracer.Record(pf)
		}
		pl.tracer.Record(root)
	}
	if pl.cfg.CleanAfterUse && fn.Img != nil {
		// Groundhog-style: scrub the request's memory state before the
		// instance can serve anyone else. The template re-attach costs
		// metadata-copy time, paid here (off the next request's path).
		old := in.Restored
		fresh, err := snapshot.RestoreTemplate(fn.Img, pl.node, pl.lat, pl.rt.AttachCosts, pl.rt.RestoreCosts)
		if err != nil {
			pl.metrics.Errors.Inc()
			pl.release(p, in)
			return
		}
		fresh.SetStatsSink(&pl.rt.PageStats)
		p.Sleep(fresh.Latency)
		in.Restored = fresh
		old.ReleaseAll()
		pl.metrics.CleanRestores.Inc()
	}
	pl.parkWarm(in)
}

// Invoke schedules one invocation at virtual time at.
func (pl *Platform) Invoke(at time.Duration, function string) {
	pl.eng.At(at, "invoke/"+function, func(p *sim.Proc) { pl.invoke(p, function, "", nil) })
}

// startSampler records node DRAM usage once per sampleStep until the
// trace has ended and no invocations remain active.
func (pl *Platform) startSampler() {
	if pl.samplerOn {
		return
	}
	pl.samplerOn = true
	pl.eng.Go("mem-sampler", func(p *sim.Proc) {
		for {
			pl.memGauge.Set(p.Now(), float64(pl.node.Used()))
			if p.Now() >= pl.traceEnd && pl.active == 0 {
				return
			}
			p.Sleep(pl.sampleStep)
		}
	})
}

// PreWarm provisions n cleaned sandboxes into the universal pool at no
// simulated cost — the operator built them before the measured window.
// Only TrEnv policies consume the pool.
func (pl *Platform) PreWarm(n int) {
	if n <= 0 || !pl.cfg.Policy.IsTrEnv() {
		return
	}
	for i := 0; i < n; i++ {
		pl.rt.SBPool.Put(pl.rt.Factory.CreateWarm())
	}
}

// RunTrace schedules every invocation in tr and runs the simulation to
// completion (including keep-alive expiries after the last invocation).
func (pl *Platform) RunTrace(tr workload.Trace) {
	pl.PreWarm(pl.cfg.PreWarmSandboxes)
	pl.traceEnd = tr.Duration()
	for _, inv := range tr {
		pl.Invoke(inv.At, inv.Function)
	}
	pl.startSampler()
	if pl.recorder != nil {
		if pl.alerts != nil {
			pl.alerts.Observe(pl.recorder)
		}
		pl.recorder.PumpWhile(pl.eng, pl.recEvery, func() bool {
			return pl.eng.Now() < pl.traceEnd || pl.active > 0
		})
	}
	pl.eng.Run()
}

// PeakMemory returns the node DRAM high-water mark.
func (pl *Platform) PeakMemory() int64 { return pl.node.Peak() }

// UsedMemory returns node DRAM currently in use.
func (pl *Platform) UsedMemory() int64 { return pl.node.Used() }

// Active returns the number of invocations currently in flight.
func (pl *Platform) Active() int { return pl.active }

// InvocationsStarted returns how many invocations the platform has
// dispatched since creation, warmup window included — the raw
// throughput denominator wall-clock self-benchmarks divide by, as
// opposed to Metrics().Invocations() which only counts post-warmup
// completions.
func (pl *Platform) InvocationsStarted() int64 { return pl.invSeq }

// Cores returns the node's physical core count.
func (pl *Platform) Cores() int { return pl.cfg.Cores }

// HasWarm reports whether a kept-alive instance of fn exists.
func (pl *Platform) HasWarm(fn string) bool { return len(pl.warm[fn]) > 0 }

// Store returns the snapshot store (shared across nodes in clusters).
func (pl *Platform) Store() *snapshot.Store { return pl.store }

// WarmCount returns the current number of kept-alive instances.
func (pl *Platform) WarmCount() int { return pl.warmN }
