package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/alert"
	"repro/internal/cluster"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mmtemplate"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// rep is one measured run of one workload: its host cost, its simulated
// results, and the per-layer counts read from public accessors after the
// run. A child process prints it to its parent as one JSON line.
type rep struct {
	Workers int `json:"workers,omitempty"`

	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	// MaxRSSKB is the child's peak RSS and ProbeS the median speed-probe
	// time while it ran; the parent fills both in (0 for in-process reps).
	MaxRSSKB int64   `json:"max_rss_kb"`
	ProbeS   float64 `json:"probe_s"`

	SimS        float64 `json:"sim_s"`
	Invocations int     `json:"invocations"`
	Settled     int     `json:"settled"`
	Failed      int     `json:"failed"`
	Wedged      int64   `json:"wedged"`
	Digest      string  `json:"digest"`

	// Layer holds the simulated results and the per-layer counts and
	// timers, keyed by their metric name in BENCHMARK.json
	// ("sim_e2e_p50_ms", "pagetable.minor_faults", "faas.register_ms").
	Layer map[string]float64 `json:"layer"`
}

// workloadDef is one benchmark workload. build constructs the simulated
// system and generates its trace: everything a rep does before the first
// event, which setup_s times.
type workloadDef struct {
	name string
	why  string
	// tailPct is the tail percentile reported as sim_e2e_tail_ms: the
	// highest of p99/p95 with at least ten post-warm-up samples beyond it.
	tailPct float64
	// workers is the shard worker count of measured reps (0 = not
	// sharded). A sharded workload also runs one fleetRefWorkers rep per
	// run, whose digest every measured rep must match.
	workers int
	build   func(seed int64, scale float64, workers int, r *rep) (*system, error)
}

// system is one built workload, ready to drive.
type system struct {
	trace workload.Trace
	run   func()
	// finish fills the simulated results and per-layer counts after run.
	finish func(r *rep, tailPct float64)
	// export, when set, runs the exports a user of the system pays for
	// after the run; only the traced pass calls it.
	export func(r *rep)
}

// fleetRefWorkers is the shard worker count of a sharded workload's
// reference rep; measured reps run on two workers, nproc on the host the
// baselines were taken on.
const fleetRefWorkers = 1

var workloads = []*workloadDef{
	{
		name:    "azure-rack-cxl",
		why:     "4-node rack on one CXL pool under the Azure trace: the MMU direct-read and CoW page loop dominates; fetch, prefetch and obs are off",
		tailPct: 99,
		build:   buildAzureRackCXL,
	},
	{
		name:    "w1-node-observed",
		why:     "one node, W1 bursts, full tracer/registry/recorder/alert stack: observability dominates and the MMU barely shows",
		tailPct: 95,
		build:   buildW1NodeObserved,
	},
	{
		name:    "azure-fleet-sharded",
		why:     "4 racks x 2 four-core nodes on 2 shard workers: the only workload that runs ShardGroup windows and cross-shard spills",
		tailPct: 99,
		workers: 2,
		build:   buildAzureFleetSharded,
	},
	{
		name:    "huawei-rack-rdma-fresh",
		why:     "every invocation restores fresh over a flaky RDMA cold tail with prefetch and p95 hedging: the lazy-fault MMU path, fetch and retry",
		tailPct: 99,
		build:   buildHuaweiRackRDMAFresh,
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setupBuilds is how many times a rep builds its workload. SetupS is the
// median build time and the run uses the last build. One build's time
// moves by up to 2x within a process, with GC and host noise; a single
// build per rep spread setup_s by 20–30% between runs.
const setupBuilds = 9

// runRep builds def, runs its trace once and measures the run. traced
// also runs the workload's exports under their timers, and builds only
// once, so that the profiled pass weighs set-up as a single run does.
func runRep(def *workloadDef, seed int64, scale float64, workers int, traced bool) (*rep, error) {
	r := &rep{Workers: workers, Layer: map[string]float64{}}
	var sys *system
	builds := make([]float64, setupBuilds)
	if traced {
		builds = builds[:1]
	}
	for i := range builds {
		t0 := time.Now()
		var err error
		if sys, err = def.build(seed, scale, workers, r); err != nil {
			return nil, fmt.Errorf("%s: build: %w", def.name, err)
		}
		builds[i] = time.Since(t0).Seconds()
	}
	r.SetupS = median(builds)

	// Start the measured run from a collected heap so set-up garbage is
	// not charged to it.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t1 := time.Now()
	sys.run()
	r.WallS = time.Since(t1).Seconds()
	r.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	r.Mallocs = m1.Mallocs - m0.Mallocs
	r.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.Invocations = len(sys.trace)
	sys.finish(r, def.tailPct)
	if traced && sys.export != nil {
		sys.export(r)
	}
	return r, nil
}

// cpuSeconds returns this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

func functionNames() []string {
	var out []string
	for _, p := range workload.Table4() {
		out = append(out, p.Name)
	}
	return out
}

// registerAll registers the Table-4 functions (checkpoint and preprocess)
// and records the time it took as faas.register_ms.
func registerAll(r *rep, register func(workload.FunctionProfile) error) error {
	t0 := time.Now()
	for _, p := range workload.Table4() {
		if err := register(p); err != nil {
			return fmt.Errorf("register %s: %w", p.Name, err)
		}
	}
	r.Layer["faas.register_ms"] = msSince(t0)
	return nil
}

// genTrace generates a trace and records the time it took as
// workload.trace_gen_ms.
func genTrace(r *rep, gen func() workload.Trace) workload.Trace {
	t0 := time.Now()
	tr := gen()
	r.Layer["workload.trace_gen_ms"] = msSince(t0)
	return tr
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// traceShapeSeed fixes the per-minute invocation counts of the industrial
// traces. The Azure and Huawei datasets record counts per function per
// minute, so a workload replays one fixed count matrix, and the run's
// seed only places each invocation within its minute (industrialTrace).
// With ten functions, letting the seed redraw the counts too would turn
// every seed into a different workload: on one round per seed, wall time
// per simulated second spread by 40-50% between seeds.
const traceShapeSeed = 3

// industrialTrace generates cfg's per-minute counts from traceShapeSeed
// and draws each invocation's instant within its minute from seed.
func industrialTrace(cfg workload.IndustrialConfig, seed int64) workload.Trace {
	tr := workload.Industrial(rand.New(rand.NewSource(traceShapeSeed)), cfg)
	rng := rand.New(rand.NewSource(seed))
	for i := range tr {
		minute := tr[i].At.Truncate(time.Minute)
		span := time.Minute
		if rest := cfg.Duration - minute; rest < span {
			span = rest
		}
		tr[i].At = minute + time.Duration(rng.Int63n(int64(span)))
	}
	sort.SliceStable(tr, func(i, j int) bool { return tr[i].At < tr[j].At })
	return tr
}

// settleLog collects settled invocations: every terminal outcome, and the
// end-to-end latency of the successful ones dispatched after warm-up. A
// cluster's settle hook times each invocation from its trace arrival
// (dispatch happens at the arrival instant) to its first real terminal
// result, hedges and re-dispatches included.
type settleLog struct {
	warmup  time.Duration
	now     func() time.Duration
	lat     sim.Histogram
	settled int
	failed  int
}

func (s *settleLog) settle(_ string, latency time.Duration, res faas.InvocationResult) {
	s.settled++
	if failedOutcome(res.Outcome) {
		s.failed++
		return
	}
	if s.now()-latency >= s.warmup {
		s.lat.AddDuration(latency)
	}
}

func failedOutcome(o faas.Outcome) bool {
	switch o {
	case faas.OutcomeError, faas.OutcomeDeadline, faas.OutcomeRedispatchExhausted:
		return true
	}
	return false
}

// finishSim fills the simulated results every workload reports and the
// rep's deterministic digest over events, invocations, the latency
// samples and simulated peak memory.
func finishSim(r *rep, tailPct float64, simTime time.Duration, events int64, lat *sim.Histogram, settled, failed int, wedged, peak int64) {
	r.SimS = simTime.Seconds()
	r.Settled = settled
	r.Failed = failed
	r.Wedged = wedged
	r.Layer["sim_e2e_samples"] = float64(lat.N())
	r.Layer["sim_e2e_p50_ms"] = lat.Percentile(50)
	r.Layer["sim_e2e_tail_ms"] = lat.Percentile(tailPct)
	r.Layer["sim_peak_mem_gb"] = float64(peak) / (1 << 30)
	r.Layer["sim.events_per_inv"] = perInv(float64(events), r)

	h := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	word(uint64(events))
	word(uint64(r.Invocations))
	word(uint64(lat.N()))
	for _, p := range lat.CDF(0) {
		word(math.Float64bits(p.Value))
	}
	word(uint64(peak))
	r.Digest = strconv.FormatUint(h.Sum64(), 16)
}

func perInv(v float64, r *rep) float64 {
	if r.Invocations == 0 {
		return 0
	}
	return v / float64(r.Invocations)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// nodeCounts reads the per-layer counters of a set of nodes. Pools and
// template registries shared by a rack's nodes are counted once.
func nodeCounts(r *rep, nodes []*faas.Platform) {
	L := r.Layer
	pools := map[*mem.Pool]bool{}
	registries := map[*mmtemplate.Registry]bool{}
	var created, repurposed int64
	var hits, misses float64
	for _, n := range nodes {
		st := n.FaultStats()
		L["pagetable.minor_faults"] += float64(st.MinorFaults)
		L["pagetable.major_faults"] += float64(st.MajorFaults)
		L["pagetable.cow_pages"] += float64(st.CowPages)
		L["pagetable.fetched_pages"] += float64(st.FetchedPages)
		L["pagetable.direct_pages"] += float64(st.DirectAccess)

		m := n.Metrics()
		L["faas.warm_hits"] += float64(m.WarmHits.Value())
		L["faas.cold_starts"] += float64(m.ColdStarts.Value())
		L["faas.repurposes"] += float64(m.Repurposes.Value())
		L["faas.restores"] += float64(m.Restores.Value())
		L["faas.evictions"] += float64(m.Evictions.Value())
		L["faas.errors"] += float64(m.Errors.Value())
		L["faas.fallbacks"] += float64(m.Fallbacks.Value())
		L["prefetch.launches"] += float64(m.PrefetchLaunches.Value())
		L["prefetch.batches"] += float64(m.PrefetchBatches.Value())
		L["prefetch.pages"] += float64(m.PrefetchPages.Value())
		L["prefetch.promoted_pages"] += float64(m.PromotedPages.Value())
		hits += float64(m.PrefetchHits.Value())
		misses += float64(m.PrefetchMisses.Value())

		created += n.Runtime().Factory.Created()
		repurposed += n.Runtime().Factory.Repurposed()
		for _, p := range n.Pools() {
			pools[p] = true
		}
		registries[n.Store().Registry()] = true
	}
	for p := range pools {
		L["mem.fetches"] += float64(p.Fetches())
		L["mem.pages_fetched"] += float64(p.PagesFetched())
		L["mem.batch_fetches"] += float64(p.BatchFetches())
		L["mem.retries"] += float64(p.Retries())
		L["mem.fault_failures"] += float64(p.FaultFailures())
		L["mem.fetch_exhausted"] += float64(p.FetchExhausted())
	}
	var attaches, sharing float64
	for reg := range registries {
		attaches += float64(reg.TotalAttaches())
		sharing += reg.SharingFactor()
	}
	L["mmtemplate.attaches"] = attaches
	L["mmtemplate.sharing_factor"] = sharing / float64(len(registries))
	L["mem.retry_ratio"] = ratio(L["mem.retries"], L["mem.fetches"])
	L["prefetch.hit_ratio"] = ratio(hits, hits+misses)
	L["sandbox.repurpose_ratio"] = ratio(float64(repurposed), float64(created+repurposed))
	started := L["faas.warm_hits"] + L["faas.cold_starts"] + L["faas.repurposes"] + L["faas.restores"]
	L["faas.warm_ratio"] = ratio(L["faas.warm_hits"], started)
	L["pagetable.pages_per_inv"] = perInv(L["pagetable.direct_pages"]+L["pagetable.fetched_pages"]+L["pagetable.cow_pages"], r)
}

// clusterCounts reads the dispatch and hedging counters of racks.
func clusterCounts(r *rep, racks []*cluster.Cluster) {
	L := r.Layer
	for _, c := range racks {
		L["cluster.dispatched"] += float64(c.Dispatched())
		L["cluster.hedged"] += float64(c.Hedged())
		L["cluster.hedge_wins"] += float64(c.HedgeWins())
		L["cluster.cancelled"] += float64(c.Cancelled())
		L["cluster.redispatched"] += float64(c.Redispatched())
		L["cluster.wedged"] += float64(c.Wedged())
	}
	L["cluster.hedge_win_ratio"] = ratio(L["cluster.hedge_wins"], L["cluster.hedged"])
	L["cluster.extra_attempt_ratio"] = ratio(L["cluster.hedged"], L["cluster.dispatched"])
}

// rackConfig is the TrEnv-CXL node configuration the rack workloads share.
func rackConfig(seed int64, scale float64) faas.Config {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = seed
	cfg.KeepAlive = scaled(10*time.Minute, scale)
	cfg.Warmup = scaled(5*time.Minute, scale)
	return cfg
}

func buildAzureRackCXL(seed int64, scale float64, _ int, r *rep) (*system, error) {
	c, err := cluster.New(4, rackConfig(seed, scale))
	if err != nil {
		return nil, err
	}
	if err := registerAll(r, c.Register); err != nil {
		return nil, err
	}
	az := workload.AzureConfig(functionNames())
	az.Duration = scaled(az.Duration, scale)
	tr := genTrace(r, func() workload.Trace { return industrialTrace(az, seed) })
	return rackSystem(c, tr, scaled(5*time.Minute, scale), nil), nil
}

func buildHuaweiRackRDMAFresh(seed int64, scale float64, _ int, r *rep) (*system, error) {
	cfg := rackConfig(seed, scale)
	cfg.Warmup = scaled(150*time.Second, scale)
	cfg.HotFraction = 0.4 // the cold 60% of each image lives on RDMA
	cfg.Prefetch = true
	cfg.PromoteThreshold = 4
	// Below every inter-arrival gap, so each invocation restores fresh.
	cfg.KeepAlive = time.Millisecond
	// Twelve attempts outlast four back-to-back failure bursts, so a
	// fetch gives up, failing its invocation, about once per 0.02^-4
	// faults instead of once per 50 with the default four.
	retry := mem.DefaultRetryPolicy()
	retry.MaxAttempts = 12
	cfg.Retry = &retry
	c, err := cluster.New(4, cfg)
	if err != nil {
		return nil, err
	}
	hp, err := cluster.ParseHedgePolicy("p95")
	if err != nil {
		return nil, err
	}
	c.SetHedgePolicy(hp)
	if err := registerAll(r, c.Register); err != nil {
		return nil, err
	}
	inj := fault.NewInjector(c.Engine(), seed, fault.Scenario{
		FlakyFetches: []fault.FlakyFetch{{Pool: "rdma", Prob: 0.02, Burst: 3}},
	})
	c.AttachChaos(inj)
	hw := workload.HuaweiConfig(functionNames())
	// A quarter of the Huawei shape keeps a rep near 2 s, so a run gets
	// enough reps for a steady median of its GC-bound peak RSS.
	hw.Duration = scaled(450*time.Second, scale)
	tr := genTrace(r, func() workload.Trace { return industrialTrace(hw, seed) })
	return rackSystem(c, tr, cfg.Warmup, inj), nil
}

// rackSystem drives one cluster through tr; inj, when set, is the
// attached fault injector whose firings are counted.
func rackSystem(c *cluster.Cluster, tr workload.Trace, warmup time.Duration, inj *fault.Injector) *system {
	log := &settleLog{warmup: warmup, now: c.Engine().Now}
	c.SetSettleHook(log.settle)
	return &system{
		trace: tr,
		run:   func() { c.RunTrace(tr) },
		finish: func(r *rep, tailPct float64) {
			finishSim(r, tailPct, c.Engine().Now(), c.Engine().Events(), &log.lat,
				log.settled, log.failed, c.Wedged(), c.TotalPeakMemory())
			nodeCounts(r, c.Nodes())
			clusterCounts(r, []*cluster.Cluster{c})
			if inj != nil {
				for _, n := range inj.Counts() {
					r.Layer["fault.injected"] += float64(n)
				}
			}
		},
	}
}

func buildAzureFleetSharded(seed int64, scale float64, workers int, r *rep) (*system, error) {
	cfg := rackConfig(seed, scale)
	// Four-core nodes saturate in bursts, so racks spill across shards.
	cfg.Cores = 4
	f, err := cluster.NewShardedFleet(cluster.ShardedConfig{
		Racks:        4,
		NodesPerRack: 2,
		TraceCap:     1 << 16,
		Workers:      workers,
	}, cfg)
	if err != nil {
		return nil, err
	}
	// One log per rack: each is written only by its rack's shard worker.
	logs := make([]*settleLog, len(f.Racks()))
	for i, rack := range f.Racks() {
		logs[i] = &settleLog{warmup: cfg.Warmup, now: rack.Engine().Now}
		rack.SetSettleHook(logs[i].settle)
	}
	if err := registerAll(r, f.Register); err != nil {
		return nil, err
	}
	az := workload.AzureConfig(functionNames())
	// Half the Azure shape keeps a rep near 1.6 s, so a run gets enough
	// reps for a steady median.
	az.Duration = scaled(15*time.Minute, scale)
	az.MeanPerMin = 120
	tr := genTrace(r, func() workload.Trace { return industrialTrace(az, seed) })
	return &system{
		trace: tr,
		run:   func() { f.RunTrace(tr) },
		finish: func(r *rep, tailPct float64) {
			var lat sim.Histogram
			var settled, failed int
			var peak int64
			var nodes []*faas.Platform
			for i, rack := range f.Racks() {
				lat.Merge(&logs[i].lat)
				settled += logs[i].settled
				failed += logs[i].failed
				peak += rack.TotalPeakMemory()
				nodes = append(nodes, rack.Nodes()...)
			}
			g := f.Group()
			finishSim(r, tailPct, g.Now(), f.Events(), &lat, settled, failed, f.Wedged(), peak)
			nodeCounts(r, nodes)
			clusterCounts(r, f.Racks())
			r.Layer["cluster.spillovers"] = float64(f.Spillovers())
			r.Layer["sim.shard_windows"] = float64(g.Windows())
			r.Layer["sim.shard_messages"] = float64(g.Messages())
			r.Layer["sim.events_per_window"] = ratio(float64(f.Events()), float64(g.Windows()))
			r.Layer["obs.spans_per_inv"] = perInv(float64(countSpans(f.Spans())), r)
		},
	}, nil
}

func buildW1NodeObserved(seed int64, scale float64, _ int, r *rep) (*system, error) {
	cfg := faas.DefaultConfig(faas.PolicyTrEnvCXL)
	cfg.Seed = seed
	cfg.KeepAlive = scaled(10*time.Minute, scale)
	cfg.SLOTarget = 2 * time.Second
	tracer := obs.NewTracer(0)
	cfg.Tracer = tracer
	var settled, failed int
	cfg.OnResult = func(res faas.InvocationResult) {
		settled++
		if failedOutcome(res.Outcome) {
			failed++
		}
	}
	pl := faas.New(cfg)
	if err := registerAll(r, pl.Register); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg)
	obs.RegisterBuildInfo(reg, nil)
	rec := obs.NewRecorder(reg, 0)
	pl.AttachRecorder(rec, 0)
	ae := alert.New(alert.DefaultRules())
	ae.RegisterMetrics(reg, nil)
	pl.AttachAlerts(ae)
	w1 := workload.DefaultW1(functionNames())
	w1.Duration = scaled(w1.Duration, scale)
	w1.BurstGap = scaled(w1.BurstGap, scale)
	tr := genTrace(r, func() workload.Trace { return workload.W1Bursty(rand.New(rand.NewSource(seed)), w1) })
	return &system{
		trace: tr,
		run:   func() { pl.RunTrace(tr) },
		finish: func(r *rep, tailPct float64) {
			// No warm-up and no admission queue: the platform's e2e
			// histogram times every invocation from its trace arrival.
			var lat sim.Histogram
			lat.Merge(&pl.Metrics().All.E2E)
			finishSim(r, tailPct, pl.Engine().Now(), pl.Engine().Events(), &lat,
				settled, failed, int64(pl.Active()), pl.PeakMemory())
			nodeCounts(r, []*faas.Platform{pl})
			r.Layer["obs.spans_per_inv"] = perInv(float64(countSpans(tracer.Spans())), r)
			r.Layer["obs.recorder_samples"] = float64(rec.Samples())
			r.Layer["obs.series"] = float64(len(rec.Series()))
			r.Layer["alert.evals"] = float64(ae.Evals())
			r.Layer["alert.fired"] = float64(ae.FiredTotal())
		},
		export: func(r *rep) {
			t0 := time.Now()
			_ = reg.WritePrometheus(io.Discard) // io.Discard never fails
			r.Layer["obs.gather_ms"] = msSince(t0)
			t0 = time.Now()
			obs.Analyze(tracer.Spans(), 10)
			r.Layer["obs.analyze_ms"] = msSince(t0)
			t0 = time.Now()
			_ = obs.WriteChromeTrace(io.Discard, tracer.Spans())
			r.Layer["obs.chrome_export_ms"] = msSince(t0)
		},
	}, nil
}

// countSpans counts every span under the given roots, children included.
func countSpans(roots []*obs.Span) int {
	n := 0
	for _, root := range roots {
		root.Walk(func(int, *obs.Span) { n++ })
	}
	return n
}
