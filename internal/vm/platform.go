package vm

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config parameterizes an agent platform.
type Config struct {
	Policy  Policy
	Seed    int64
	Cores   int // physical cores (overcommit tests use 20)
	Costs   StartCosts
	Mem     MemModel
	Browser BrowserModel
	// PrePopulateEPT eagerly fills second-level page tables for hot
	// regions at startup (TrEnv policies only), trading a few extra
	// startup milliseconds for the removal of per-step EPT-fault VM
	// exits during execution (§8.1.3).
	PrePopulateEPT bool
	// Tracer, when non-nil, records a span tree per agent run (VM
	// startup plus every llm/tool/browser/fileio step).
	Tracer *obs.Tracer
}

// DefaultConfig returns the §9.6 testbed shape for a policy.
func DefaultConfig(policy Policy) Config {
	return Config{
		Policy:  policy,
		Seed:    1,
		Cores:   20,
		Costs:   DefaultStartCosts(),
		Mem:     DefaultMemModel(),
		Browser: DefaultBrowserModel(),
	}
}

// AgentMetrics holds per-agent-type results (milliseconds).
type AgentMetrics struct {
	Startup sim.Histogram
	E2E     sim.Histogram
}

// Platform runs agents in microVMs under one policy.
type Platform struct {
	cfg    Config
	eng    *sim.Engine
	cpu    *sim.Resource
	node   *mem.Tracker
	gauge  sim.Gauge
	perFn  map[string]*AgentMetrics
	llm    *LLMServer
	active int

	// sharedFileBytes tracks, per agent type, how much of the shared
	// base content is already host-cached (E2B+ mapping / TrEnv pmem
	// base device).
	sharedFileBytes map[string]int64
	browsers        []*BrowserInstance
	nextBrowserID   int
	nextTabOwner    int
	sbPool          int // cleaned VM sandboxes available for repurposing
	starting        int // concurrent starts (netns inflation)

	// lifecycle counters
	repurposed sim.Counter // starts served from the sandbox pool
	built      sim.Counter // starts that had to build a sandbox
	runs       sim.Counter // completed agent runs

	// pubs are the registry registrations: each owns the per-agent
	// histogram sets a newly seen agent is added to.
	pubs []*agentPub
}

// agentPub is one RegisterMetrics call's per-agent histogram sets.
type agentPub struct{ startup, e2e obs.HistogramSet }

func (p *agentPub) add(name string, m *AgentMetrics) {
	labels := map[string]string{"agent": name}
	p.startup.Add(labels, &m.Startup, nil)
	p.e2e.Add(labels, &m.E2E, nil)
}

// New builds a platform.
func New(cfg Config) (*Platform, error) {
	if err := cfg.Policy.validate(); err != nil {
		return nil, err
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 20
	}
	return &Platform{
		cfg:             cfg,
		eng:             sim.NewEngine(cfg.Seed),
		cpu:             sim.NewResource("cores", cfg.Cores),
		node:            mem.NewTracker("node", 0),
		perFn:           make(map[string]*AgentMetrics),
		llm:             NewLLMServer(),
		sharedFileBytes: make(map[string]int64),
	}, nil
}

// Engine returns the simulation engine.
func (pl *Platform) Engine() *sim.Engine { return pl.eng }

// LLM returns the replayed inference server.
func (pl *Platform) LLM() *LLMServer { return pl.llm }

// Metrics returns per-agent metrics (creating on first use). A new
// agent's histograms join every registration's series sets here.
func (pl *Platform) Metrics(name string) *AgentMetrics {
	m, ok := pl.perFn[name]
	if !ok {
		m = &AgentMetrics{}
		pl.perFn[name] = m
		for _, p := range pl.pubs {
			p.add(name, m)
		}
	}
	return m
}

// AgentNames returns names with recorded metrics, sorted.
func (pl *Platform) AgentNames() []string {
	var out []string
	for n := range pl.perFn {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PeakMemory returns the node high-water mark in bytes.
func (pl *Platform) PeakMemory() int64 { return pl.node.Peak() }

// MemoryGauge returns node memory over time.
func (pl *Platform) MemoryGauge() *sim.Gauge { return &pl.gauge }

func (pl *Platform) alloc(t time.Duration, n int64) {
	if n <= 0 {
		return
	}
	pl.node.MustAlloc(n)
	pl.gauge.Set(t, float64(pl.node.Used()))
}

func (pl *Platform) free(t time.Duration, n int64) {
	if n <= 0 {
		return
	}
	pl.node.Free(n)
	pl.gauge.Set(t, float64(pl.node.Used()))
}

// startVM pays the policy's startup path and charges the VM's initial
// memory. It returns the startup latency and the bytes to free at
// teardown.
func (pl *Platform) startVM(p *sim.Proc, prof agent.Profile) (time.Duration, int64) {
	c := pl.cfg.Costs
	pl.starting++
	var d time.Duration
	switch pl.cfg.Policy {
	case PolicyE2B, PolicyE2BPlus:
		netns := c.E2BNetNS + time.Duration(pl.starting-1)*c.E2BNetNSPerConc
		d = netns + c.E2BCgroupMigrate + c.E2BResume + c.E2BLazyRestore
		if pl.cfg.Policy == PolicyE2BPlus {
			d += c.E2BPlusRootfsMap
		}
	case PolicyVanillaCH:
		netns := c.E2BNetNS + time.Duration(pl.starting-1)*c.E2BNetNSPerConc
		copyCost := time.Duration(float64(c.CHImageBytes) * c.CHFullCopyPerByte * float64(time.Second))
		d = netns + c.E2BCgroupMigrate + c.CHDeviceRestore + copyCost
	case PolicyTrEnv, PolicyTrEnvS:
		if pl.sbPool > 0 {
			pl.sbPool--
			d = c.TrEnvRepurpose
			pl.repurposed.Inc()
		} else {
			d = c.SandboxCreate
			pl.built.Inc()
		}
		d += c.CHDeviceRestore + c.TrEnvAttach + c.TrEnvUnionMount
		if pl.cfg.PrePopulateEPT {
			d += c.EPTPrePopulate
		}
	}
	p.Sleep(d)
	pl.starting--

	base := prof.BaseMemBytes
	if pl.cfg.Policy.IsTrEnv() {
		// mm-template: only the CoW-written share of the base process
		// memory lands locally; the rest stays on the pool.
		base = int64(float64(base) * pl.cfg.Mem.TrEnvWrittenBaseFrac)
	}
	charged := pl.cfg.Mem.VMOverhead + base
	pl.alloc(p.Now(), charged)
	return d, charged
}

// chargeFileRead accounts a step's file reads per the policy's storage
// architecture. readStart is the VM's cumulative read offset before this
// step (every VM of a type reads the same base content in the same
// order, so offsets identify content). It returns the bytes to free at
// VM teardown.
func (pl *Platform) chargeFileRead(p *sim.Proc, prof agent.Profile, readStart, bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	switch pl.cfg.Policy {
	case PolicyE2B, PolicyVanillaCH:
		// virtio-blk: data cached in the guest AND re-cached by the host
		// hypervisor path (§2.4's duplication).
		pl.alloc(p.Now(), 2*bytes)
		return 2 * bytes
	case PolicyE2BPlus:
		// RunD mapping: guest page cache bypassed; the host copy is
		// shared across VMs reading the same base content.
		pl.alloc(p.Now(), pl.growShared(prof.Name, readStart, bytes))
		return 0 // shared cache persists beyond the VM
	default:
		// TrEnv pmem union: base device host-cached once across VMs; a
		// small residual lands in the VM (writable-layer buffers).
		newShared := pl.growShared(prof.Name, readStart, bytes)
		residual := int64(float64(bytes) * pl.cfg.Mem.TrEnvResidualCacheFrac)
		pl.alloc(p.Now(), newShared+residual)
		return residual
	}
}

// growShared returns how much of the read range [readStart,
// readStart+bytes) is not yet in the shared host cache for this agent
// type, advancing the high-water mark.
func (pl *Platform) growShared(name string, readStart, bytes int64) int64 {
	cur := pl.sharedFileBytes[name]
	end := readStart + bytes
	if end <= cur {
		return 0
	}
	pl.sharedFileBytes[name] = end
	if readStart > cur {
		cur = readStart
	}
	return end - cur
}

// acquireBrowser gives the agent a browser process tree: a private one
// (dedicated policies) or a tab set in a shared instance. ops bounds
// concurrent operations inside a shared instance (nil for dedicated);
// release tears the agent's share down.
func (pl *Platform) acquireBrowser(p *sim.Proc, prof agent.Profile) (ops *sim.Resource, release func()) {
	bm := pl.cfg.Browser
	// Tab owners are unique per run: concurrent instances of one agent
	// type each hold their own tab set.
	pl.nextTabOwner++
	owner := fmt.Sprintf("%s#%d", prof.Name, pl.nextTabOwner)
	if !pl.cfg.Policy.SharesBrowser() {
		// Dedicated browser per agent: the whole tree lives and dies
		// with this run.
		pl.nextBrowserID++
		b := NewBrowserInstance(pl.nextBrowserID, bm)
		if _, err := b.OpenTabs(owner, prof.Tabs); err != nil {
			panic(err)
		}
		total := b.MemBytes()
		pl.alloc(p.Now(), total)
		return nil, func() { pl.free(p.Now(), total) }
	}
	// Shared: find (or launch) an instance with a free slot; the utility
	// processes are paid once and stay resident for reuse.
	var host *BrowserInstance
	for _, b := range pl.browsers {
		if b.HasSlot() {
			host = b
			break
		}
	}
	if host == nil {
		pl.nextBrowserID++
		host = NewBrowserInstance(pl.nextBrowserID, bm)
		parallel := bm.Parallelism
		if parallel <= 0 {
			parallel = 4
		}
		host.Ops = sim.NewResource(fmt.Sprintf("browser-%d", host.ID), parallel)
		pl.browsers = append(pl.browsers, host)
		pl.alloc(p.Now(), host.MemBytes())
	}
	grown, err := host.OpenTabs(owner, prof.Tabs)
	if err != nil {
		panic(err)
	}
	pl.alloc(p.Now(), grown)
	return host.Ops, func() {
		freed, err := host.CloseTabs(owner)
		if err != nil {
			panic(err)
		}
		pl.free(p.Now(), freed)
	}
}

// SeedSandboxPool pre-warms the repurposable sandbox pool with n cleaned
// sandboxes (operator pre-provisioning); only TrEnv policies consume it.
func (pl *Platform) SeedSandboxPool(n int) {
	if n < 0 {
		panic("vm: negative sandbox seed")
	}
	pl.sbPool += n
}

// Launch schedules one agent run at virtual time at.
func (pl *Platform) Launch(at time.Duration, prof agent.Profile) {
	pl.eng.At(at, "agent/"+prof.Name, func(p *sim.Proc) { pl.runAgent(p, prof) })
}

func (pl *Platform) runAgent(p *sim.Proc, prof agent.Profile) {
	pl.active++
	defer func() { pl.active-- }()
	t0 := p.Now()
	startup, vmBytes := pl.startVM(p, prof)

	var root *obs.Span
	if pl.cfg.Tracer != nil {
		root = obs.NewSpan("agent/"+prof.Name, t0, t0)
		root.SetAttr("agent", prof.Name).SetAttr("policy", string(pl.cfg.Policy))
		root.Child("startup", t0, t0+startup)
	}

	var dynBytes, cacheBytes, readSoFar int64
	var browserOps *sim.Resource
	var releaseBrowser func()
	for _, s := range prof.Steps {
		stepStart := p.Now()
		switch s.Kind {
		case agent.LLMCall:
			pl.llm.Serve(p, s)
		case agent.ToolCPU, agent.FileIO:
			pl.onCPU(p, s.CPU+pl.vmExitOverhead())
		case agent.BrowserOp:
			if releaseBrowser == nil {
				browserOps, releaseBrowser = pl.acquireBrowser(p, prof)
				if !pl.cfg.Policy.SharesBrowser() {
					// Private browser: pay its cold launch.
					pl.onCPU(p, pl.cfg.Browser.DedicatedLaunchCPU)
				}
			}
			cpu := s.CPU
			if !pl.cfg.Policy.SharesBrowser() {
				cpu = time.Duration(float64(cpu) * (1 + pl.cfg.Browser.DedicatedCPUOverhead))
			}
			if browserOps != nil {
				// Shared instance: the op needs one of the browser's
				// worker slots as well as a physical core.
				browserOps.Acquire(p, 1)
			}
			pl.onCPU(p, cpu+pl.vmExitOverhead())
			if browserOps != nil {
				browserOps.Release(p.Engine(), 1)
			}
		}
		if s.MemBytes > 0 {
			pl.alloc(p.Now(), s.MemBytes)
			dynBytes += s.MemBytes
		}
		cacheBytes += pl.chargeFileRead(p, prof, readSoFar, s.FileBytes)
		readSoFar += s.FileBytes
		if root != nil {
			sp := root.Child(s.Kind.String(), stepStart, p.Now())
			attrs := s.SpanAttrs()
			keys := make([]string, 0, len(attrs))
			for k := range attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys) // a fixed attribute order, run to run
			for _, k := range keys {
				sp.SetAttr(k, attrs[k])
			}
		}
	}
	e2e := p.Now() - t0

	// Teardown: the VM and its private memory go away; shared host
	// caches and pooled browsers stay.
	if releaseBrowser != nil {
		releaseBrowser()
	}
	pl.free(p.Now(), vmBytes+dynBytes+cacheBytes)
	if pl.cfg.Policy.IsTrEnv() {
		pl.sbPool++
	}

	pl.runs.Inc()
	m := pl.Metrics(prof.Name)
	m.Startup.AddDuration(startup)
	m.E2E.AddDuration(e2e)
	if root != nil {
		root.End = p.Now()
		pl.cfg.Tracer.Record(root)
	}
}

// RegisterMetrics publishes the agent platform's metric surface into
// reg: per-agent startup/e2e histograms, lifecycle counters, and node
// memory gauges.
func (pl *Platform) RegisterMetrics(reg *obs.Registry) {
	p := &agentPub{}
	reg.HistogramSet("trenv_agent_startup_latency_ms", "Agent VM startup latency in milliseconds.", &p.startup)
	reg.HistogramSet("trenv_agent_e2e_latency_ms", "Agent run end-to-end latency in milliseconds.", &p.e2e)
	for _, name := range pl.AgentNames() {
		p.add(name, pl.perFn[name])
	}
	pl.pubs = append(pl.pubs, p)
	reg.CounterFunc("trenv_agent_runs_total", "Completed agent runs.", nil, pl.runs.Value)
	reg.CounterFunc("trenv_agent_repurposes_total", "VM starts served from the sandbox pool.", nil, pl.repurposed.Value)
	reg.CounterFunc("trenv_agent_builds_total", "VM starts that built a sandbox from scratch.", nil, pl.built.Value)
	reg.GaugeFunc("trenv_agent_node_mem_used_bytes", "Agent node DRAM currently in use.", nil,
		func() float64 { return float64(pl.node.Used()) })
}

// Repurposed / Built report how TrEnv starts were served.
func (pl *Platform) Repurposed() int64 { return pl.repurposed.Value() }

// Built reports sandbox constructions (pool misses).
func (pl *Platform) Built() int64 { return pl.built.Value() }

// Runs reports completed agent executions.
func (pl *Platform) Runs() int64 { return pl.runs.Value() }

// Summary renders a compact report across agents.
func (pl *Platform) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s runs=%d repurposed=%d built=%d peak=%.2fGB browsers=%d\n",
		pl.cfg.Policy, pl.Runs(), pl.Repurposed(), pl.Built(),
		float64(pl.PeakMemory())/(1<<30), len(pl.browsers))
	for _, name := range pl.AgentNames() {
		m := pl.perFn[name]
		fmt.Fprintf(&b, "  %-15s n=%d startup p99=%.1fms e2e p99=%.1fs"+"\n",
			name, m.E2E.N(), m.Startup.Percentile(99), m.E2E.Percentile(99)/1000)
	}
	return b.String()
}

// vmExitOverhead is the per-step cost of EPT faults on lazily-restored
// guest memory: read accesses to not-yet-mapped second-level pages exit
// to the hypervisor. Full-copy restores (vanilla CH) have everything
// mapped; TrEnv can remove it by pre-populating the EPT (§8.1.3).
func (pl *Platform) vmExitOverhead() time.Duration {
	switch pl.cfg.Policy {
	case PolicyVanillaCH:
		return 0
	case PolicyTrEnv, PolicyTrEnvS:
		if pl.cfg.PrePopulateEPT {
			return 0
		}
	}
	return pl.cfg.Costs.VMExitPerStep
}

func (pl *Platform) onCPU(p *sim.Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	pl.cpu.Acquire(p, 1)
	p.Sleep(d)
	pl.cpu.Release(p.Engine(), 1)
}

// Run executes all scheduled agents to completion.
func (pl *Platform) Run() { pl.eng.Run() }
