// Package trenv is a reproduction of "TrEnv: Transparently Share
// Serverless Execution Environments Across Different Functions and
// Nodes" (SOSP 2024) as a self-contained, deterministic simulation in
// pure Go.
//
// TrEnv attacks the two costs a serverless platform pays for every
// invocation — building an isolated sandbox and restoring the function's
// memory state — by (1) cleansing finished sandboxes into a universal,
// function-type-agnostic pool and *repurposing* them for whatever
// function is pending, and (2) replacing memory restoration with an
// mm-template: an in-kernel, process-independent memory descriptor whose
// page tables point into deduplicated images on shared CXL or RDMA
// memory pools, attached to a new process by copying only metadata.
//
// This package is the public facade over the full reproduction:
//
//   - NewContainerPlatform runs the container-based evaluation (faasd /
//     CRIU / REAP+ / FaaSnap+ / TrEnv-CXL / TrEnv-RDMA plus the Figure 21
//     ablations) on Table 4's ten functions under the W1/W2/industrial
//     workloads.
//   - NewAgentPlatform runs the VM-based LLM-agent evaluation (E2B, E2B+,
//     vanilla Cloud Hypervisor, TrEnv, TrEnv-S with browser sharing) on
//     Table 2's six agents.
//   - NewCluster shares one CXL pool — consolidated images, templates and
//     all — across several nodes (the rack-level deployment of §8.2).
//   - Experiments regenerates every table and figure of the paper's
//     evaluation; see also cmd/trenv-bench.
//
// Everything runs on a discrete-event engine over virtual time: a given
// seed reproduces results bit-for-bit, and thirty simulated minutes cost
// well under a second of wall clock. See DESIGN.md for the substitution
// map (what the paper ran on hardware vs. what is modeled here) and
// EXPERIMENTS.md for paper-vs-measured numbers.
package trenv

import (
	"io"
	"math/rand"
	"time"

	"repro/internal/agent"
	"repro/internal/alert"
	"repro/internal/cluster"
	"repro/internal/diff"
	"repro/internal/experiments"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mmtemplate"
	"repro/internal/obs"
	"repro/internal/pagetable"
	"repro/internal/prefetch"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/vm"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// Container-based platform (§4-§5, evaluated in §9.2-§9.5).

// ContainerPolicy selects the container platform's start strategy.
type ContainerPolicy = faas.Policy

// Container policies.
const (
	// Faasd is the plain cold-start baseline.
	Faasd ContainerPolicy = faas.PolicyFaasd
	// CRIU restores from snapshots with a full memory copy.
	CRIU ContainerPolicy = faas.PolicyCRIU
	// REAPPlus is REAP lazy restore with a recycled-netns pool.
	REAPPlus ContainerPolicy = faas.PolicyREAPPlus
	// FaaSnapPlus is FaaSnap async prefetch with a recycled-netns pool.
	FaaSnapPlus ContainerPolicy = faas.PolicyFaaSnapPlus
	// TrEnvCXL is repurposable sandboxes + mm-templates on a CXL pool.
	TrEnvCXL ContainerPolicy = faas.PolicyTrEnvCXL
	// TrEnvRDMA is repurposable sandboxes + mm-templates on an RDMA pool.
	TrEnvRDMA ContainerPolicy = faas.PolicyTrEnvRDMA
	// AblationReconfig enables sandbox repurposing only (Figure 21).
	AblationReconfig ContainerPolicy = faas.PolicyReconfig
	// AblationCgroup adds CLONE_INTO_CGROUP on top of repurposing.
	AblationCgroup ContainerPolicy = faas.PolicyCgroup
)

// ContainerConfig parameterizes a container platform.
type ContainerConfig = faas.Config

// ContainerPlatform is a single simulated node running one policy.
type ContainerPlatform = faas.Platform

// DefaultContainerConfig returns the testbed-like configuration.
func DefaultContainerConfig(policy ContainerPolicy) ContainerConfig {
	return faas.DefaultConfig(policy)
}

// NewContainerPlatform builds a container platform.
func NewContainerPlatform(cfg ContainerConfig) *ContainerPlatform {
	return faas.New(cfg)
}

// ---------------------------------------------------------------------
// VM-based agent platform (§6, evaluated in §9.6).

// AgentPolicy selects the agent platform variant.
type AgentPolicy = vm.Policy

// Agent platform policies.
const (
	// E2B is the Firecracker-style code-interpreter baseline.
	E2B AgentPolicy = vm.PolicyE2B
	// E2BPlus adds RunD's rootfs mapping to E2B.
	E2BPlus AgentPolicy = vm.PolicyE2BPlus
	// VanillaCH restores VMs with a full guest-memory copy.
	VanillaCH AgentPolicy = vm.PolicyVanillaCH
	// TrEnvVM uses repurposable sandboxes + mm-template VM restore +
	// virtio-pmem union storage.
	TrEnvVM AgentPolicy = vm.PolicyTrEnv
	// TrEnvVMShared additionally shares browser instances (§6.2).
	TrEnvVMShared AgentPolicy = vm.PolicyTrEnvS
)

// AgentConfig parameterizes an agent platform.
type AgentConfig = vm.Config

// AgentPlatform runs agents in microVMs under one policy.
type AgentPlatform = vm.Platform

// DefaultAgentConfig returns the §9.6 testbed shape.
func DefaultAgentConfig(policy AgentPolicy) AgentConfig {
	return vm.DefaultConfig(policy)
}

// NewAgentPlatform builds an agent platform.
func NewAgentPlatform(cfg AgentConfig) (*AgentPlatform, error) {
	return vm.New(cfg)
}

// ---------------------------------------------------------------------
// Rack-level clusters (§8.2).

// Cluster is a rack of container nodes sharing one CXL pool.
type Cluster = cluster.Cluster

// NewCluster builds an n-node rack of at most 64 nodes; cfg must use
// TrEnvCXL.
func NewCluster(n int, cfg ContainerConfig) (*Cluster, error) {
	return cluster.New(n, cfg)
}

// ShardedFleet is the multi-rack topology (§8.2): each function's image
// lives once in its home rack's CXL pool, other racks reach it over an
// RDMA fabric window, and each rack advances as its own simulation
// shard.
type ShardedFleet = cluster.ShardedFleet

// ShardedConfig sizes a ShardedFleet.
type ShardedConfig = cluster.ShardedConfig

// NewShardedFleet builds sc.Racks racks of sc.NodesPerRack nodes; cfg
// must use TrEnvCXL and leave Engine nil.
func NewShardedFleet(sc ShardedConfig, cfg ContainerConfig) (*ShardedFleet, error) {
	return cluster.NewShardedFleet(sc, cfg)
}

// HedgePolicy configures request hedging / speculative cloning on a
// Cluster's dispatcher (SetHedgePolicy).
type HedgePolicy = cluster.HedgePolicy

// HedgeMode selects how a hedge policy triggers extra attempts.
type HedgeMode = cluster.HedgeMode

// Hedge trigger modes: off, fixed delay, observed-percentile delay, or
// eager cloning at dispatch time.
const (
	HedgeOff        = cluster.HedgeOff
	HedgeDelay      = cluster.HedgeDelay
	HedgePercentile = cluster.HedgePercentile
	HedgeClone      = cluster.HedgeClone
)

// ParseHedgePolicy parses the hedge-policy grammar shared by
// trenv-bench -hedge and trenvd -hedge-policy: "off", "delay:<dur>",
// "p<pct>", or "clone:<n>", with optional "min=", "fallback=",
// "samples=", and "deadline=" modifiers.
func ParseHedgePolicy(spec string) (HedgePolicy, error) {
	return cluster.ParseHedgePolicy(spec)
}

// Invocation outcomes surfaced by the hedging dispatcher, re-exported
// for result-hook consumers: losing attempts are cancelled, deadlines
// produce deadline-exceeded, and invocations that outlive their crash
// re-dispatch budget settle as redispatch-exhausted.
const (
	OutcomeCancelled           = faas.OutcomeCancelled
	OutcomeDeadlineExceeded    = faas.OutcomeDeadline
	OutcomeRedispatchExhausted = faas.OutcomeRedispatchExhausted
)

// ---------------------------------------------------------------------
// Workloads.

// FunctionProfile describes one serverless function (Table 4).
type FunctionProfile = workload.FunctionProfile

// Functions returns the ten evaluated functions of Table 4.
func Functions() []FunctionProfile { return workload.Table4() }

// FunctionByName looks a Table 4 function up by name.
func FunctionByName(name string) (FunctionProfile, error) {
	return workload.ProfileByName(name)
}

// AgentProfile describes one LLM agent (Table 2).
type AgentProfile = agent.Profile

// Agents returns the six evaluated agents of Table 2.
func Agents() []AgentProfile { return agent.Table2() }

// AgentByName looks a Table 2 agent up by name.
func AgentByName(name string) (AgentProfile, error) { return agent.ByName(name) }

// Pricing carries the §2.3 cost-model constants.
type Pricing = agent.Pricing

// DefaultPricing returns the cost-study pricing.
func DefaultPricing() Pricing { return agent.DefaultPricing() }

// LLMCost computes Eq. 1 for an agent.
func LLMCost(a AgentProfile, pr Pricing) float64 { return agent.LLMCost(a, pr) }

// ServerlessCost computes Eq. 2 for an agent.
func ServerlessCost(a AgentProfile, pr Pricing) float64 { return agent.ServerlessCost(a, pr) }

// Trace is a time-ordered invocation list.
type Trace = workload.Trace

// Invocation is one entry of a Trace.
type Invocation = workload.Invocation

// AzureCSVOptions controls ingestion of Azure Functions CSV traces.
type AzureCSVOptions = workload.AzureCSVOptions

// ParseAzureCSV maps an Azure Functions trace's busiest rows onto
// simulated functions (see cmd/trenv-trace -from-csv).
func ParseAzureCSV(r io.Reader, rng *rand.Rand, opts AzureCSVOptions) (Trace, error) {
	return workload.ParseAzureCSV(r, rng, opts)
}

// WriteAgentTrace / ReadAgentTrace serialize recorded agent timelines
// (the §9.6 record-and-replay methodology).
func WriteAgentTrace(w io.Writer, p AgentProfile) error { return agent.WriteTrace(w, p) }

// ReadAgentTrace parses a recorded agent timeline.
func ReadAgentTrace(r io.Reader) (AgentProfile, error) { return agent.ReadTrace(r) }

// ---------------------------------------------------------------------
// Low-level substrate (the paper's primary contribution, exposed for
// building custom experiments).

// MemoryPool is a disaggregated memory pool (CXL/RDMA/NAS/tmpfs).
type MemoryPool = mem.Pool

// NewCXLPool returns a byte-addressable shared CXL pool.
func NewCXLPool(capacity int64) *MemoryPool {
	return mem.NewPool(mem.CXL, capacity, mem.DefaultLatencyModel())
}

// NewRDMAPool returns a message-based RDMA pool.
func NewRDMAPool(capacity int64) *MemoryPool {
	return mem.NewPool(mem.RDMA, capacity, mem.DefaultLatencyModel())
}

// Prot is a page-protection bitmask for template maps.
type Prot = pagetable.Prot

// Protection bits.
const (
	ProtRead  Prot = pagetable.Read
	ProtWrite Prot = pagetable.Write
	ProtExec  Prot = pagetable.Exec
)

// MapKind distinguishes anonymous from file-backed template maps.
type MapKind = pagetable.MapKind

// Map kinds.
const (
	MapAnon MapKind = pagetable.Anon
	MapFile MapKind = pagetable.File
)

// Snapshot is a function's checkpointed post-initialization state.
type Snapshot = snapshot.Snapshot

// WriteSnapshotImage / ReadSnapshotImage serialize CRIU-style image
// files.
func WriteSnapshotImage(w io.Writer, s *Snapshot) error { return snapshot.WriteImage(w, s) }

// ReadSnapshotImage parses a CRIU-style image file.
func ReadSnapshotImage(r io.Reader) (*Snapshot, error) { return snapshot.ReadImage(r) }

// TemplateRegistry is the mm-template registry (the kernel XArray).
type TemplateRegistry = mmtemplate.Registry

// Template is one process's mm-template.
type Template = mmtemplate.Template

// NewTemplateRegistry returns an empty registry.
func NewTemplateRegistry() *TemplateRegistry { return mmtemplate.NewRegistry() }

// Engine is the deterministic discrete-event engine experiments run on.
type Engine = sim.Engine

// NewEngine returns an engine seeded for reproducibility.
func NewEngine(seed int64) *Engine { return sim.NewEngine(seed) }

// Histogram collects latency samples with exact percentiles.
type Histogram = sim.Histogram

// ---------------------------------------------------------------------
// Working-set prefetching (batched remote fetch + hot-run promotion).
// Enabled on a container platform via ContainerConfig.Prefetch; the
// types below expose the machinery for custom experiments.

// WorkingSetLog is a template's recorded first-run fault order: a
// deterministic, seed-stable sequence of page runs that later restores
// replay as batched remote fetches.
type WorkingSetLog = pagetable.WorkingSetLog

// WorkingSetFetch is one contiguous page run of a WorkingSetLog.
type WorkingSetFetch = pagetable.WSFetch

// Prefetcher replays sealed working-set logs on template attach: it
// issues doorbell-batched fetches racing the invocation and promotes
// runs replayed often enough into the node's direct-access cache.
type Prefetcher = prefetch.Prefetcher

// PrefetchConfig sets the promotion threshold.
type PrefetchConfig = prefetch.Config

// PrefetchSummary reports what one restore's replay did (recording vs
// batches launched vs pages promoted); Prefetcher.OnRestore returns it.
type PrefetchSummary = prefetch.Summary

// DefaultPrefetchBatchPages is the doorbell batch size every replay
// uses: 64 pages (256 KB) per remote round trip.
const DefaultPrefetchBatchPages = prefetch.DefaultBatchPages

// NewPrefetcher builds a prefetcher over an optional promotion cache
// (nil disables promotion regardless of the threshold).
func NewPrefetcher(cache *PromotionCache, cfg PrefetchConfig) *Prefetcher {
	return prefetch.New(cache, cfg)
}

// PromotionCache is the capacity-bounded per-node direct-access cache
// hot working sets are promoted into (LRU eviction; evicted runs fall
// back to batched replay).
type PromotionCache = mem.PromotionCache

// NewPromotionCache returns a cache backed by a byte-addressable pool
// of the given capacity under the default latency model.
func NewPromotionCache(capacity int64) *PromotionCache {
	return mem.NewPromotionCache(capacity, mem.DefaultLatencyModel())
}

// ---------------------------------------------------------------------
// Observability (spans, metrics, exporters).

// Span is one node of an invocation trace tree over virtual time.
type Span = obs.Span

// Tracer collects root spans into a bounded ring.
type Tracer = obs.Tracer

// NewTracer returns a tracer keeping the most recent max root spans
// (0 selects the default capacity).
func NewTracer(max int) *Tracer { return obs.NewTracer(max) }

// MetricsRegistry gathers counters, gauges, and histograms for
// Prometheus text-format export.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// SpanLink is a causal reference from one span to another trace (a
// remote memory-pool fetch, an eviction's admitting invocation, ...).
type SpanLink = obs.Link

// TraceIDFor derives the deterministic 16-hex trace ID for a part
// sequence (node, function, sequence number, ...).
func TraceIDFor(parts ...string) string { return obs.TraceIDFor(parts...) }

// WriteChromeTrace renders root spans as Chrome trace-event JSON
// (loadable in chrome://tracing or Perfetto).
func WriteChromeTrace(w io.Writer, roots []*Span) error { return obs.WriteChromeTrace(w, roots) }

// WriteSpansJSONL streams root spans as one JSON object per line.
func WriteSpansJSONL(w io.Writer, roots []*Span) error { return obs.WriteJSONL(w, roots) }

// AnalysisReport summarizes recorded spans: top-k slowest invocations
// with critical paths, per-function phase attribution at P50/P99/P999,
// tail-vs-median diffs, and exemplar links.
type AnalysisReport = obs.Report

// PathStep is one hop on a critical path.
type PathStep = obs.PathStep

// HistogramExemplarLink resolves an exported exemplar to its trace.
type HistogramExemplarLink = obs.ExemplarLink

// AnalyzeSpans builds an AnalysisReport over recorded root spans
// (topK <= 0 selects the default top-10 slowest table).
func AnalyzeSpans(roots []*Span, topK int) *AnalysisReport { return obs.Analyze(roots, topK) }

// CriticalPath extracts the longest-child chain of one span tree.
func CriticalPath(root *Span) []PathStep { return obs.CriticalPath(root) }

// WriteFoldedStacks writes root spans as folded flamegraph stacks
// (`frame;frame count` lines, flamegraph.pl / speedscope compatible).
func WriteFoldedStacks(w io.Writer, roots []*Span) error { return obs.WriteFolded(w, roots) }

// ExemplarReservoir is a bounded deterministic reservoir of
// (value, trace ID) pairs per histogram bucket, exported in OpenMetrics
// exemplar syntax by MetricsRegistry.WritePrometheus.
type ExemplarReservoir = obs.ExemplarReservoir

// NewExemplarReservoir samples perBucket exemplars per bucket bound
// (nil bounds / perBucket <= 0 select defaults) with a seed-derived
// deterministic sampler.
func NewExemplarReservoir(bounds []float64, perBucket int, seed string) *ExemplarReservoir {
	return obs.NewExemplarReservoir(bounds, perBucket, seed)
}

// FlightRecorder snapshots a registry's series over virtual time into
// bounded ring-buffer time series (counters also carry a per-second
// rate of change). Attach one to a platform or cluster before RunTrace.
type FlightRecorder = obs.Recorder

// NewFlightRecorder returns a recorder over reg; capacity <= 0 selects
// the default per-series ring size.
func NewFlightRecorder(reg *MetricsRegistry, capacity int) *FlightRecorder {
	return obs.NewRecorder(reg, capacity)
}

// RecorderSet groups several runs' recorders under run names for one
// combined export (cmd/trenv-bench -timeseries).
type RecorderSet = obs.RecorderSet

// NewRecorderSet builds a set whose recorders sample every interval
// into rings of the given capacity (defaults apply when <= 0).
func NewRecorderSet(every time.Duration, capacity int) *RecorderSet {
	return obs.NewRecorderSet(every, capacity)
}

// SLO is a per-function latency objective (ContainerConfig.SLOTarget /
// SLOObjective configure the platform-wide default).
type SLO = obs.SLO

// SLOTracker records per-function event and breach counts and burn
// rates over sliding virtual-time windows; see ContainerPlatform.SLO.
type SLOTracker = obs.SLOTracker

// RegisterTracerDrops publishes a span tracer's drop counter
// (trenv_spans_dropped_total) into a metrics registry.
func RegisterTracerDrops(reg *MetricsRegistry, labels map[string]string, tr *Tracer) {
	obs.RegisterTracerDrops(reg, labels, tr)
}

// ---------------------------------------------------------------------
// Fault injection and failure recovery (deterministic chaos).

// FaultScenario schedules pool outages, latency degradation, flaky
// fetches, node crashes, and link flaps against virtual time.
type FaultScenario = fault.Scenario

// FaultInjector compiles a FaultScenario into the agent pools consult on
// every fetch. Same seed, same scenario => byte-identical chaos runs.
type FaultInjector = fault.Injector

// ChaosStatus is the armed schedule plus injected-fault counts by kind
// (the JSON shape of trenvd's GET /chaos).
type ChaosStatus = fault.Status

// NewFaultInjector compiles sc against eng's virtual clock with its own
// seeded rng (probabilistic faults never perturb the engine's stream).
// It returns sc.Validate's error for a scenario that breaks a chaos-spec
// rule, such as an empty outage window.
func NewFaultInjector(eng *Engine, seed int64, sc FaultScenario) (*FaultInjector, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return fault.NewInjector(eng, seed, sc), nil
}

// ParseChaosSpec parses a compact comma-separated chaos spec, e.g.
// "outage:cxl:10s-20s,flaky:rdma:0.2:burst=3,crash:n1:30s".
func ParseChaosSpec(spec string) (FaultScenario, error) { return fault.ParseSpec(spec) }

// CircuitBreaker tracks a node's pool-fetch failure rate and trips
// closed -> open -> half-open over virtual time.
type CircuitBreaker = fault.Breaker

// CircuitBreakerConfig tunes window, thresholds, and open duration.
type CircuitBreakerConfig = fault.BreakerConfig

// NewCircuitBreaker builds a breaker over a virtual clock.
func NewCircuitBreaker(cfg CircuitBreakerConfig, now func() time.Duration) *CircuitBreaker {
	return fault.NewBreaker(cfg, now)
}

// DefaultCircuitBreakerConfig returns the cluster's breaker tuning.
func DefaultCircuitBreakerConfig() CircuitBreakerConfig { return fault.DefaultBreakerConfig() }

// RetryPolicy bounds fetch retries (attempts, per-attempt deadline,
// exponential backoff); see ContainerConfig.Retry.
type RetryPolicy = mem.RetryPolicy

// DefaultRetryPolicy returns the fetch retry policy applied when chaos
// is attached without an explicit override.
func DefaultRetryPolicy() RetryPolicy { return mem.DefaultRetryPolicy() }

// InvocationResult is one invocation's terminal outcome (see
// ContainerConfig.OnResult and Cluster.SetResultHook). On a rack node,
// the node's OnResult sees it first; the attempt then returns it to the
// cluster's hedger, which settles it and hands it to the result hook.
type InvocationResult = faas.InvocationResult

// Invocation outcomes.
const (
	// OutcomeSuccess is a normally completed invocation.
	OutcomeSuccess = faas.OutcomeSuccess
	// OutcomeFallback completed via a local cold start after the remote
	// pool was unavailable (graceful degradation).
	OutcomeFallback = faas.OutcomeFallback
	// OutcomeError is a typed failure (no silent losses).
	OutcomeError = faas.OutcomeError
	// OutcomeCrashed was aborted by a node crash; clusters re-dispatch it.
	OutcomeCrashed = faas.OutcomeCrashed
)

// ---------------------------------------------------------------------
// Alerting (see internal/alert): rules evaluated on the virtual clock
// against flight-recorder series and SLO burn rates, with incident
// capture linking each firing to the worst invocations' critical paths.

// AlertRule is one compiled alerting rule (threshold, rate, burn, or
// absence, each with a for-duration hysteresis).
type AlertRule = alert.Rule

// AlertEngine evaluates rules on the recorder's sampling instants and
// captures incidents; attach via ContainerPlatform.AttachAlerts or
// Cluster.AttachAlerts alongside a flight recorder.
type AlertEngine = alert.Engine

// AlertSet groups one engine per run under run names for one combined
// export (cmd/trenv-bench -alerts).
type AlertSet = alert.Set

// AlertIncident is one captured firing: virtual-time lifecycle, the
// offending series window, and trace links to the worst invocations.
type AlertIncident = alert.Incident

// NewAlertEngine compiles rules into an engine.
func NewAlertEngine(rules []AlertRule) *AlertEngine { return alert.New(rules) }

// NewAlertSet builds a set whose engines all compile the same rules.
func NewAlertSet(rules []AlertRule) *AlertSet { return alert.NewSet(rules) }

// ParseAlertRules parses a compact comma-separated rule spec, e.g.
// "rate:errors:trenv_errors_total:>0.5:for=2s,burn:slo:*:1m@14x|5m@2x".
func ParseAlertRules(spec string) ([]AlertRule, error) { return alert.ParseSpec(spec) }

// LoadAlertRules resolves a -rules argument: "@path" reads a rule file
// (blank lines and #-comments ignored), anything else parses as a spec.
func LoadAlertRules(arg string) ([]AlertRule, error) { return alert.Load(arg) }

// DefaultAlertRules returns the built-in rule set: fallback storms, an
// open circuit breaker, error-rate spikes, and fast+slow SLO burn.
func DefaultAlertRules() []AlertRule { return alert.DefaultRules() }

// ---------------------------------------------------------------------
// Experiment harness (every table and figure of the evaluation).

// ExperimentOptions control experiment seed and scale.
type ExperimentOptions = experiments.Options

// ExperimentResult is one regenerated table/figure.
type ExperimentResult = experiments.Result

// RunExperiment regenerates one table or figure by ID ("table1".."fig26").
// It returns false if the ID is unknown.
func RunExperiment(id string, o ExperimentOptions) (*ExperimentResult, bool) {
	run, ok := experiments.ByID(id)
	if !ok {
		return nil, false
	}
	return run(o), true
}

// ExperimentIDs lists every experiment in presentation order.
func ExperimentIDs() []string {
	var out []string
	for _, e := range experiments.All() {
		out = append(out, e.ID)
	}
	return out
}

// ---------------------------------------------------------------------
// Build identity.

// Version returns the module version recorded by the Go toolchain
// ("(devel)" for source builds).
func Version() string { return obs.Version() }

// RegisterBuildInfo registers the trenv_build_info identity gauge
// (constant 1; go_version and module version in the labels).
func RegisterBuildInfo(reg *MetricsRegistry, labels map[string]string) {
	obs.RegisterBuildInfo(reg, labels)
}

// ---------------------------------------------------------------------
// Run reports and differential analysis (see internal/report and
// internal/diff; cmd/trenv-diff is the CLI).

// RunReport is the schema-stable trenv-report/v1 bundle: run identity
// (seed, scale, flags, build version), gathered metrics, flight-recorder
// series, figure rows, trace analytics, and a virtual-time-ordered span
// list. Same seed => byte-identical bundles.
type RunReport = report.Report

// RunReportSchema identifies the bundle layout.
const RunReportSchema = report.Schema

// NewRunReport returns an empty bundle stamped with the run's identity.
func NewRunReport(source string, seed int64, scale float64) *RunReport {
	return report.New(source, seed, scale)
}

// RunReportFromPlatform bundles a finished single-node run.
func RunReportFromPlatform(source string, scale float64, pl *ContainerPlatform) *RunReport {
	return report.FromPlatform(source, scale, pl)
}

// RunReportFromCluster bundles a finished rack run (tracer may be nil).
func RunReportFromCluster(source string, scale float64, c *Cluster, tracer *Tracer) *RunReport {
	return report.FromCluster(source, scale, c, tracer)
}

// ReadRunReport parses the trenv-report/v1 bundle at path.
func ReadRunReport(path string) (*RunReport, error) { return report.ReadFile(path) }

// DiffOptions tune a report comparison (tolerance bands).
type DiffOptions = diff.Options

// DiffResult is a ranked comparison outcome: findings and — for
// same-seed span-carrying pairs — the first divergent span.
type DiffResult = diff.Result

// DiffFinding is one attributed difference between two reports.
type DiffFinding = diff.Finding

// DiffDivergence names the first span where two same-seed runs disagree.
type DiffDivergence = diff.Divergence

// DiffMismatchError reports artifacts that refuse comparison (schema,
// source, seed, or scale disagree).
type DiffMismatchError = diff.MismatchError

// CompareRunReports diffs fresh against base. Incomparable pairs return
// *DiffMismatchError; every other outcome is a DiffResult whose
// Regressed method answers "should this fail a gate".
func CompareRunReports(base, fresh *RunReport, o DiffOptions) (*DiffResult, error) {
	return diff.Compare(base, fresh, o)
}
