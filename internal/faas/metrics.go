package faas

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// FnMetrics collects per-function latency distributions (milliseconds).
type FnMetrics struct {
	Startup sim.Histogram
	Exec    sim.Histogram
	E2E     sim.Histogram
	// E2EExemplars, when tracing is on, keeps per-bucket (value, trace)
	// exemplars for the E2E distribution so /metrics tail buckets link
	// to the exact invocation's span tree.
	E2EExemplars *obs.ExemplarReservoir
}

// Metrics aggregates a platform run.
type Metrics struct {
	PerFn map[string]*FnMetrics
	All   FnMetrics

	WarmHits         sim.Counter
	ColdStarts       sim.Counter // sandbox built from scratch
	Repurposes       sim.Counter
	Restores         sim.Counter // criu / lazy restores
	Evictions        sim.Counter
	Queued           sim.Counter // invocations that waited for a per-function slot
	Promotions       sim.Counter // hot working sets promoted to local DRAM
	CleanRestores    sim.Counter // Groundhog-style post-request scrubs
	Errors           sim.Counter
	Fallbacks        sim.Counter // local cold starts taken because the pool was unavailable
	Retries          sim.Counter // fetch attempts replayed after injected faults
	CrashAborts      sim.Counter // invocations aborted by a node crash (re-dispatchable)
	Cancelled        sim.Counter // attempts cooperatively cancelled (hedge losers)
	DeadlineExceeded sim.Counter // attempts abandoned past Config.Deadline

	// Working-set prefetching (Config.Prefetch). Hits are demand
	// accesses a batch had covered; Misses are demand fetches the replay
	// did not cover in time.
	PrefetchRecordings sim.Counter   // first runs that recorded a working-set log
	PrefetchLaunches   sim.Counter   // restores that replayed (or promoted) a sealed log
	PrefetchBatches    sim.Counter   // batched fetches issued by replays
	PrefetchPages      sim.Counter   // pages delivered by batched fetches
	PrefetchHits       sim.Counter   // demand accesses served by an in-flight/landed batch
	PrefetchMisses     sim.Counter   // demand fetches with prefetch active
	PromotedPages      sim.Counter   // pages redirected at the promotion cache
	PrefetchBatchSize  sim.Histogram // pages per batch, one sample per replaying restore

	// pubs are the registry registrations: each owns the per-function
	// histogram sets a newly seen function is added to.
	pubs []*metricsPub
}

// metricsPub is one RegisterLabeled call's per-function histogram sets.
type metricsPub struct {
	labels             map[string]string
	e2e, startup, exec obs.HistogramSet
}

// add publishes one function's histograms ("_all" for the aggregate).
// The E2E reservoir is read at export time: it only exists once tracing
// has observed an exemplar.
func (p *metricsPub) add(name string, fm *FnMetrics) {
	labels := map[string]string{"function": name}
	for k, v := range p.labels {
		labels[k] = v
	}
	p.e2e.Add(labels, &fm.E2E, func() *obs.ExemplarReservoir { return fm.E2EExemplars })
	p.startup.Add(labels, &fm.Startup, nil)
	p.exec.Add(labels, &fm.Exec, nil)
}

// NewMetrics returns empty metrics.
func NewMetrics() *Metrics {
	return &Metrics{PerFn: make(map[string]*FnMetrics)}
}

// Fn returns (creating if needed) the per-function metrics. A new
// function's histograms join every registration's series sets here.
func (m *Metrics) Fn(name string) *FnMetrics {
	fm, ok := m.PerFn[name]
	if !ok {
		fm = &FnMetrics{}
		m.PerFn[name] = fm
		for _, p := range m.pubs {
			p.add(name, fm)
		}
	}
	return fm
}

// Record stores one invocation's outcome.
func (m *Metrics) Record(fn string, st core.Startup, es core.ExecStats, e2e time.Duration) {
	fm := m.Fn(fn)
	fm.Startup.AddDuration(st.Total())
	fm.Exec.AddDuration(es.Total)
	fm.E2E.AddDuration(e2e)
	m.All.Startup.AddDuration(st.Total())
	m.All.Exec.AddDuration(es.Total)
	m.All.E2E.AddDuration(e2e)
	switch st.Path {
	case core.PathWarm:
		m.WarmHits.Inc()
	case core.PathCold:
		m.ColdStarts.Inc()
	case core.PathRepurpose:
		m.Repurposes.Inc()
	case core.PathCRIU, core.PathLazyVM:
		m.Restores.Inc()
	case core.PathFallback:
		// A fallback still builds a sandbox from scratch; Fallbacks is
		// counted at the decision point, ColdStarts here.
		m.ColdStarts.Inc()
	}
}

// ObserveExemplar links one post-warmup invocation's E2E latency (ms)
// to its trace, in both the function's reservoir and the aggregate.
// Reservoir sampling streams are seeded per series, so a fixed
// simulation seed retains the exact same exemplars.
func (m *Metrics) ObserveExemplar(fn string, ms float64, traceID string) {
	fm := m.Fn(fn)
	if fm.E2EExemplars == nil {
		fm.E2EExemplars = obs.NewExemplarReservoir(nil, 0, "e2e/"+fn)
	}
	fm.E2EExemplars.Observe(ms, traceID)
	if m.All.E2EExemplars == nil {
		m.All.E2EExemplars = obs.NewExemplarReservoir(nil, 0, "e2e/_all")
	}
	m.All.E2EExemplars.Observe(ms, traceID)
}

// ExemplarLinks flattens every retained E2E exemplar into resolvable
// links (sorted by function, bucket, then reservoir slot) for the
// analyzer report.
func (m *Metrics) ExemplarLinks() []obs.ExemplarLink {
	var out []obs.ExemplarLink
	add := func(fn string, res *obs.ExemplarReservoir) {
		if res == nil {
			return
		}
		for _, b := range res.Snapshot() {
			for _, e := range b.Exemplars {
				out = append(out, obs.ExemplarLink{
					Series:  `trenv_e2e_latency_ms{function="` + fn + `"}`,
					Le:      obs.FormatLe(b.UpperBound),
					Value:   e.Value,
					TraceID: e.TraceID,
				})
			}
		}
	}
	add("_all", m.All.E2EExemplars)
	for _, name := range m.Functions() {
		add(name, m.PerFn[name].E2EExemplars)
	}
	return out
}

// Invocations returns the recorded invocation count.
func (m *Metrics) Invocations() int { return m.All.E2E.N() }

// Functions returns the recorded function names, sorted.
func (m *Metrics) Functions() []string {
	names := make([]string, 0, len(m.PerFn))
	for n := range m.PerFn {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Summary renders a compact human-readable report.
func (m *Metrics) Summary() string {
	s := fmt.Sprintf("invocations=%d warm=%d cold=%d repurposed=%d restored=%d evicted=%d errors=%d\n",
		m.Invocations(), m.WarmHits.Value(), m.ColdStarts.Value(), m.Repurposes.Value(),
		m.Restores.Value(), m.Evictions.Value(), m.Errors.Value())
	s += fmt.Sprintf("  e2e(ms): %s\n", m.All.E2E.Summary())
	s += fmt.Sprintf("  startup(ms): %s\n", m.All.Startup.Summary())
	return s
}

// Register publishes the run's counters and latency histograms into an
// observability registry. Histograms export per function (label
// function=<name>) plus the aggregate as function="_all"; a function
// first invoked after registration is added to the registration's
// series sets when Fn first sees it.
func (m *Metrics) Register(reg *obs.Registry) { m.RegisterLabeled(reg, nil) }

// RegisterLabeled is Register with extra labels merged into every
// series (node="n3", rack="r0"...), so many nodes' metrics share one
// fleet-wide registry without colliding.
func (m *Metrics) RegisterLabeled(reg *obs.Registry, labels map[string]string) {
	counters := []struct {
		name, help string
		c          *sim.Counter
	}{
		{"trenv_warm_hits_total", "Invocations served by a kept-alive instance.", &m.WarmHits},
		{"trenv_cold_starts_total", "Sandboxes built from scratch.", &m.ColdStarts},
		{"trenv_repurposes_total", "Starts served by repurposing a pooled sandbox.", &m.Repurposes},
		{"trenv_restores_total", "CRIU / lazy memory restores.", &m.Restores},
		{"trenv_evictions_total", "Idle instances evicted for the soft memory cap.", &m.Evictions},
		{"trenv_queued_total", "Invocations that waited for a per-function slot.", &m.Queued},
		{"trenv_promotions_total", "Hot working sets promoted to local DRAM.", &m.Promotions},
		{"trenv_clean_restores_total", "Groundhog-style post-request scrubs.", &m.CleanRestores},
		{"trenv_errors_total", "Failed invocations (unknown function, start or exec failure).", &m.Errors},
		{"trenv_fallbacks_total", "Local cold starts taken because the restore pool was unavailable.", &m.Fallbacks},
		{"trenv_retries_total", "Fetch attempts replayed after injected faults.", &m.Retries},
		{"trenv_crash_aborts_total", "Invocations aborted by a node crash (re-dispatchable, not errors).", &m.CrashAborts},
		{"trenv_cancelled_total", "Attempts cooperatively cancelled by their dispatcher (hedge losers).", &m.Cancelled},
		{"trenv_deadline_exceeded_total", "Attempts abandoned past the per-invocation deadline.", &m.DeadlineExceeded},
		{"trenv_prefetch_recordings_total", "First runs that recorded a working-set log.", &m.PrefetchRecordings},
		{"trenv_prefetch_launches_total", "Restores that replayed (or promoted) a sealed working-set log.", &m.PrefetchLaunches},
		{"trenv_prefetch_batches_total", "Batched fetches issued by working-set replays.", &m.PrefetchBatches},
		{"trenv_prefetch_pages_total", "Pages delivered by batched prefetch fetches.", &m.PrefetchPages},
		{"trenv_prefetch_hits_total", "Demand accesses served by an in-flight or landed prefetch batch.", &m.PrefetchHits},
		{"trenv_prefetch_misses_total", "Demand fetches issued while prefetch was active.", &m.PrefetchMisses},
		{"trenv_promoted_pages_total", "Pages redirected at the hot-run promotion cache.", &m.PromotedPages},
	}
	for _, c := range counters {
		c := c
		reg.CounterFunc(c.name, c.help, labels, c.c.Value)
	}
	reg.CounterFunc("trenv_invocations_total", "Recorded (post-warmup) invocations.", labels,
		func() int64 { return int64(m.Invocations()) })
	reg.Histogram("trenv_prefetch_batch_pages",
		"Pages per prefetch batch (one sample per replaying restore).", labels, &m.PrefetchBatchSize)
	p := &metricsPub{labels: labels}
	reg.HistogramSet("trenv_e2e_latency_ms", "End-to-end invocation latency in milliseconds.", &p.e2e)
	reg.HistogramSet("trenv_startup_latency_ms", "Instance startup latency in milliseconds.", &p.startup)
	reg.HistogramSet("trenv_exec_latency_ms", "Function execution latency in milliseconds.", &p.exec)
	p.add("_all", &m.All)
	for _, name := range m.Functions() {
		p.add(name, m.PerFn[name])
	}
	m.pubs = append(m.pubs, p)
}

// FnExport is a serializable per-function summary.
type FnExport struct {
	Invocations  int     `json:"invocations"`
	E2EP50Ms     float64 `json:"e2e_p50_ms"`
	E2EP99Ms     float64 `json:"e2e_p99_ms"`
	StartupP99Ms float64 `json:"startup_p99_ms"`
	ExecP99Ms    float64 `json:"exec_p99_ms"`
}

// Export is a serializable view of a run's metrics, for control planes
// and result files.
type Export struct {
	Invocations      int                 `json:"invocations"`
	WarmHits         int64               `json:"warm_hits"`
	ColdStarts       int64               `json:"cold_starts"`
	Repurposes       int64               `json:"repurposes"`
	Restores         int64               `json:"restores"`
	Evictions        int64               `json:"evictions"`
	Queued           int64               `json:"queued"`
	Promotions       int64               `json:"promotions"`
	CleanRestores    int64               `json:"clean_restores"`
	Errors           int64               `json:"errors"`
	Fallbacks        int64               `json:"fallbacks"`
	Retries          int64               `json:"retries"`
	CrashAborts      int64               `json:"crash_aborts"`
	Cancelled        int64               `json:"cancelled,omitempty"`
	DeadlineExceeded int64               `json:"deadline_exceeded,omitempty"`
	PrefetchHits     int64               `json:"prefetch_hits,omitempty"`
	PrefetchMiss     int64               `json:"prefetch_misses,omitempty"`
	PrefetchPages    int64               `json:"prefetch_pages,omitempty"`
	PromotedPages    int64               `json:"promoted_pages,omitempty"`
	E2EP50Ms         float64             `json:"e2e_p50_ms"`
	E2EP99Ms         float64             `json:"e2e_p99_ms"`
	StartupP99Ms     float64             `json:"startup_p99_ms"`
	PerFunction      map[string]FnExport `json:"per_function"`
}

// Export snapshots the metrics into a serializable structure.
func (m *Metrics) Export() Export {
	out := Export{
		Invocations:      m.Invocations(),
		WarmHits:         m.WarmHits.Value(),
		ColdStarts:       m.ColdStarts.Value(),
		Repurposes:       m.Repurposes.Value(),
		Restores:         m.Restores.Value(),
		Evictions:        m.Evictions.Value(),
		Queued:           m.Queued.Value(),
		Promotions:       m.Promotions.Value(),
		CleanRestores:    m.CleanRestores.Value(),
		Errors:           m.Errors.Value(),
		Fallbacks:        m.Fallbacks.Value(),
		Retries:          m.Retries.Value(),
		CrashAborts:      m.CrashAborts.Value(),
		Cancelled:        m.Cancelled.Value(),
		DeadlineExceeded: m.DeadlineExceeded.Value(),
		PrefetchHits:     m.PrefetchHits.Value(),
		PrefetchMiss:     m.PrefetchMisses.Value(),
		PrefetchPages:    m.PrefetchPages.Value(),
		PromotedPages:    m.PromotedPages.Value(),
		E2EP50Ms:         m.All.E2E.Percentile(50),
		E2EP99Ms:         m.All.E2E.Percentile(99),
		StartupP99Ms:     m.All.Startup.Percentile(99),
		PerFunction:      make(map[string]FnExport, len(m.PerFn)),
	}
	for name, fm := range m.PerFn {
		out.PerFunction[name] = FnExport{
			Invocations:  fm.E2E.N(),
			E2EP50Ms:     fm.E2E.Percentile(50),
			E2EP99Ms:     fm.E2E.Percentile(99),
			StartupP99Ms: fm.Startup.Percentile(99),
			ExecP99Ms:    fm.Exec.Percentile(99),
		}
	}
	return out
}
