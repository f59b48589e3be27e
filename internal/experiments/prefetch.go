package experiments

import (
	"time"

	"repro/internal/faas"
	"repro/internal/sim"
	"repro/internal/workload"
)

// prefetchRun is one prefetch-on/off run's aggregated outcome.
type prefetchRun struct {
	invocations   int
	restoreP50    float64 // ms, startup + demand fetch + batch wait
	restoreP99    float64
	demandPages   int64 // demand remote fetches during exec
	prefetchPages int64 // pages delivered by batched replays
	hits          int64 // demand accesses a batch had covered
	promoted      int64 // pages redirected at the promotion cache
	batches       int64
	e2eP99        float64
}

// runPrefetch drives a 3-node TrEnv-CXL rack (0.4 hot fraction, so the
// cold tail of every image lives on RDMA and demand-faults lazily)
// through the Azure-like trace, with working-set prefetching on or off.
// Everything else — seed, trace, sizing — is identical, so the delta is
// the prefetcher. The keep-alive window is deliberately short (2 min
// paper-scale) so the trace keeps forcing template restores — the path
// prefetching attacks.
func runPrefetch(o Options, tr workload.Trace, on bool) prefetchRun {
	c := o.rack(workload.Table4(), func(cfg *faas.Config) {
		cfg.KeepAlive = o.dur(2 * time.Minute)
		if on {
			cfg.Prefetch = true
			cfg.PromoteThreshold = 2
		}
	})

	// Per-invocation restore cost: the start path plus the demand-fault
	// train execution pays against remote memory (and, with prefetch on,
	// the residual waits on in-flight batches).
	var restore sim.Histogram
	c.SetResultHook(func(node int, r faas.InvocationResult) {
		if r.Outcome != faas.OutcomeSuccess && r.Outcome != faas.OutcomeFallback {
			return
		}
		restore.AddDuration(r.Startup + r.FetchLat + r.PrefetchWait)
	})
	c.RunTrace(tr)

	var out prefetchRun
	var e2e sim.Histogram
	for _, node := range c.Nodes() {
		m := node.Metrics()
		out.invocations += m.Invocations()
		out.hits += m.PrefetchHits.Value()
		out.batches += m.PrefetchBatches.Value()
		out.promoted += m.PromotedPages.Value()
		fs := node.FaultStats()
		out.demandPages += fs.FetchedPages
		out.prefetchPages += fs.PrefetchedPages
		e2e.Merge(&m.All.E2E)
	}
	out.restoreP50 = restore.Percentile(50)
	out.restoreP99 = restore.Percentile(99)
	out.e2eP99 = e2e.Percentile(99)
	return out
}

// Prefetch is the working-set prefetching experiment: the same 3-node
// rack and Azure-like trace run twice, with and without batched
// working-set replay (+ hot-run promotion after 2 replays). The first
// run of each template records its fault order; every later restore
// replays it as doorbell-batched fetches racing the invocation, so the
// P99 restore cost (startup + demand-fetch latency) drops and demand
// remote faults are largely replaced by prefetched pages.
func Prefetch(o Options) *Result {
	o = o.normalize()
	r := &Result{ID: "prefetch", Title: "working-set prefetching: batched replay vs pure demand faulting",
		Notes: "3-node rack, Azure-like trace, hot fraction 0.4 (cold tail on rdma); on = batched replay + promotion after 2 replays"}
	tr := azureTrace(o)
	on := runPrefetch(o, tr, true)
	off := runPrefetch(o, tr, false)
	row := func(name string, a prefetchRun) {
		r.Addf("%-12s n=%6d restore p50=%7.2fms p99=%8.2fms e2e p99=%8.1fms demand-pages=%8d prefetched=%8d hits=%7d batches=%6d promoted=%7d",
			name, a.invocations, a.restoreP50, a.restoreP99, a.e2eP99,
			a.demandPages, a.prefetchPages, a.hits, a.batches, a.promoted)
	}
	row("prefetch-on", on)
	row("prefetch-off", off)
	if off.restoreP99 > 0 {
		r.Addf("restore p99 %.2fms -> %.2fms (%.1f%% lower); demand remote faults %d -> %d (%.1f%% fewer)",
			off.restoreP99, on.restoreP99, 100*(off.restoreP99-on.restoreP99)/off.restoreP99,
			off.demandPages, on.demandPages,
			100*float64(off.demandPages-on.demandPages)/float64(off.demandPages))
	}
	avg := 0.0
	if on.batches > 0 {
		avg = float64(on.prefetchPages) / float64(on.batches)
	}
	r.Addf("one doorbell RTT amortized over %.1f pages/batch on average; %d pages served direct from the promotion cache path",
		avg, on.promoted)
	return r
}
