package experiments

import (
	"time"

	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// availabilityScenario builds the chaos schedule the availability
// experiment injects: flaky fetches on the lazy (RDMA) cold pool across
// the whole run, a memory-server (CXL pool) outage window mid-trace,
// and a node crash inside that window. CXL pages are byte-addressable
// (RemoteDirect, no fetch), so flakiness targets the rdma fetch path
// while the outage hits template restores against the memory server.
func availabilityScenario(dur time.Duration) fault.Scenario {
	return fault.Scenario{
		FlakyFetches: []fault.FlakyFetch{{Pool: "rdma", Prob: 0.2, Burst: 2}},
		PoolOutages:  []fault.PoolOutage{{Pool: "cxl", From: dur / 2, To: dur * 7 / 10}},
		NodeCrashes:  []fault.NodeCrash{{Node: "n0", At: dur * 11 / 20}},
	}
}

// availRun is one chaos run's aggregated outcome.
type availRun struct {
	invocations  int
	errors       int64
	fallbacks    int64
	retries      int64
	crashAborts  int64
	redispatched int64
	wedged       int64
	p99          float64
	unavailSecs  int
	totalSecs    int
}

// runAvailability drives a 3-node TrEnv-CXL rack through the Azure-like
// trace under the availability chaos schedule. recovery=false disables
// both fetch retries (MaxAttempts=1) and the local-cold-start fallback,
// so the run shows what the failure window costs without the PR's
// recovery machinery.
func runAvailability(o Options, tr workload.Trace, recovery bool) availRun {
	c := o.rack(workload.Table4(), func(cfg *faas.Config) {
		if !recovery {
			cfg.DisableFallback = true
			rp := mem.DefaultRetryPolicy()
			rp.MaxAttempts = 1
			cfg.Retry = &rp
		}
	})
	if o.Hedge != nil {
		c.SetHedgePolicy(*o.Hedge)
	}

	// Per-virtual-second availability: a second with terminal outcomes
	// but no successful (or fallback-served) one counts as unavailable.
	type bucket struct{ total, good int }
	buckets := map[int]*bucket{}
	c.SetResultHook(func(node int, r faas.InvocationResult) {
		sec := int(c.Engine().Now() / time.Second)
		b := buckets[sec]
		if b == nil {
			b = &bucket{}
			buckets[sec] = b
		}
		if r.Outcome == faas.OutcomeCrashed {
			return // re-dispatched; its terminal outcome lands later
		}
		if r.Outcome == faas.OutcomeCancelled {
			return // hedge loser; the winning attempt already counted
		}
		b.total++
		if r.Outcome == faas.OutcomeSuccess || r.Outcome == faas.OutcomeFallback {
			b.good++
		}
	})

	inj := fault.NewInjector(c.Engine(), o.Seed, availabilityScenario(tr.Duration()))
	if o.Tracer != nil {
		inj.SetTracer(o.Tracer)
	}
	c.AttachChaos(inj)
	c.RunTrace(tr)

	var out availRun
	var e2e sim.Histogram
	for _, node := range c.Nodes() {
		m := node.Metrics()
		out.invocations += m.Invocations()
		out.errors += m.Errors.Value()
		out.fallbacks += m.Fallbacks.Value()
		out.retries += m.Retries.Value()
		out.crashAborts += m.CrashAborts.Value()
		e2e.Merge(&m.All.E2E)
	}
	out.redispatched = c.Redispatched()
	out.wedged = c.Wedged()
	out.p99 = e2e.Percentile(99)
	for _, b := range buckets {
		out.totalSecs++
		if b.total > 0 && b.good == 0 {
			out.unavailSecs++
		}
	}
	return out
}

// Availability is the failure-model experiment: a 3-node rack runs the
// Azure-like trace while the shared CXL memory server goes flaky
// (p=0.2, burst 2), then fully dark for 20% of the trace, and one node
// crashes inside the outage. With recovery on (retries + local-cold-
// start fallback + re-dispatch) every invocation still terminates and
// availability stays above zero through the outage; with recovery off
// the outage window turns into hard errors.
func Availability(o Options) *Result {
	o = o.normalize()
	r := &Result{ID: "availability", Title: "availability under memory-server outage + flaky fetches + node crash",
		Notes: "3-node rack, Azure-like trace; chaos: flaky rdma p=0.2 burst=2, cxl outage 50-70%, n0 crash at 55%"}
	tr := azureTrace(o)
	on := runAvailability(o, tr, true)
	off := runAvailability(o, tr, false)
	row := func(name string, a availRun) {
		avail := 100.0
		if a.totalSecs > 0 {
			avail = 100 * float64(a.totalSecs-a.unavailSecs) / float64(a.totalSecs)
		}
		r.Addf("%-12s n=%6d err=%5d fallback=%5d retries=%6d redispatched=%3d wedged=%d p99=%8.1fms unavailable=%3ds/%3ds (%5.1f%% avail)",
			name, a.invocations, a.errors, a.fallbacks, a.retries, a.redispatched, a.wedged, a.p99,
			a.unavailSecs, a.totalSecs, avail)
	}
	row("recovery-on", on)
	row("recovery-off", off)
	if on.wedged == 0 && off.wedged == 0 {
		r.Addf("zero wedged invocations in both modes: every dispatch ends in success, fallback, or typed error")
	} else {
		r.Addf("WEDGED INVOCATIONS DETECTED: on=%d off=%d", on.wedged, off.wedged)
	}
	r.Addf("recovery trades errors for latency: %d errors -> %d, p99 %.1fms -> %.1fms, unavailable %ds -> %ds",
		off.errors, on.errors, off.p99, on.p99, off.unavailSecs, on.unavailSecs)
	return r
}
