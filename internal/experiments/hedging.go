package experiments

import (
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// hedgeChaos is Part B's flaky-RDMA schedule: each lazy fetch attempt
// rolls a p=0.02 failure that opens a burst of 5 correlated failures —
// under the patient reconnect policy below, an unlucky restore burns
// the whole burst in backoff and stalls for seconds.
func hedgeChaos() fault.Scenario {
	return fault.Scenario{
		FlakyFetches: []fault.FlakyFetch{{Pool: "rdma", Prob: 0.02, Burst: 5}},
	}
}

// hedgeRetry is Part B's fetch retry policy: reconnect-scale backoff
// (hundreds of ms, capped at 2s) instead of the default RDMA
// microsecond schedule. A flaky burst then shows up as a multi-second
// stall on one attempt — recoverable, but only by racing a second
// attempt somewhere else — rather than as a fast typed error.
func hedgeRetry() *mem.RetryPolicy {
	return &mem.RetryPolicy{
		MaxAttempts: 6,
		Deadline:    5 * time.Millisecond,
		BackoffBase: 100 * time.Millisecond,
		BackoffMax:  2 * time.Second,
	}
}

// poissonTrace draws a single-function Poisson arrival process at rate
// invocations/sec for duration d.
func poissonTrace(seed int64, fn string, rate float64, d time.Duration) workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	var tr workload.Trace
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at > d {
			return tr
		}
		tr = append(tr, workload.Invocation{At: at, Function: fn})
	}
}

// hedgeRun aggregates one cluster run's settle-latency distribution and
// hedging counters.
type hedgeRun struct {
	settle    sim.Histogram // ms, one sample per settled invocation
	hedged    int64
	wins      int64
	skips     int64
	cancelled int64
	wedged    int64
}

func (h *hedgeRun) meanMS() float64 { return h.settle.Mean() }
func (h *hedgeRun) p99MS() float64  { return h.settle.Percentile(99) }

// runHedged drives tr through a 3-node TrEnv-CXL rack with the given
// hedge policy (nil = unhedged) and returns settle-time stats. cores
// bounds each node's parallelism (0 = default 64) so clone sweeps can
// saturate the rack at CI scale; hotFraction 1 keeps every page
// byte-addressable in CXL (no RDMA traffic at all), lower values leave
// a cold tail on the flaky fetch path; keepAlive 0 keeps the default
// warm window while sub-interarrival values force every invocation
// through a fresh remote restore; retry overrides the fetch retry
// policy; chaos toggles the flaky-RDMA schedule.
func runHedged(o Options, tr workload.Trace, profiles []workload.FunctionProfile, cores int, hotFraction float64, keepAlive time.Duration, retry *mem.RetryPolicy, chaos bool, hp *cluster.HedgePolicy) hedgeRun {
	c := o.rack(profiles, func(cfg *faas.Config) {
		cfg.Cores = cores
		if keepAlive > 0 {
			cfg.KeepAlive = keepAlive
		}
		cfg.HotFraction = hotFraction
		cfg.Retry = retry
	})
	if hp != nil {
		c.SetHedgePolicy(*hp)
	}
	var out hedgeRun
	c.SetSettleHook(func(fn string, latency time.Duration, r faas.InvocationResult) {
		out.settle.AddDuration(latency)
	})
	if chaos {
		inj := fault.NewInjector(c.Engine(), o.Seed, hedgeChaos())
		if o.Tracer != nil {
			inj.SetTracer(o.Tracer)
		}
		c.AttachChaos(inj)
	}
	c.RunTrace(tr)
	out.hedged = c.Hedged()
	out.wins = c.HedgeWins()
	out.skips = c.HedgeSkips()
	out.cancelled = c.Cancelled()
	out.wedged = c.Wedged()
	return out
}

// Hedging is the tail-latency experiment, in two parts.
//
// Part A sweeps eager clone factor x offered load for one function on a
// 3x1-core rack with every page in CXL (no RDMA, no chaos) and
// reproduces the PS-model shape: dispatch routes warm-first regardless
// of queue depth, so a clone races the possibly-queued warm node
// against an idle one — a slight tail win at low utilization, a wash to
// a loss at moderate load, and a meltdown near saturation where losing
// clones eat the cores the primaries needed.
//
// Part B is hedged-restore racing: keep-alive sits below the
// inter-arrival gap, so every DH invocation restores fresh and lazily
// fetches its cold tail over flaky RDMA under a patient reconnect
// policy — a burst turns one restore into a multi-second stall. A
// fixed-delay hedge launches a second restore on another node once the
// primary runs 400ms past dispatch; the burst has drained by then, so
// the hedge restores clean and end-to-end p99 lands strictly below the
// unhedged run's.
func Hedging(o Options) *Result {
	o = o.normalize()
	r := &Result{ID: "hedging", Title: "request hedging & speculative cloning under flaky-RDMA tail latency",
		Notes: "3-node rack; A: clone x load sweep on 1-core nodes (PS-model, no chaos), B: delay:400ms restore racing vs flaky rdma p=0.02 burst=5 + reconnect backoff"}

	// Part A: clone factor x load on 3 nodes x 1 core, every page in CXL
	// (no RDMA, no chaos) — the pure processor-sharing trade.
	prof, err := workload.ProfileByName("IR")
	if err != nil {
		panic("experiments: hedging profile: " + err.Error())
	}
	// IR on CXL runs ~90ms * 1.85 plus restore overhead, ~240ms/service.
	const serviceSecs = 0.24
	dur := o.dur(4 * time.Minute)
	for _, rho := range []float64{0.1, 0.4, 0.8} {
		rate := rho * 3 / serviceSecs
		tr := poissonTrace(o.Seed+41, prof.Name, rate, dur)
		for _, clones := range []int{1, 2, 3} {
			var hp *cluster.HedgePolicy
			if clones > 1 {
				hp = &cluster.HedgePolicy{Mode: cluster.HedgeClone, Clones: clones}
			}
			run := runHedged(o, tr, []workload.FunctionProfile{prof}, 1, 1, 0, nil, false, hp)
			r.Addf("clone=%d rho=%.1f n=%5d mean=%8.1fms p99=%8.1fms hedged=%5d cancelled=%5d wedged=%d",
				clones, rho, run.settle.N(), run.meanMS(), run.p99MS(), run.hedged, run.cancelled, run.wedged)
		}
	}

	// Part B: hedged-restore racing. DH reads past the hot fraction
	// (ReadFrac 0.55 > 0.4), so every fresh restore lazily fetches over
	// the flaky rdma pool; the 400ms trigger sits above the clean
	// restore+exec latency (~90ms) and below the burst stalls (2.5s+).
	dh, err := workload.ProfileByName("DH")
	if err != nil {
		panic("experiments: hedging profile: " + err.Error())
	}
	tr := poissonTrace(o.Seed+42, dh.Name, 5, o.dur(30*time.Minute))
	hp := cluster.HedgePolicy{Mode: cluster.HedgeDelay, Delay: 400 * time.Millisecond}
	profiles := []workload.FunctionProfile{dh}
	base := runHedged(o, tr, profiles, 0, 0.4, time.Millisecond, hedgeRetry(), true, nil)
	hedged := runHedged(o, tr, profiles, 0, 0.4, time.Millisecond, hedgeRetry(), true, &hp)
	r.Addf("%-10s n=%5d mean=%8.1fms p99=%8.1fms hedged=%5d wins=%4d skips=%4d cancelled=%5d wedged=%d",
		"unhedged", base.settle.N(), base.meanMS(), base.p99MS(), base.hedged, base.wins, base.skips, base.cancelled, base.wedged)
	r.Addf("%-10s n=%5d mean=%8.1fms p99=%8.1fms hedged=%5d wins=%4d skips=%4d cancelled=%5d wedged=%d",
		hp.Spec(), hedged.settle.N(), hedged.meanMS(), hedged.p99MS(), hedged.hedged, hedged.wins, hedged.skips, hedged.cancelled, hedged.wedged)
	if hedged.p99MS() < base.p99MS() {
		r.Addf("hedging cuts end-to-end p99 %.1fms -> %.1fms (%.1f%%) at %.2f%% extra attempts",
			base.p99MS(), hedged.p99MS(), 100*(base.p99MS()-hedged.p99MS())/base.p99MS(),
			100*float64(hedged.hedged)/float64(tr.Len()))
	} else {
		r.Addf("HEDGING DID NOT IMPROVE P99: unhedged=%.1fms hedged=%.1fms", base.p99MS(), hedged.p99MS())
	}
	return r
}
