package faas

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Outcome is how an invocation terminated. Every invocation ends in
// exactly one of these — there is no silent loss path.
type Outcome string

const (
	// OutcomeSuccess completed normally.
	OutcomeSuccess Outcome = "success"
	// OutcomeFallback completed via the local-cold-start fallback after
	// the remote restore source was unavailable.
	OutcomeFallback Outcome = "fallback"
	// OutcomeError failed with a typed application/platform error.
	OutcomeError Outcome = "error"
	// OutcomeCrashed was aborted because its node crashed mid-flight;
	// clusters re-dispatch these to survivors.
	OutcomeCrashed Outcome = "node-crash"
)

// InvocationResult is the terminal record of one invocation, delivered
// to Config.OnResult and then returned by InvokeAttempt. FaultTrace names
// the injected fault the invocation collided with ("" = clean), even
// when it still succeeded after retries.
type InvocationResult struct {
	Function   string
	Node       string
	TraceID    string
	Outcome    Outcome
	Err        error
	Retries    int
	FaultTrace string
	// Latency breakdown, set on successful (and fallback) outcomes:
	// Startup is the start-path total, FetchLat the demand remote-fetch
	// latency execution paid, PrefetchWait the time execution parked on
	// in-flight prefetch batches. Startup+FetchLat+PrefetchWait is the
	// invocation's effective restore cost — what working-set prefetching
	// attacks.
	Startup      time.Duration
	FetchLat     time.Duration
	PrefetchWait time.Duration
}

// Healthy reports what a circuit breaker records for r against its
// node's pool-fetch health: a fault-tainted outcome (a typed error, or
// an invocation served after a retry or by the fallback) counts
// against it.
func (r InvocationResult) Healthy() bool { return r.FaultTrace == "" && r.Outcome != OutcomeError }

// ErrNodeDown reports an invocation aborted by its node crashing.
type ErrNodeDown struct{ Node string }

func (e *ErrNodeDown) Error() string { return fmt.Sprintf("faas: node %s is down", e.Node) }

// Crash kills the node: warm instances release their memory accounting,
// queued invocations are woken so they can abort, and every in-flight
// invocation terminates with OutcomeCrashed at its next checkpoint.
// Safe to call outside a simulated process (no virtual time passes —
// a crash does no cleanup work). Idempotent.
func (pl *Platform) Crash() {
	if pl.crashed {
		return
	}
	pl.crashed = true
	for name, list := range pl.warm {
		for _, in := range list {
			pl.rt.ReleaseCrashed(in)
		}
		delete(pl.warm, name)
	}
	pl.warmN = 0
	for name, q := range pl.waiting {
		for _, proc := range q {
			pl.eng.Resume(proc)
		}
		delete(pl.waiting, name)
	}
}

// Crashed reports whether Crash has been called.
func (pl *Platform) Crashed() bool { return pl.crashed }

// Pools returns the node's attached memory pools (CXL, RDMA, tmpfs).
func (pl *Platform) Pools() []*mem.Pool {
	return []*mem.Pool{pl.cxl, pl.rdma, pl.tmpfs}
}

// AttachFaults consults agent on every fetch against the node's pools,
// clocked by the platform's virtual time, and applies Config.Retry (or
// the default policy) to them. Attach before traffic arrives.
func (pl *Platform) AttachFaults(agent mem.FaultAgent) {
	for _, pool := range pl.Pools() {
		pool.SetFaultAgent(agent, pl.eng.Now)
		if pl.cfg.Retry != nil {
			pool.SetRetryPolicy(*pl.cfg.Retry)
		}
	}
}

// AttachChaos attaches inj's faults to the node's pools, wires a
// scheduled crash of this node to Crash and arms the schedule — the
// single-node counterpart of cluster.Cluster.AttachChaos. Attach before
// traffic arrives.
func (pl *Platform) AttachChaos(inj *fault.Injector) {
	pl.AttachFaults(inj)
	inj.OnNodeCrash(func(name string) {
		if name == pl.nodeName {
			pl.Crash()
		}
	})
	inj.Arm()
}

// checkpoint reports why an in-flight attempt must stop now, or nil to
// carry on. invoke asks at four checkpoints: before admission, after
// admission, after start and after exec. A node crash (*ErrNodeDown),
// a settled race (*ErrCancelled) and an overrun deadline
// (*ErrDeadlineExceeded) are cooperative, never preemptive: each takes
// effect at the next checkpoint the attempt reaches. deadline is the
// attempt's absolute deadline (0 = unbounded).
func (pl *Platform) checkpoint(name string, race *Race, deadline time.Duration) error {
	switch {
	case pl.crashed:
		return &ErrNodeDown{Node: pl.nodeName}
	case race != nil && race.Settled:
		return &ErrCancelled{Winner: race.Winner}
	case deadline > 0 && pl.eng.Now() > deadline:
		return &ErrDeadlineExceeded{Function: name, Deadline: pl.cfg.Deadline}
	}
	return nil
}

// terminate is the one way an attempt ends short of success. It unwinds
// in crash-style at no simulated cost (nil = nothing held, or the caller
// recycles it), sets the result's outcome and error, bumps the one
// matching counter and, when tracing, records the invoke/<fn> error span
// over [t0, now]. err's type picks each of them: interrupts are counted
// apart from errors, and clusters re-dispatch crash aborts to survivors.
func (pl *Platform) terminate(res *InvocationResult, t0 time.Duration, in *core.Instance, err error) {
	if in != nil {
		pl.rt.ReleaseCrashed(in)
	}
	res.Err = err
	var kind string
	var link obs.Link // no TraceID = no link
	switch e := err.(type) {
	case *ErrNodeDown:
		res.Outcome, kind = OutcomeCrashed, "node-down"
		pl.metrics.CrashAborts.Inc()
	case *ErrCancelled:
		// Walkable loser → winner.
		res.Outcome, kind = OutcomeCancelled, "cancelled"
		link = obs.Link{TraceID: e.Winner, Type: "hedge-lost"}
		pl.metrics.Cancelled.Inc()
	case *ErrDeadlineExceeded:
		res.Outcome, kind = OutcomeDeadline, "deadline-exceeded"
		pl.metrics.DeadlineExceeded.Inc()
	default:
		res.Outcome = OutcomeError
		pl.metrics.Errors.Inc()
		if res.FaultTrace == "" {
			res.FaultTrace = faultTraceOf(err)
		}
		if pl.tracer != nil {
			// errors.As targets escape to the heap, so only a span pays
			// to classify the wrapped cause and link the injected fault.
			kind = errType(err)
			link = obs.Link{TraceID: faultTraceOf(err), Type: "caused-by"}
		}
	}
	if pl.tracer == nil {
		return
	}
	sp := obs.NewSpan("invoke/"+res.Function, t0, pl.eng.Now())
	sp.SetAttr("function", res.Function).SetAttr("policy", string(pl.cfg.Policy)).SetAttr("node", pl.nodeName)
	if kind != "" {
		sp.SetAttr("error_type", kind)
	}
	if res.Outcome == OutcomeCancelled {
		sp.SetAttr("cancel_reason", "hedge-lost")
	}
	if link.TraceID != "" {
		sp.AddLink(link)
	}
	sp.Fail(err)
	sp.AssignIDs(res.TraceID)
	pl.tracer.Record(sp)
}

// errType classifies a failed invocation's wrapped cause for span
// attribution; "" for untyped errors.
func errType(err error) string {
	var (
		nm *mem.ErrNoMemory
		pu *mem.ErrPoolUnavailable
		ff *mem.ErrFetchFailed
		fl *mem.ErrFlakyFetch
	)
	switch {
	case errors.As(err, &nm):
		return "no-memory"
	case errors.As(err, &pu):
		return "pool-unavailable"
	case errors.As(err, &ff):
		return "fetch-failed"
	case errors.As(err, &fl):
		return "flaky-fetch"
	}
	return ""
}

// faultTraceOf extracts the injected fault's trace ID from a typed
// error chain ("" when the error wasn't fault-induced).
func faultTraceOf(err error) string {
	var pu *mem.ErrPoolUnavailable
	if errors.As(err, &pu) {
		return pu.FaultTrace
	}
	var ff *mem.ErrFetchFailed
	if errors.As(err, &ff) {
		return ff.FaultTrace
	}
	var fl *mem.ErrFlakyFetch
	if errors.As(err, &fl) {
		return fl.FaultTrace
	}
	return ""
}
