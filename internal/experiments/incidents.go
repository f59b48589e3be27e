package experiments

import (
	"strings"
	"time"

	"repro/internal/alert"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/workload"
)

// incidentsSLOTarget is the end-to-end latency objective the incidents
// run tracks, so the slo-burn rule has a budget to burn during the
// outage window. Generous against the healthy p99, tight against
// retry-storm tails.
const incidentsSLOTarget = 2 * time.Second

// Incidents re-runs the PR 4 availability chaos scenario (recovery on)
// with the alert engine attached and emits the incident timeline: the
// rule set detects the pool outage (fallback storm), the circuit
// breakers opening, and the recovery, each transition stamped with
// virtual time and each firing captured as an incident linking the
// worst invocations' trace IDs. Same seed, same timeline, byte for
// byte — an alerting pipeline you can regression-test.
func Incidents(o Options) *Result {
	o = o.normalize()
	r := &Result{ID: "incidents", Title: "incident timeline under memory-server outage + flaky fetches + node crash",
		Notes: "3-node rack, Azure-like trace, availability chaos schedule, recovery on; rules: " + ruleSummary(o)}
	tr := azureTrace(o)

	tracer := o.Tracer
	if tracer == nil {
		// Incidents must link trace IDs even when the caller did not ask
		// for trace export, so the experiment always records spans.
		tracer = obs.NewTracer(0)
	}

	c := o.rack(workload.Table4(), func(cfg *faas.Config) {
		cfg.Tracer = tracer
		cfg.SLOTarget = incidentsSLOTarget
	})

	inj := fault.NewInjector(c.Engine(), o.Seed, availabilityScenario(tr.Duration()))
	inj.SetTracer(tracer)
	c.AttachChaos(inj)

	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	var rec *obs.Recorder
	every := time.Duration(0)
	if o.Recorders != nil {
		rec = o.Recorders.Track("incidents/availability", reg)
		every = o.Recorders.Every()
	} else {
		rec = obs.NewRecorder(reg, 0)
	}
	c.AttachRecorder(rec, every)

	var ae *alert.Engine
	if o.Alerts != nil {
		ae = o.Alerts.Track("incidents/availability")
	} else {
		ae = alert.New(alert.DefaultRules())
	}
	ae.RegisterMetrics(reg, nil)
	c.AttachAlerts(ae)

	c.RunTrace(tr)

	r.Addf("rules=%d evals=%d fired=%d firing-at-end=%d incidents=%d wedged=%d",
		len(ae.Rules()), ae.Evals(), ae.FiredTotal(), ae.Firing(), len(ae.Incidents()), c.Wedged())
	for _, line := range ae.TimelineLines() {
		r.Lines = append(r.Lines, line)
	}
	for _, inc := range ae.Incidents() {
		end := "still firing"
		if inc.Resolved {
			end = formatSecs(inc.ResolvedMS) + " resolved"
		}
		var traces []string
		for _, w := range inc.Worst {
			tag := w.TraceID
			if w.Function != "" {
				tag += "(" + w.Function + ")"
			}
			if w.Error != "" {
				tag += "!"
			}
			traces = append(traces, tag)
		}
		link := "no trace links"
		if len(traces) > 0 {
			link = "traces " + strings.Join(traces, " ")
		}
		r.Addf("incident %s rule=%s fired@%s -> %s: %s", inc.ID, inc.Rule, formatSecs(inc.FiringMS), end, link)
	}
	return r
}

// ruleSummary names the rules in play for the result header.
func ruleSummary(o Options) string {
	rules := alert.DefaultRules()
	if o.Alerts != nil {
		rules = o.Alerts.Rules()
	}
	names := make([]string, 0, len(rules))
	for _, r := range rules {
		names = append(names, r.Name)
	}
	return strings.Join(names, ",")
}

func formatSecs(ms float64) string {
	d := time.Duration(ms * float64(time.Millisecond))
	return d.Truncate(time.Millisecond).String()
}
