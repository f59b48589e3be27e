package alert

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// maxIncidentPoints caps the offending-series window captured per
// incident so exports stay small even when the firing window is long.
const maxIncidentPoints = 32

// SeriesPoint is one captured sample of the offending series.
type SeriesPoint struct {
	TMS   float64 `json:"t_ms"`
	Value float64 `json:"value"`
	Rate  float64 `json:"rate_per_s,omitempty"`
}

// SeriesWindow is the offending series' samples inside the incident
// window (pending start minus DefaultLookback, through the firing
// instant).
type SeriesWindow struct {
	Key    string        `json:"key"`
	Points []SeriesPoint `json:"points"`
}

// Incident is one captured firing: the rule, its virtual-time
// lifecycle, the offending series window, and trace links to the worst
// invocations active inside that window — each carrying the analyzer's
// critical path, so an incident navigates straight to a cause.
type Incident struct {
	// ID is deterministic: derived from the rule name and its firing
	// ordinal, never from wall time.
	ID     string `json:"id"`
	Rule   string `json:"rule"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`

	PendingMS  float64 `json:"pending_ms"`
	FiringMS   float64 `json:"firing_ms"`
	ResolvedMS float64 `json:"resolved_ms,omitempty"`
	Resolved   bool    `json:"resolved"`

	Series []SeriesWindow       `json:"series,omitempty"`
	Worst  []obs.SlowInvocation `json:"worst,omitempty"`
}

func (inc *Incident) resolve(now time.Duration) {
	inc.Resolved = true
	inc.ResolvedMS = durMS(now)
}

// captureIncident snapshots the context around a pending → firing
// transition: the offending series' recent window and the worst
// invocations (errored first, then slowest) whose spans overlap it.
func (e *Engine) captureIncident(st *ruleState, now time.Duration) *Incident {
	inc := &Incident{
		ID:        obs.TraceIDFor("alert", st.rule.Name, fmt.Sprintf("%d", st.fired)),
		Rule:      st.rule.Name,
		Kind:      string(st.rule.Kind),
		Detail:    st.detail,
		PendingMS: durMS(st.pendAt),
		FiringMS:  durMS(now),
	}
	from := st.pendAt - DefaultLookback
	if from < 0 {
		from = 0
	}
	for _, ts := range st.matched {
		win := SeriesWindow{Key: ts.Key, Points: []SeriesPoint{}}
		for _, p := range ts.Points() {
			if p.T < from || p.T > now {
				continue
			}
			win.Points = append(win.Points, SeriesPoint{TMS: durMS(p.T), Value: p.Value, Rate: p.Rate})
		}
		if n := len(win.Points); n > maxIncidentPoints {
			win.Points = win.Points[n-maxIncidentPoints:]
		}
		if len(win.Points) > 0 {
			inc.Series = append(inc.Series, win)
		}
	}
	inc.Worst = e.worstInWindow(from, now)
	return inc
}

// worstInWindow analyzes the invocations whose spans overlap
// [from, to] and returns up to defaultWorst of them, errored
// invocations first, then by duration — the trace IDs an operator
// would open first.
func (e *Engine) worstInWindow(from, to time.Duration) []obs.SlowInvocation {
	if e.tracer == nil {
		return nil
	}
	var overlap []*obs.Span
	for _, sp := range e.tracer.Spans() {
		if !strings.HasPrefix(sp.Name, "invoke/") {
			continue
		}
		if sp.End < from || sp.Start > to {
			continue
		}
		overlap = append(overlap, sp)
	}
	if len(overlap) == 0 {
		return nil
	}
	rep := obs.Analyze(overlap, 2*defaultWorst)
	var errored, ok []obs.SlowInvocation
	for _, si := range rep.Slowest {
		if si.Error != "" {
			errored = append(errored, si)
		} else {
			ok = append(ok, si)
		}
	}
	worst := append(errored, ok...)
	if len(worst) > defaultWorst {
		worst = worst[:defaultWorst]
	}
	return worst
}
