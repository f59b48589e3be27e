// Package alert watches a run while it happens: a rule engine evaluated
// on the virtual clock against the flight recorder's series, counters,
// and SLO burn rates. Rules come in four kinds — threshold (latest
// sampled value vs a bound), rate (per-second counter rate vs a bound),
// burn (multi-window multi-burn-rate over an SLO tracker, e.g. 1m@14x
// OR 5m@2x), and absence (a series stopped reporting inside a staleness
// window) — each with a for-duration hysteresis and a pending → firing
// → resolved lifecycle.
//
// When a rule fires the engine captures an incident: the virtual
// timestamps of the pending and firing transitions, the offending
// series' sampled window, and the trace IDs of the worst invocations
// inside that window (via the existing trace analyzer), so every
// incident links directly to a critical path.
//
// Evaluation is driven by the flight recorder's own sampling pump
// (Observe hooks Eval onto Recorder samples), so rules see exactly the
// instants the recorder saw and same-seed runs produce byte-identical
// alert snapshots, incidents, and timelines. Missing data is never
// treated as zero: a series with no samples (or none inside the window)
// evaluates as absent, which only the absence kind turns into a firing.
package alert

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Kind names a rule's evaluation strategy.
type Kind string

const (
	// KindThreshold compares a series' latest sampled value to a bound.
	KindThreshold Kind = "threshold"
	// KindRate compares a counter series' per-second rate to a bound.
	KindRate Kind = "rate"
	// KindBurn compares SLO error-budget burn rates over sliding windows;
	// any window@factor pair crossing its factor makes the rule active.
	KindBurn Kind = "burn"
	// KindAbsence fires when a series has no sample inside the staleness
	// window — data loss is an alert, not a zero.
	KindAbsence Kind = "absence"
)

// Op is a threshold/rate comparison operator.
type Op string

const (
	OpGT Op = ">"
	OpGE Op = ">="
	OpLT Op = "<"
	OpLE Op = "<="
)

func (op Op) satisfied(v, bound float64) bool {
	switch op {
	case OpGT:
		return v > bound
	case OpGE:
		return v >= bound
	case OpLT:
		return v < bound
	case OpLE:
		return v <= bound
	}
	return false
}

// BurnWindow is one window@factor pair of a burn rule.
type BurnWindow struct {
	Window time.Duration `json:"window"`
	Factor float64       `json:"factor"`
}

// Rule is one compiled alerting rule. Build rules with ParseSpec (the
// flag/file grammar) or literally; Name must be unique within an
// engine.
type Rule struct {
	Name string
	Kind Kind
	// Series names the metric threshold/rate/absence rules watch; Labels,
	// when non-nil, restrict matching to series carrying those labels (a
	// subset match, so node-labeled fleet series still match).
	Series string
	Labels map[string]string
	// Op and Value bound threshold (sampled value) and rate (per-second
	// counter rate) rules; Over is the rate rule's averaging window
	// (DefaultRateWindow when zero — instantaneous per-sample rates are
	// too spiky to threshold).
	Op    Op
	Value float64
	Over  time.Duration
	// Window is the absence rule's staleness window.
	Window time.Duration
	// Burn lists the OR-ed window@factor pairs of a burn rule; Function
	// selects the tracked function ("*" or "" = every tracked function).
	Burn     []BurnWindow
	Function string
	// For is the hysteresis: the condition must hold this long (pending)
	// before the rule fires. Zero fires on the first active evaluation.
	For time.Duration
}

// State is a rule's lifecycle position.
type State string

const (
	StateInactive State = "inactive"
	StatePending  State = "pending"
	StateFiring   State = "firing"
)

// RuleStatus is one rule's snapshot for exports.
type RuleStatus struct {
	Rule   Rule
	State  State
	Since  time.Duration // pending/firing transition instant (valid unless inactive)
	Fired  int64         // pending → firing transitions so far
	Detail string        // last active-condition description
}

type ruleState struct {
	rule     Rule
	state    State
	since    time.Duration // entered current non-inactive state
	pendAt   time.Duration // entered pending (window start for incidents)
	fired    int64
	detail   string
	incident *Incident // open incident while firing

	// matched holds the recorder series a threshold, rate or absence
	// rule watches, resolved whenever the recorder's series set changes;
	// burns[i] holds the handles a burn rule reads on slos[i]: every
	// tracked function for "*", or the named function's once slos[i] has
	// seen it, resolved whenever that tracker's functions change.
	matched []*obs.TimeSeries
	burns   [][]obs.SLOHandle
}

// Event is one timeline entry: a rule transitioned at virtual instant T.
// Phase is "pending", "firing", "cleared" (pending condition went away
// before For elapsed), or "resolved" (firing condition went away).
type Event struct {
	T      time.Duration
	Rule   string
	Phase  string
	Detail string
}

// DefaultLookback pads an incident's capture window before the pending
// transition, so the series context that led into the alert is kept.
const DefaultLookback = 5 * time.Second

// DefaultRateWindow is the averaging window rate rules use when the
// clause carries no over= option.
const DefaultRateWindow = 5 * time.Second

// defaultWorst bounds the worst-invocation links captured per incident.
const defaultWorst = 3

// Engine evaluates a rule set on the virtual clock. Zero rules is
// valid — the engine just never fires (trenvd always mounts /alerts).
// Engines are not safe for concurrent use; callers serialize Eval and
// the exports the same way they serialize the recorder.
type Engine struct {
	states []*ruleState
	rec    *obs.Recorder
	slos   []*obs.SLOTracker
	tracer *obs.Tracer

	// resolved is the recorder series count the rules' matches were
	// resolved at (-1: never); handles[i] is slos[i]'s handles as of the
	// last change. Series and functions never leave, so equal counts mean
	// nothing to re-resolve.
	resolved int
	handles  [][]obs.SLOHandle

	evals    int64
	lastEval time.Duration
	evaled   bool

	firedTotal int64
	incidents  []*Incident
	timeline   []Event
}

// New compiles rules into an engine. Duplicate rule names panic —
// ParseSpec rejects them first, so a panic here means a literal rule
// slice was built wrong.
func New(rules []Rule) *Engine {
	e := &Engine{resolved: -1}
	seen := make(map[string]bool, len(rules))
	for _, r := range rules {
		if r.Name == "" {
			panic("alert: rule with empty name")
		}
		if seen[r.Name] {
			panic(fmt.Sprintf("alert: duplicate rule name %q", r.Name))
		}
		seen[r.Name] = true
		e.states = append(e.states, &ruleState{rule: r, state: StateInactive})
	}
	return e
}

// Observe binds the engine to a flight recorder: threshold/rate/absence
// rules read its series, and every Recorder.Sample drives one Eval at
// the same virtual instant, so alert evaluation rides the existing
// sampling pump instead of perturbing the event schedule.
func (e *Engine) Observe(rec *obs.Recorder) {
	e.rec = rec
	e.resolved = -1
	rec.SetOnSample(e.Eval)
}

// SetTracer supplies the span source incidents link their worst
// invocations from (nil disables trace capture).
func (e *Engine) SetTracer(t *obs.Tracer) { e.tracer = t }

// AddSLO adds an SLO tracker burn rules evaluate against (a cluster
// attaches one per node).
func (e *Engine) AddSLO(t *obs.SLOTracker) {
	if t != nil {
		e.slos = append(e.slos, t)
		e.handles = append(e.handles, nil)
		for _, st := range e.states {
			if st.rule.Kind == KindBurn {
				st.burns = append(st.burns, nil)
			}
		}
	}
}

// Eval evaluates every rule at virtual instant now. Duplicate or
// out-of-order instants are no-ops, mirroring Recorder.Sample, so
// overlapping pumps cannot double-transition a rule.
func (e *Engine) Eval(now time.Duration) {
	if e.evaled && now <= e.lastEval {
		return
	}
	e.lastEval, e.evaled = now, true
	e.evals++
	e.resolve()
	for _, st := range e.states {
		active, detail := e.condition(st, now)
		e.transition(st, now, active, detail)
	}
}

// resolve re-matches the rules against the recorder's series and
// re-reads the trackers' handles, but only when either set changed
// since the last evaluation.
func (e *Engine) resolve() {
	if e.rec != nil && e.rec.NumSeries() != e.resolved {
		e.resolved = e.rec.NumSeries()
		all := e.rec.Series()
		for _, st := range e.states {
			if st.rule.Kind != KindBurn {
				st.matched = matchSeries(all, st.rule)
			}
		}
	}
	for i, slo := range e.slos {
		if slo.NumFunctions() == len(e.handles[i]) {
			continue
		}
		e.handles[i] = slo.Handles()
		for _, st := range e.states {
			if st.rule.Kind == KindBurn {
				st.burns[i] = burnHandles(e.handles[i], st.rule.Function)
			}
		}
	}
}

// burnHandles returns the handles a burn rule on fn reads out of one
// tracker's: all of them for "*" or "", else the named function's, or
// none while the tracker has not seen it.
func burnHandles(all []obs.SLOHandle, fn string) []obs.SLOHandle {
	if fn == "" || fn == "*" {
		return all
	}
	for i := range all {
		if all[i].Name == fn {
			return all[i : i+1]
		}
	}
	return nil
}

// condition evaluates one rule's predicate, returning whether it is
// active and a human description of the offending measurement.
func (e *Engine) condition(st *ruleState, now time.Duration) (bool, string) {
	r := st.rule
	switch r.Kind {
	case KindThreshold:
		for _, ts := range st.matched {
			if ts.Len() == 0 {
				continue // no data is absence, never zero
			}
			if v := ts.Last().Value; r.Op.satisfied(v, r.Value) {
				return true, fmt.Sprintf("%s = %g %s %g", ts.Key, v, r.Op, r.Value)
			}
		}
		return false, ""
	case KindRate:
		over := r.Over
		if over <= 0 {
			over = DefaultRateWindow
		}
		for _, ts := range st.matched {
			v, ok := ts.RateOver(now, over)
			if !ok {
				continue // no data is absence, never zero
			}
			if r.Op.satisfied(v, r.Value) {
				return true, fmt.Sprintf("%s = %.3g/s over %s %s %g/s", ts.Key, v, over, r.Op, r.Value)
			}
		}
		return false, ""
	case KindBurn:
		for _, hs := range st.burns {
			for _, h := range hs {
				for _, bw := range r.Burn {
					if b := h.BurnRate(now, bw.Window); b >= bw.Factor {
						return true, fmt.Sprintf("%s burn %.2fx over %s >= %gx", h.Name, b, bw.Window, bw.Factor)
					}
				}
			}
		}
		return false, ""
	case KindAbsence:
		if len(st.matched) == 0 {
			return true, fmt.Sprintf("%s never sampled", r.seriesKey())
		}
		for _, ts := range st.matched {
			// A series only retains sampled points, so "no point newer than
			// now-Window" covers both a stopped series and a window that has
			// aged entirely out of its retained points.
			if ts.Len() == 0 || ts.Last().T <= now-r.Window {
				return true, fmt.Sprintf("%s silent for > %s", ts.Key, r.Window)
			}
		}
		return false, ""
	}
	return false, ""
}

// matchSeries returns the series a rule watches: same name, and every
// selector label present with the same value (a subset match). all is
// sorted by key, so match order is deterministic.
func matchSeries(all []*obs.TimeSeries, r Rule) []*obs.TimeSeries {
	var out []*obs.TimeSeries
	for _, ts := range all {
		if ts.Name != r.Series {
			continue
		}
		ok := true
		for k, v := range r.Labels {
			if ts.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, ts)
		}
	}
	return out
}

func (e *Engine) transition(st *ruleState, now time.Duration, active bool, detail string) {
	switch st.state {
	case StateInactive:
		if !active {
			return
		}
		st.state, st.since, st.pendAt, st.detail = StatePending, now, now, detail
		e.addEvent(now, st.rule.Name, "pending", detail)
		if st.rule.For <= 0 {
			e.fire(st, now)
		}
	case StatePending:
		if !active {
			st.state = StateInactive
			e.addEvent(now, st.rule.Name, "cleared", "condition cleared before for="+st.rule.For.String())
			return
		}
		st.detail = detail
		if now-st.pendAt >= st.rule.For {
			e.fire(st, now)
		}
	case StateFiring:
		if active {
			st.detail = detail
			return
		}
		st.state = StateInactive
		if st.incident != nil {
			st.incident.resolve(now)
			st.incident = nil
		}
		e.addEvent(now, st.rule.Name, "resolved", "")
	}
}

func (e *Engine) fire(st *ruleState, now time.Duration) {
	st.state, st.since = StateFiring, now
	st.fired++
	e.firedTotal++
	inc := e.captureIncident(st, now)
	st.incident = inc
	e.incidents = append(e.incidents, inc)
	e.addEvent(now, st.rule.Name, "firing", st.detail)
}

func (e *Engine) addEvent(t time.Duration, rule, phase, detail string) {
	e.timeline = append(e.timeline, Event{T: t, Rule: rule, Phase: phase, Detail: detail})
}

// Firing counts rules currently in StateFiring.
func (e *Engine) Firing() int {
	n := 0
	for _, st := range e.states {
		if st.state == StateFiring {
			n++
		}
	}
	return n
}

// FiredTotal counts pending → firing transitions across all rules.
func (e *Engine) FiredTotal() int64 { return e.firedTotal }

// Evals counts evaluation rounds.
func (e *Engine) Evals() int64 { return e.evals }

// Rules returns the compiled rules in definition order.
func (e *Engine) Rules() []Rule {
	out := make([]Rule, 0, len(e.states))
	for _, st := range e.states {
		out = append(out, st.rule)
	}
	return out
}

// Snapshot returns every rule's current status in definition order.
func (e *Engine) Snapshot() []RuleStatus {
	out := make([]RuleStatus, 0, len(e.states))
	for _, st := range e.states {
		out = append(out, RuleStatus{
			Rule:   st.rule,
			State:  st.state,
			Since:  st.since,
			Fired:  st.fired,
			Detail: st.detail,
		})
	}
	return out
}

// Incidents returns every captured incident in firing order.
func (e *Engine) Incidents() []*Incident {
	return append([]*Incident(nil), e.incidents...)
}

// Timeline returns the transition events in evaluation order.
func (e *Engine) Timeline() []Event {
	return append([]Event(nil), e.timeline...)
}

// TimelineLines renders the timeline one deterministic line per
// transition — what the incidents experiment and CI artifacts print.
func (e *Engine) TimelineLines() []string {
	out := make([]string, 0, len(e.timeline))
	for _, ev := range e.timeline {
		line := fmt.Sprintf("[%9.3fs] %-8s %s", ev.T.Seconds(), ev.Phase, ev.Rule)
		if ev.Detail != "" {
			line += ": " + ev.Detail
		}
		out = append(out, line)
	}
	return out
}

// RegisterMetrics publishes the engine's own health into reg:
// trenv_alerts_firing (rules firing right now) and
// trenv_alerts_fired_total (lifetime pending → firing transitions).
func (e *Engine) RegisterMetrics(reg *obs.Registry, labels map[string]string) {
	reg.GaugeFunc("trenv_alerts_firing", "Alert rules currently firing.", labels,
		func() float64 { return float64(e.Firing()) })
	reg.CounterFunc("trenv_alerts_fired_total", "Alert pending-to-firing transitions.", labels,
		func() int64 { return e.firedTotal })
}

// --- export ---

type ruleJSON struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	Spec    string  `json:"spec"`
	State   string  `json:"state"`
	SinceMS float64 `json:"since_ms,omitempty"`
	Fired   int64   `json:"fired"`
	Detail  string  `json:"detail,omitempty"`
}

type eventJSON struct {
	TMS    float64 `json:"t_ms"`
	Rule   string  `json:"rule"`
	Phase  string  `json:"phase"`
	Detail string  `json:"detail,omitempty"`
}

type engineJSON struct {
	Evals     int64       `json:"evals"`
	Firing    int         `json:"firing"`
	Fired     int64       `json:"fired"`
	Rules     []ruleJSON  `json:"rules"`
	Incidents []*Incident `json:"incidents"`
	Timeline  []eventJSON `json:"timeline"`
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (e *Engine) export() engineJSON {
	doc := engineJSON{
		Evals:     e.evals,
		Firing:    e.Firing(),
		Fired:     e.firedTotal,
		Rules:     []ruleJSON{},
		Incidents: e.incidents,
		Timeline:  []eventJSON{},
	}
	if doc.Incidents == nil {
		doc.Incidents = []*Incident{}
	}
	for _, st := range e.states {
		rj := ruleJSON{
			Name:   st.rule.Name,
			Kind:   string(st.rule.Kind),
			Spec:   st.rule.Spec(),
			State:  string(st.state),
			Fired:  st.fired,
			Detail: st.detail,
		}
		if st.state != StateInactive {
			rj.SinceMS = durMS(st.since)
		}
		doc.Rules = append(doc.Rules, rj)
	}
	for _, ev := range e.timeline {
		doc.Timeline = append(doc.Timeline, eventJSON{TMS: durMS(ev.T), Rule: ev.Rule, Phase: ev.Phase, Detail: ev.Detail})
	}
	return doc
}

// WriteJSON writes the engine snapshot — rules with their states,
// captured incidents, and the transition timeline — as one JSON
// document. Rules render in definition order and incidents/timeline in
// virtual-time order, so same-seed runs produce byte-identical output.
func (e *Engine) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(e.export())
}

// Set groups one engine per run under run names for a single export
// file — what `trenv-bench -alerts` threads through the figure runs,
// mirroring obs.RecorderSet.
type Set struct {
	rules []Rule
	runs  []setRun
}

type setRun struct {
	Run string
	Eng *Engine
}

// NewSet builds a set whose engines all compile the same rules.
func NewSet(rules []Rule) *Set { return &Set{rules: rules} }

// Rules returns the shared rule slice.
func (s *Set) Rules() []Rule { return s.rules }

// Track adds a fresh engine for a named run and returns it.
func (s *Set) Track(run string) *Engine {
	eng := New(s.rules)
	s.runs = append(s.runs, setRun{Run: run, Eng: eng})
	return eng
}

// Runs returns how many runs the set tracks.
func (s *Set) Runs() int { return len(s.runs) }

// Each visits every tracked run in the order it was added.
func (s *Set) Each(fn func(run string, eng *Engine)) {
	for _, sr := range s.runs {
		fn(sr.Run, sr.Eng)
	}
}

// WriteJSON writes every run's engine snapshot as one JSON document.
func (s *Set) WriteJSON(w io.Writer) error {
	type runDoc struct {
		Run string `json:"run"`
		engineJSON
	}
	doc := struct {
		Runs []runDoc `json:"runs"`
	}{Runs: make([]runDoc, 0, len(s.runs))}
	for _, sr := range s.runs {
		doc.Runs = append(doc.Runs, runDoc{Run: sr.Run, engineJSON: sr.Eng.export()})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// seriesKey renders the rule's series selector for messages.
func (r Rule) seriesKey() string {
	if len(r.Labels) == 0 {
		return r.Series
	}
	keys := make([]string, 0, len(r.Labels))
	for k := range r.Labels {
		keys = append(keys, k)
	}
	sortStrings(keys)
	var b strings.Builder
	b.WriteString(r.Series)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(r.Labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Spec renders the rule back into its ParseSpec clause — the canonical
// self-describing form exports carry.
func (r Rule) Spec() string {
	var b strings.Builder
	b.WriteString(string(r.Kind))
	b.WriteByte(':')
	b.WriteString(r.Name)
	b.WriteByte(':')
	switch r.Kind {
	case KindThreshold, KindRate:
		b.WriteString(r.seriesKey())
		b.WriteByte(':')
		b.WriteString(string(r.Op))
		b.WriteString(strconv.FormatFloat(r.Value, 'g', -1, 64))
		if r.Kind == KindRate && r.Over > 0 {
			b.WriteString(":over=")
			b.WriteString(r.Over.String())
		}
	case KindBurn:
		fn := r.Function
		if fn == "" {
			fn = "*"
		}
		b.WriteString(fn)
		b.WriteByte(':')
		for i, bw := range r.Burn {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(bw.Window.String())
			b.WriteByte('@')
			b.WriteString(strconv.FormatFloat(bw.Factor, 'g', -1, 64))
			b.WriteByte('x')
		}
	case KindAbsence:
		b.WriteString(r.seriesKey())
		b.WriteByte(':')
		b.WriteString(r.Window.String())
	}
	if r.For > 0 {
		b.WriteString(":for=")
		b.WriteString(r.For.String())
	}
	return b.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
