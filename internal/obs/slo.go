package obs

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// SLO is a latency objective for one function: at least Objective
// (a fraction in (0,1), e.g. 0.99) of invocations must complete within
// Target.
type SLO struct {
	Target    time.Duration
	Objective float64
}

func (s SLO) check() {
	if s.Target <= 0 {
		panic("obs: SLO target must be positive")
	}
	if s.Objective <= 0 || s.Objective >= 1 {
		panic(fmt.Sprintf("obs: SLO objective %v outside (0,1)", s.Objective))
	}
}

// DefaultBurnWindows are the sliding virtual-time windows burn rate is
// reported over when the caller does not choose any.
var DefaultBurnWindows = []time.Duration{time.Minute, 5 * time.Minute}

// DefaultSLOEventCapacity bounds the per-function event ring burn rates
// are computed from.
const DefaultSLOEventCapacity = 4096

type sloEvent struct {
	t   time.Duration
	bad bool
}

type sloSeries struct {
	slo SLO
	// events is a ring in time order, oldest at head once full. Ties keep
	// record order. Events carry logical indexes: the oldest retained one
	// is base, and index i lives at events[(head+i-base)%len(events)].
	events   []sloEvent
	head     int
	base     int
	total    int64
	breaches int64
	// cursors holds one cursor per window length read so far.
	cursors []burnCursor
}

// burnCursor is one window's running count: the events [lo, hi) are
// those with t in (at-window, at], and total and bad count them. A read
// at or after at only moves both ends forward, so a run's ticks cost
// what enters and leaves the window since the last tick.
type burnCursor struct {
	window, at time.Duration
	lo, hi     int
	total, bad int64
}

func (s *sloSeries) event(i int) sloEvent {
	return s.events[(s.head+i-s.base)%len(s.events)]
}

func (s *sloSeries) record(e sloEvent, cap int) {
	s.total++
	if e.bad {
		s.breaches++
	}
	switch n := len(s.events); {
	case n > 0 && e.t < s.events[(s.head+n-1)%n].t:
		s.insert(e, cap)
	case n < cap:
		s.events = append(s.events, e)
	default:
		s.drop()
		s.events[s.head] = e
		s.head = (s.head + 1) % cap
	}
}

// drop retires the oldest event of a full ring: every cursor that
// counts it stops counting it, and no cursor starts before the new
// oldest event.
func (s *sloSeries) drop() {
	old := s.event(s.base)
	s.base++
	for k := range s.cursors {
		c := &s.cursors[k]
		if c.lo < s.base && c.lo < c.hi {
			c.total--
			if old.bad {
				c.bad--
			}
		}
		c.lo, c.hi = max(c.lo, s.base), max(c.hi, s.base)
	}
}

// insert places an event older than the newest after every event at or
// before its instant, so the ring stays in time order. A full ring then
// drops its oldest event, which is e itself when e is older than all of
// them: the ring keeps the newest cap events by time. In a run every
// event is recorded at the engine's now, so this never happens there,
// and it drops every cursor rather than repair them.
func (s *sloSeries) insert(e sloEvent, cap int) {
	ev := append(append([]sloEvent(nil), s.events[s.head:]...), s.events[:s.head]...)
	i := sort.Search(len(ev), func(k int) bool { return ev[k].t > e.t })
	ev = slices.Insert(ev, i, e)
	if len(ev) > cap {
		ev = ev[1:]
		s.base++
	}
	s.events, s.head, s.cursors = ev, 0, s.cursors[:0]
}

// burnRate is SLOTracker.BurnRate for this function.
func (s *sloSeries) burnRate(now, window time.Duration) float64 {
	total, bad := s.window(now, window)
	if total == 0 {
		return 0
	}
	// Track validates Objective into (0,1), but guard the error-budget
	// denominator anyway: a degenerate objective must not divide by zero.
	den := 1 - s.slo.Objective
	if den <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / den
}

// window counts events with t in (now-window, now] through the window's
// cursor. A read before the cursor's instant restarts it at the oldest
// retained event. The ring is in time order, so the events at or before
// now are a prefix of it, and so are those at or before now-window.
func (s *sloSeries) window(now, window time.Duration) (total, bad int64) {
	k := 0
	for k < len(s.cursors) && s.cursors[k].window != window {
		k++
	}
	if k == len(s.cursors) {
		s.cursors = append(s.cursors, burnCursor{window: window, lo: s.base, hi: s.base})
	}
	c := &s.cursors[k]
	if now < c.at {
		*c = burnCursor{window: window, lo: s.base, hi: s.base}
	}
	c.at = now
	for end := s.base + len(s.events); c.hi < end; c.hi++ {
		e := s.event(c.hi)
		if e.t > now {
			break
		}
		c.total++
		if e.bad {
			c.bad++
		}
	}
	for cut := now - window; c.lo < c.hi; c.lo++ {
		e := s.event(c.lo)
		if e.t > cut {
			break
		}
		c.total--
		if e.bad {
			c.bad--
		}
	}
	return c.total, c.bad
}

// SLOTracker tracks per-function latency objectives over virtual time
// and derives burn rates over sliding windows. Burn rate is the
// fraction of the error budget being consumed: (bad fraction in the
// window) / (1 - objective); 1.0 means burning exactly at budget,
// above 1 means the objective will be missed if the window is
// representative.
type SLOTracker struct {
	def     SLO
	hasDef  bool
	cap     int
	windows []time.Duration
	byFn    map[string]*sloSeries
	fns     []SLOHandle // sorted by name
	// pubs are the registrations: each owns the series sets a newly
	// tracked function is added to.
	pubs []*sloPub
}

// sloPub is one Register call's series sets and label base.
type sloPub struct {
	base                            map[string]string
	now                             func() time.Duration
	events, breaches, target, burns ValueSet
}

// add publishes fn's series: its counters, its target, and one burn
// rate per window.
func (p *sloPub) add(fn string, s *sloSeries, windows []time.Duration) {
	labels := mergeLabels(p.base, map[string]string{"function": fn})
	p.events.Add(labels, func() float64 { return float64(s.total) })
	p.breaches.Add(labels, func() float64 { return float64(s.breaches) })
	p.target.Add(labels, func() float64 { return durMS(s.slo.Target) })
	for _, w := range windows {
		w := w
		p.burns.Add(mergeLabels(p.base, map[string]string{"function": fn, "window": w.String()}),
			func() float64 { return s.burnRate(p.now(), w) })
	}
}

// SLOHandle is one tracked function: its name and its event series. A
// burn rate read through it looks nothing up.
type SLOHandle struct {
	Name string
	s    *sloSeries
}

// BurnRate is SLOTracker.BurnRate for the handle's function.
func (h SLOHandle) BurnRate(now, window time.Duration) float64 {
	return h.s.burnRate(now, window)
}

// NewSLOTracker tracks burn rate over the given sliding windows
// (DefaultBurnWindows when none are given).
func NewSLOTracker(windows ...time.Duration) *SLOTracker {
	if len(windows) == 0 {
		windows = DefaultBurnWindows
	}
	return &SLOTracker{
		cap:     DefaultSLOEventCapacity,
		windows: windows,
		byFn:    make(map[string]*sloSeries),
	}
}

// Windows returns the burn-rate windows.
func (t *SLOTracker) Windows() []time.Duration { return t.windows }

// SetDefault applies slo to every function without an explicit Set.
func (t *SLOTracker) SetDefault(slo SLO) {
	slo.check()
	t.def, t.hasDef = slo, true
}

// Set fixes the objective for one function, overriding the default.
func (t *SLOTracker) Set(fn string, slo SLO) {
	slo.check()
	t.seriesFor(fn, slo)
	t.byFn[fn].slo = slo
}

func (t *SLOTracker) seriesFor(fn string, slo SLO) *sloSeries {
	s, ok := t.byFn[fn]
	if !ok {
		s = &sloSeries{slo: slo}
		t.byFn[fn] = s
		i := sort.Search(len(t.fns), func(k int) bool { return t.fns[k].Name >= fn })
		t.fns = slices.Insert(t.fns, i, SLOHandle{Name: fn, s: s})
		for _, p := range t.pubs {
			p.add(fn, s, t.windows)
		}
	}
	return s
}

// Record observes one invocation of fn completing at virtual time `at`
// with the given end-to-end latency. Functions with neither an explicit
// objective nor a default are not tracked.
func (t *SLOTracker) Record(fn string, at, latency time.Duration) {
	s, ok := t.byFn[fn]
	if !ok {
		if !t.hasDef {
			return
		}
		s = t.seriesFor(fn, t.def)
	}
	s.record(sloEvent{t: at, bad: latency > s.slo.Target}, t.cap)
}

// Handles returns one handle per tracked function, sorted by name.
func (t *SLOTracker) Handles() []SLOHandle {
	return append([]SLOHandle(nil), t.fns...)
}

// NumFunctions returns how many functions are tracked. Functions are
// never dropped, so an unchanged count means an unchanged Handles list.
func (t *SLOTracker) NumFunctions() int { return len(t.fns) }

// Total returns how many invocations of fn were recorded.
func (t *SLOTracker) Total(fn string) int64 {
	if s, ok := t.byFn[fn]; ok {
		return s.total
	}
	return 0
}

// Breaches returns how many recorded invocations of fn missed its
// latency target.
func (t *SLOTracker) Breaches(fn string) int64 {
	if s, ok := t.byFn[fn]; ok {
		return s.breaches
	}
	return 0
}

// BurnRate returns the error-budget burn rate for fn over the window
// ending at now: (bad/total within window) / (1 - objective). Zero when
// nothing was recorded in the window. Windows longer than the retained
// event ring are computed over the retained events.
func (t *SLOTracker) BurnRate(fn string, now, window time.Duration) float64 {
	s, ok := t.byFn[fn]
	if !ok {
		return 0
	}
	return s.burnRate(now, window)
}

// mergeLabels returns base ∪ extra (extra wins on conflicts).
func mergeLabels(base, extra map[string]string) map[string]string {
	if len(base) == 0 && len(extra) == 0 {
		return nil
	}
	out := make(map[string]string, len(base)+len(extra))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}

// Register publishes the tracker through reg: per-function event and
// breach counters, the configured target, and one burn-rate gauge per
// window, all merged with base labels (e.g. node="n3"). now supplies
// the virtual instant burn rates are evaluated at. A function's series
// are added to the registration's sets when the tracker first sees it.
func (t *SLOTracker) Register(reg *Registry, base map[string]string, now func() time.Duration) {
	p := &sloPub{base: base, now: now}
	reg.CounterSet("trenv_slo_events_total", "Invocations observed by the SLO tracker.", &p.events)
	reg.CounterSet("trenv_slo_breaches_total", "Invocations that missed their latency target.", &p.breaches)
	reg.GaugeSet("trenv_slo_target_ms", "Configured per-function latency target.", &p.target)
	reg.GaugeSet("trenv_slo_burn_rate",
		"Error-budget burn rate over a sliding virtual-time window (1 = at budget).", &p.burns)
	for _, h := range t.fns {
		p.add(h.Name, h.s, t.windows)
	}
	t.pubs = append(t.pubs, p)
}
