package obs

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/sim"
)

// The flight recorder samples every registered counter and gauge as
// virtual time advances and keeps each as a time series of its newest
// points. It is the aggregate complement to per-invocation spans: pool
// utilization, warm-hit ratio, fault rates, and sharing factor *over a
// run*, cheap enough to leave on for every figure run. It stores each
// sample instant once per recorder and, per series, only the instants
// where the value changed, so its memory grows with value changes, not
// with ticks.

const (
	// DefaultSeriesCapacity bounds how many points each series retains;
	// once full, the oldest point ages out as a new one arrives.
	DefaultSeriesCapacity = 4096
	// DefaultSampleInterval is the virtual-time spacing between samples
	// when the caller does not choose one.
	DefaultSampleInterval = 100 * time.Millisecond
)

// Point is one sampled value of one series at a virtual instant. Rate
// is the per-second rate of change since the previous sample, derived
// for counter series only (zero for gauges and for the first sample).
type Point struct {
	T     time.Duration
	Value float64
	Rate  float64
}

// step is a series' value from sample instant i until its next step.
type step struct {
	i int
	v float64
}

// TimeSeries is one registry series as the flight recorder holds it:
// the index of its first sample instant and a step at every instant
// where its value changed. It has a point at every instant from its
// first to the recorder's newest, and retains the newest cap of them,
// as a fixed-capacity ring of points would; values and rates are read
// off the steps and the recorder's instant ring.
type TimeSeries struct {
	Name    string
	Labels  map[string]string
	Key     string
	Counter bool

	rec   *Recorder
	first int
	// steps is in instant order. Growth prunes it to the step in force at
	// the instant before the oldest retained point, whose value the oldest
	// point's rate needs, and every step after.
	steps []step
}

// span returns the instant indexes of the retained points, [lo, hi).
func (ts *TimeSeries) span() (lo, hi int) {
	hi = ts.rec.n
	return max(ts.first, hi-ts.rec.cap), hi
}

// stepAt returns the index of the step in force at instant i, or -1
// when i precedes every step.
func (ts *TimeSeries) stepAt(i int) int {
	return sort.Search(len(ts.steps), func(k int) bool { return ts.steps[k].i > i }) - 1
}

// add records that the value changed to v at instant i. A series needs
// the step in force at the instant before its oldest retained point and
// every step after it: at most cap+1 steps. When the steps fill their
// slice, add drops the older ones if they are at least half of it or the
// slice has reached maxSteps; otherwise it doubles the slice, up to
// maxSteps. So a series that changes on every tick holds maxSteps steps
// of 16 bytes, less than cap points of 24, and each drop copies at most
// cap steps after at least cap/4 adds.
func (ts *TimeSeries) add(i int, v float64) {
	if n := len(ts.steps); n == cap(ts.steps) {
		limit := maxSteps(ts.rec.cap)
		if k := ts.stepAt(i - ts.rec.cap); 2*k >= n || n >= limit {
			ts.steps = ts.steps[:copy(ts.steps, ts.steps[k:])]
		} else {
			grown := make([]step, n, min(2*n, limit))
			ts.steps = grown[:copy(grown, ts.steps)]
		}
	}
	ts.steps = append(ts.steps, step{i, v})
}

// maxSteps is the most steps a series of capacity points holds:
// capacity plus a quarter of it, rounded up.
func maxSteps(capacity int) int { return capacity + (capacity+3)/4 }

// point returns the point at instant j, whose value is v; prev is the
// value at instant j-1, which a counter's rate needs after its first
// point.
func (ts *TimeSeries) point(j int, v, prev float64) Point {
	p := Point{T: ts.rec.instant(j), Value: v}
	if ts.Counter && j > ts.first {
		p.Rate = safeRate(v-prev, p.T-ts.rec.instant(j-1))
	}
	return p
}

// Points returns the retained points, oldest first.
func (ts *TimeSeries) Points() []Point {
	lo, hi := ts.span()
	out := make([]Point, 0, hi-lo)
	k := ts.stepAt(lo)
	prev := ts.steps[max(ts.stepAt(lo-1), 0)].v
	for j := lo; j < hi; j++ {
		if k+1 < len(ts.steps) && ts.steps[k+1].i == j {
			k++
		}
		v := ts.steps[k].v
		out = append(out, ts.point(j, v, prev))
		prev = v
	}
	return out
}

// Len returns how many points are retained.
func (ts *TimeSeries) Len() int {
	lo, hi := ts.span()
	return hi - lo
}

// Dropped returns how many of the series' points aged out.
func (ts *TimeSeries) Dropped() int64 {
	lo, _ := ts.span()
	return int64(lo - ts.first)
}

// Last returns the most recent point (zero Point when empty).
func (ts *TimeSeries) Last() Point {
	if ts.Len() == 0 {
		return Point{}
	}
	j, k := ts.rec.n-1, len(ts.steps)-1
	prev := ts.steps[k].v
	if ts.steps[k].i == j && k > 0 {
		prev = ts.steps[k-1].v
	}
	return ts.point(j, ts.steps[k].v, prev)
}

// RateOver returns the average per-second rate of change between the
// newest retained point and the newest point at or before now-window
// (the oldest retained point when the window reaches past it).
// ok is false when fewer than two distinct instants bound the window —
// no data yields no rate, never zero. Alert rate rules use this instead
// of the instantaneous per-sample Rate, which is too spiky to threshold.
func (ts *TimeSeries) RateOver(now, window time.Duration) (rate float64, ok bool) {
	lo, hi := ts.span()
	if hi-lo < 2 {
		return 0, false
	}
	// Sample instants strictly increase, so the baseline is the last
	// point before the newest whose instant is at or before the cut.
	last, cut := hi-1, now-window
	base := max(lo+sort.Search(last-lo, func(k int) bool { return ts.rec.instant(lo+k) > cut })-1, lo)
	vb, vl := ts.steps[ts.stepAt(base)].v, ts.steps[len(ts.steps)-1].v
	return safeRate(vl-vb, ts.rec.instant(last)-ts.rec.instant(base)), true
}

// Recorder samples a registry into per-series change steps. Series
// appear as the registry first reports them (dynamic families grow
// during a run). The recorder binds one slot to the first entry of each
// key in the registry's sample plan and rebinds only when the plan is
// recompiled, so a steady tick calls one reader per series, compares
// its bits with the slot's last, and writes only where they differ.
type Recorder struct {
	reg   *Registry
	cap   int
	byKey map[string]*TimeSeries
	// series, read and last run in parallel, in key order: read[k] is the
	// plan reader of series[k], and last[k] holds the bits of its newest
	// value.
	series []*TimeSeries
	read   []func() float64
	last   []uint64
	gen    int // plan generation the slots are bound to
	// times rings the newest cap+1 sample instants, one more than a
	// series retains, so its oldest point keeps its rate. n counts every
	// instant; instant i lives at times[i%len(times)].
	times   []time.Duration
	n       int
	samples int64

	// onSample, when set, runs after every Sample with the sampled
	// instant — the alert engine hooks rule evaluation here so alerting
	// rides the existing sampling pump instead of scheduling events of
	// its own.
	onSample func(now time.Duration)
}

// NewRecorder records reg's series, retaining the given number of
// points per series (DefaultSeriesCapacity when capacity <= 0).
func NewRecorder(reg *Registry, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &Recorder{reg: reg, cap: capacity, byKey: make(map[string]*TimeSeries),
		times: make([]time.Duration, capacity+1)}
}

func (r *Recorder) instant(i int) time.Duration { return r.times[i%len(r.times)] }

// Sample records the registry at virtual time now. An instant later
// than the newest gives every series a point. Re-sampling the newest
// instant gives a point only to series that appear then, so overlapping
// pumps cannot duplicate points. An earlier instant records nothing for
// any series, new ones included; no pump produces one. Every call
// counts as a sample and runs the onSample hook.
func (r *Recorder) Sample(now time.Duration) {
	advance := r.n == 0 || now > r.instant(r.n-1)
	if advance || now == r.instant(r.n-1) {
		r.record(now, advance)
	}
	r.samples++
	if r.onSample != nil {
		r.onSample(now)
	}
}

func (r *Recorder) record(now time.Duration, advance bool) {
	r.reg.compile()
	if advance {
		r.times[r.n%len(r.times)] = now
		r.n++
	}
	if r.gen != r.reg.gen {
		r.bind()
	}
	if !advance {
		return
	}
	i := r.n - 1
	for k, read := range r.read {
		v := read()
		if b := math.Float64bits(v); b != r.last[k] {
			r.last[k] = b
			r.series[k].add(i, v)
		}
	}
}

// bind points one slot at the first plan entry of each key. A key never
// sampled before gets a series whose first point, read here, is at the
// newest instant. Later entries with the same key share its series and
// are not read, so the first entry wins. The plan is key-sorted and
// holds every key ever sampled (series never leave a registry), so the
// slots are the series in key order.
func (r *Recorder) bind() {
	r.series, r.read, r.last = r.series[:0], r.read[:0], r.last[:0]
	for i := range r.reg.plan {
		e := &r.reg.plan[i]
		if k := len(r.series); k > 0 && r.series[k-1].Key == e.key {
			continue
		}
		ts, ok := r.byKey[e.key]
		if !ok {
			ts = &TimeSeries{Name: e.name, Labels: e.s.labels, Key: e.key, Counter: e.counter, rec: r,
				first: r.n - 1, steps: []step{{r.n - 1, e.read()}}}
			r.byKey[e.key] = ts
		}
		r.series = append(r.series, ts)
		r.read = append(r.read, e.read)
		r.last = append(r.last, math.Float64bits(ts.steps[len(ts.steps)-1].v))
	}
	r.gen = r.reg.gen
}

// SetOnSample registers a hook that runs after every Sample with the
// sampled virtual instant (nil clears it). Consumers that must see
// exactly the instants the recorder saw — the alert engine — bind here.
func (r *Recorder) SetOnSample(fn func(now time.Duration)) { r.onSample = fn }

// safeRate returns delta per second over elapsed, or 0 when the
// interval is zero or negative — rates must never divide by a
// degenerate interval (clock stalls, duplicate samples, reordered
// pumps), they degrade to "no rate" instead of Inf/NaN.
func safeRate(delta float64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return delta / elapsed.Seconds()
}

// Samples returns how many times Sample ran.
func (r *Recorder) Samples() int64 { return r.samples }

// Registry returns the registry this recorder samples — the report
// builder gathers a run's end-state metrics through it.
func (r *Recorder) Registry() *Registry { return r.reg }

// Series returns every recorded series sorted by key.
func (r *Recorder) Series() []*TimeSeries {
	return append([]*TimeSeries(nil), r.series...)
}

// NumSeries returns how many series the recorder holds. Series never
// leave, so an unchanged count means an unchanged Series list.
func (r *Recorder) NumSeries() int { return len(r.series) }

// Lookup returns the series for name with exactly the given labels, or
// nil if never sampled.
func (r *Recorder) Lookup(name string, labels map[string]string) *TimeSeries {
	return r.byKey[name+renderLabels(labels, "")]
}

// PumpWhile samples every interval of virtual time on eng, starting
// now, and keeps going while cont returns true (checked after each
// sample, so the final state is always captured). A nil cont pumps
// until the engine drains — every pending tick schedules the next, so
// only use nil when something else bounds the run.
func (r *Recorder) PumpWhile(eng *sim.Engine, every time.Duration, cont func() bool) {
	if every <= 0 {
		every = DefaultSampleInterval
	}
	var tick func()
	tick = func() {
		r.Sample(eng.Now())
		if cont == nil || cont() {
			eng.After(every, tick)
		}
	}
	eng.After(0, tick)
}

// --- export ---

type pointJSON struct {
	TMS   float64 `json:"t_ms"`
	Value float64 `json:"v"`
	Rate  float64 `json:"rate,omitempty"`
}

type seriesJSON struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Counter bool              `json:"counter,omitempty"`
	Dropped int64             `json:"dropped,omitempty"`
	Points  []pointJSON       `json:"points"`
}

type recorderJSON struct {
	Samples int64        `json:"samples"`
	Series  []seriesJSON `json:"series"`
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r *Recorder) export() recorderJSON {
	doc := recorderJSON{Samples: r.samples, Series: make([]seriesJSON, 0, len(r.series))}
	for _, ts := range r.series {
		sj := seriesJSON{Name: ts.Name, Labels: ts.Labels, Counter: ts.Counter, Dropped: ts.Dropped()}
		for _, p := range ts.Points() {
			sj.Points = append(sj.Points, pointJSON{TMS: durMS(p.T), Value: p.Value, Rate: p.Rate})
		}
		doc.Series = append(doc.Series, sj)
	}
	return doc
}

// WriteJSON writes the recorded series as a single JSON document.
// Series are sorted by key and label maps marshal with sorted keys, so
// same-seed runs produce byte-identical output.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.export())
}

// csvHeader is shared by Recorder.WriteCSV and RecorderSet.WriteCSV
// (the latter prefixes a run column).
var csvHeader = []string{"series", "labels", "t_ms", "value", "rate_per_s"}

func writeSeriesCSV(cw *csv.Writer, prefix []string, series []*TimeSeries) error {
	for _, ts := range series {
		labels := renderLabels(ts.Labels, "")
		for _, p := range ts.Points() {
			row := append(append([]string(nil), prefix...),
				ts.Name,
				labels,
				formatValue(durMS(p.T)),
				formatValue(p.Value),
				formatValue(p.Rate),
			)
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV writes one row per point: series,labels,t_ms,value,rate_per_s.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	if err := writeSeriesCSV(cw, nil, r.series); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// RecorderSet groups one flight recorder per run (one experiment
// configuration, one policy...) for a single export file — what
// `trenv-bench -timeseries` threads through the figure runs.
type RecorderSet struct {
	every time.Duration
	cap   int
	runs  []recorderRun
}

type recorderRun struct {
	Run string
	Rec *Recorder
}

// NewRecorderSet builds a set whose recorders sample every interval and
// retain the given number of points per series (defaults apply when
// <= 0).
func NewRecorderSet(every time.Duration, capacity int) *RecorderSet {
	if every <= 0 {
		every = DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &RecorderSet{every: every, cap: capacity}
}

// Every returns the sampling interval.
func (s *RecorderSet) Every() time.Duration { return s.every }

// Track adds a recorder over reg for a named run and returns it.
func (s *RecorderSet) Track(run string, reg *Registry) *Recorder {
	rec := NewRecorder(reg, s.cap)
	s.runs = append(s.runs, recorderRun{Run: run, Rec: rec})
	return rec
}

// Runs returns how many runs the set tracks.
func (s *RecorderSet) Runs() int { return len(s.runs) }

// Each visits every tracked run in the order it was added.
func (s *RecorderSet) Each(fn func(run string, rec *Recorder)) {
	for _, rr := range s.runs {
		fn(rr.Run, rr.Rec)
	}
}

type runJSON struct {
	Run     string       `json:"run"`
	Samples int64        `json:"samples"`
	Series  []seriesJSON `json:"series"`
}

// WriteJSON writes every run's series as one JSON document, in the
// order the runs were tracked.
func (s *RecorderSet) WriteJSON(w io.Writer) error {
	doc := struct {
		Runs []runJSON `json:"runs"`
	}{Runs: make([]runJSON, 0, len(s.runs))}
	for _, rr := range s.runs {
		rd := rr.Rec.export()
		doc.Runs = append(doc.Runs, runJSON{Run: rr.Run, Samples: rd.Samples, Series: rd.Series})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WriteCSV writes every run's points with a leading run column.
func (s *RecorderSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"run"}, csvHeader...)); err != nil {
		return err
	}
	for _, rr := range s.runs {
		if err := writeSeriesCSV(cw, []string{rr.Run}, rr.Rec.series); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RegisterTracerDrops exposes a span tracer's drop count.
func RegisterTracerDrops(reg *Registry, labels map[string]string, tr *Tracer) {
	reg.CounterFunc("trenv_spans_dropped_total",
		"Invocation spans that aged out of the tracer ring.",
		labels, tr.Dropped)
}
