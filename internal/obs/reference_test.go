package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/sim"
)

// The reference registry is the render-every-gather implementation the
// compiled sample plan replaced, kept as the differential oracle: every
// gather materialises each family's static and gathered series, renders
// every key, and sorts. Its recorder pushes every sampled point into a
// per-series ring (refRing), the storage the change steps replaced. It
// shares only the leaf helpers (renderLabels, escapeLabel, formatValue,
// FormatLe, safeRate) and the export types with the real registry and
// recorder, so a plan that drops, duplicates, misorders or stale-reads a
// series, or a step that derives a wrong point, shows up as a difference
// in Gather, WritePrometheus or the recorder's series.
//
// Two things differ from the historical code, both to make the oracle
// deterministic: families are visited in name order, and the final sort
// is stable, so duplicate label sets keep registration order (static
// series first, then gathered ones). The historical code visited
// families in map order and used an unstable sort, which left the order
// of duplicate keys unspecified.

type refLabeledValue struct {
	Labels map[string]string
	Value  float64
}

type refLabeledHistogram struct {
	Labels    map[string]string
	Hist      *sim.Histogram
	Exemplars *ExemplarReservoir
}

type refSeries struct {
	labels map[string]string
	value  func() float64
	hist   *sim.Histogram
	ex     *ExemplarReservoir
}

type refFamily struct {
	name       string
	help       string
	kind       familyKind
	series     []refSeries
	gathers    []func() []refLabeledHistogram
	gatherVals []func() []refLabeledValue
}

type refRegistry struct {
	families map[string]*refFamily
}

func newRefRegistry() *refRegistry {
	return &refRegistry{families: make(map[string]*refFamily)}
}

func (r *refRegistry) familyFor(name, help string, kind familyKind) *refFamily {
	checkName(name)
	f, ok := r.families[name]
	if !ok {
		f = &refFamily{name: name, help: help, kind: kind}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

func (r *refRegistry) CounterFunc(name, help string, labels map[string]string, fn func() int64) {
	f := r.familyFor(name, help, kindCounter)
	f.series = append(f.series, refSeries{labels: labels, value: func() float64 { return float64(fn()) }})
}

func (r *refRegistry) GaugeFunc(name, help string, labels map[string]string, fn func() float64) {
	f := r.familyFor(name, help, kindGauge)
	f.series = append(f.series, refSeries{labels: labels, value: fn})
}

func (r *refRegistry) Histogram(name, help string, labels map[string]string, h *sim.Histogram) {
	f := r.familyFor(name, help, kindSummary)
	f.series = append(f.series, refSeries{labels: labels, hist: h})
}

func (r *refRegistry) HistogramFunc(name, help string, gather func() []refLabeledHistogram) {
	f := r.familyFor(name, help, kindSummary)
	f.gathers = append(f.gathers, gather)
}

func (r *refRegistry) CounterSetFunc(name, help string, gather func() []refLabeledValue) {
	f := r.familyFor(name, help, kindCounter)
	f.gatherVals = append(f.gatherVals, gather)
}

func (r *refRegistry) GaugeSetFunc(name, help string, gather func() []refLabeledValue) {
	f := r.familyFor(name, help, kindGauge)
	f.gatherVals = append(f.gatherVals, gather)
}

// allSeries materialises the family's static and gathered series.
func (f *refFamily) allSeries() []refSeries {
	ss := append([]refSeries(nil), f.series...)
	for _, g := range f.gathers {
		for _, lh := range g() {
			ss = append(ss, refSeries{labels: lh.Labels, hist: lh.Hist, ex: lh.Exemplars})
		}
	}
	for _, g := range f.gatherVals {
		for _, lv := range g() {
			v := lv.Value
			ss = append(ss, refSeries{labels: lv.Labels, value: func() float64 { return v }})
		}
	}
	return ss
}

func (r *refRegistry) sortedNames() []string {
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *refRegistry) Gather() []Sample {
	var out []Sample
	for _, n := range r.sortedNames() {
		f := r.families[n]
		for _, s := range f.allSeries() {
			base := renderLabels(s.labels, "")
			switch f.kind {
			case kindCounter, kindGauge:
				out = append(out, Sample{
					Name:    f.name,
					Labels:  s.labels,
					Key:     f.name + base,
					Value:   s.value(),
					Counter: f.kind == kindCounter,
				})
			case kindSummary:
				out = append(out,
					Sample{
						Name:    f.name + "_count",
						Labels:  s.labels,
						Key:     f.name + "_count" + base,
						Value:   float64(s.hist.N()),
						Counter: true,
					},
					Sample{
						Name:    f.name + "_sum",
						Labels:  s.labels,
						Key:     f.name + "_sum" + base,
						Value:   s.hist.Sum(),
						Counter: true,
					})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (r *refRegistry) WritePrometheus(w io.Writer) error {
	for _, n := range r.sortedNames() {
		f := r.families[n]
		ss := f.allSeries()
		type rendered struct {
			key   string
			lines []string
		}
		rows := make([]rendered, 0, len(ss))
		for _, s := range ss {
			base := renderLabels(s.labels, "")
			var lines []string
			switch f.kind {
			case kindCounter, kindGauge:
				lines = append(lines, fmt.Sprintf("%s%s %s", f.name, base, formatValue(s.value())))
			case kindSummary:
				for _, q := range summaryQuantiles {
					ql := renderLabels(s.labels, `quantile="`+formatValue(q)+`"`)
					lines = append(lines, fmt.Sprintf("%s%s %s", f.name, ql, formatValue(s.hist.Percentile(q*100))))
				}
				lines = append(lines,
					fmt.Sprintf("%s_sum%s %s", f.name, base, formatValue(s.hist.Sum())),
					fmt.Sprintf("%s_count%s %s", f.name, base, strconv.Itoa(s.hist.N())))
				if s.ex != nil {
					var cum int64
					for _, b := range s.ex.Snapshot() {
						cum += b.Count
						bl := renderLabels(s.labels, `le="`+FormatLe(b.UpperBound)+`"`)
						line := fmt.Sprintf("%s_bucket%s %d", f.name, bl, cum)
						if e, ok := b.Pick(); ok {
							line += ` # {trace_id="` + escapeLabel(e.TraceID) + `"} ` + formatValue(e.Value)
						}
						lines = append(lines, line)
					}
				}
			}
			rows = append(rows, rendered{key: base, lines: lines})
		}
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, row := range rows {
			for _, line := range row.lines {
				if _, err := io.WriteString(w, line+"\n"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// refRing is the historical per-series ring the change-step series
// replaced: it stores every sampled point, with its rate derived at push
// time, and overwrites the oldest once full.
type refRing struct {
	Name    string
	Labels  map[string]string
	Key     string
	Counter bool

	cap     int
	points  []Point
	head    int // oldest retained point once full
	dropped int64

	lastT time.Duration
	lastV float64
	seen  bool
}

func (ts *refRing) push(p Point) {
	if len(ts.points) < ts.cap {
		ts.points = append(ts.points, p)
		return
	}
	ts.points[ts.head] = p
	ts.head = (ts.head + 1) % ts.cap
	ts.dropped++
}

func (ts *refRing) Points() []Point {
	out := make([]Point, 0, len(ts.points))
	out = append(out, ts.points[ts.head:]...)
	return append(out, ts.points[:ts.head]...)
}

func (ts *refRing) Len() int { return len(ts.points) }

func (ts *refRing) Dropped() int64 { return ts.dropped }

func (ts *refRing) Last() Point {
	if len(ts.points) == 0 {
		return Point{}
	}
	return ts.at(len(ts.points) - 1)
}

func (ts *refRing) at(i int) Point {
	if len(ts.points) < ts.cap {
		return ts.points[i]
	}
	return ts.points[(ts.head+i)%ts.cap]
}

func (ts *refRing) RateOver(now, window time.Duration) (rate float64, ok bool) {
	n := len(ts.points)
	if n < 2 {
		return 0, false
	}
	last := ts.at(n - 1)
	cut := now - window
	baseline := ts.at(0)
	for i := n - 2; i >= 0; i-- {
		if p := ts.at(i); p.T <= cut {
			baseline = p
			break
		}
	}
	if baseline.T >= last.T {
		return 0, false
	}
	return safeRate(last.Value-baseline.Value, last.T-baseline.T), true
}

// refRecorder is the historical flight recorder: it gathers the whole
// reference registry every sample, looks every key up in a map, and
// pushes one point per series into its ring.
type refRecorder struct {
	reg     *refRegistry
	cap     int
	series  map[string]*refRing
	order   []string
	samples int64
}

func newRefRecorder(reg *refRegistry, capacity int) *refRecorder {
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &refRecorder{reg: reg, cap: capacity, series: make(map[string]*refRing)}
}

func (r *refRecorder) Sample(now time.Duration) {
	for _, s := range r.reg.Gather() {
		ts, ok := r.series[s.Key]
		if !ok {
			ts = &refRing{Name: s.Name, Labels: s.Labels, Key: s.Key, Counter: s.Counter, cap: r.cap}
			r.series[s.Key] = ts
			i := sort.SearchStrings(r.order, s.Key)
			r.order = append(r.order, "")
			copy(r.order[i+1:], r.order[i:])
			r.order[i] = s.Key
		}
		if ts.seen && now <= ts.lastT {
			continue
		}
		var rate float64
		if s.Counter && ts.seen {
			rate = safeRate(s.Value-ts.lastV, now-ts.lastT)
		}
		ts.push(Point{T: now, Value: s.Value, Rate: rate})
		ts.lastT, ts.lastV, ts.seen = now, s.Value, true
	}
	r.samples++
}

func (r *refRecorder) export() recorderJSON {
	doc := recorderJSON{Samples: r.samples, Series: make([]seriesJSON, 0, len(r.order))}
	for _, k := range r.order {
		ts := r.series[k]
		sj := seriesJSON{Name: ts.Name, Labels: ts.Labels, Counter: ts.Counter, Dropped: ts.dropped}
		for _, p := range ts.Points() {
			sj.Points = append(sj.Points, pointJSON{TMS: durMS(p.T), Value: p.Value, Rate: p.Rate})
		}
		doc.Series = append(doc.Series, sj)
	}
	return doc
}
