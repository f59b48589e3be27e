package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Registry is a pull-based metrics registry: components register
// counters, gauges, and histograms once, and every export gathers the
// current values. Values come from closures (or live sim.Histogram
// references), so instrumented code keeps using the repo's existing
// sim.Counter / sim.Histogram types unchanged.
//
// The registry's contract:
//   - a label map is immutable once registered: its names are checked
//     when the series is registered or added to a set, and it is
//     rendered once, by the first compile that sees it;
//   - series never leave a registry;
//   - series whose label sets appear during a run (per function, per
//     fault kind, per burn window) arrive through append-only sets
//     (ValueSet, HistogramSet) that their producer owns and grows, so
//     nothing writes to a registry during a run;
//   - the registry compiles its series into a key-sorted sample plan
//     lazily, on the first gather after a series appears. A gather or
//     flight-recorder tick over an unchanged registry then reads one
//     value per series and renders, sorts and looks up nothing.
type Registry struct {
	families map[string]*family
	names    []string   // family names, sorted by compile
	sets     []boundSet // every registered set and the length last compiled
	dirty    bool       // a family or static series appeared since the last compile
	plan     []planEntry
	gen      int // bumped by every compile; recorders rebind their slots when it moves
}

type familyKind string

const (
	kindCounter familyKind = "counter"
	kindGauge   familyKind = "gauge"
	kindSummary familyKind = "summary"
)

type family struct {
	name   string
	help   string
	kind   familyKind
	static seriesList   // registration order
	sets   []*seriesSet // registration order
	// rows is every series sorted by rendered labels, and count and sum
	// are a summary's _count and _sum sample names: compile sets all
	// three.
	rows       []row
	count, sum string
}

// series is one registered series: how to read it, nothing rendered.
// value reads a counter or gauge, or a summary's _count, and sum a
// summary's _sum; both are built once, when the series is registered.
type series struct {
	labels     map[string]string
	value, sum func() float64
	hist       *sim.Histogram
	ex         func() *ExemplarReservoir
}

// seriesText is a series' rendered labels (base: `{k="v",...}`, ""
// when empty) and sample key (a summary's _count key; sumKey is its
// _sum key), rendered once by the first compile that sees the series.
type seriesText struct{ base, key, sumKey string }

// seriesList holds series by value, in registration order, with their
// text. Pointers into it are taken only by compile: an append that
// moves either slice always leaves the plan stale first.
type seriesList struct {
	series []series
	text   []seriesText // text[i] renders series[i]; compile extends it
}

type row struct {
	s *series
	t *seriesText
}

// planEntry is one sample of the compiled plan: a counter or gauge
// value, or one of a summary's _count and _sum, with its series' reader
// for that sample.
type planEntry struct {
	key     string
	name    string
	s       *series
	read    func() float64
	counter bool
}

type boundSet struct {
	set *seriesSet
	n   int // len(set.series) at the last compile
}

// seriesSet is the append-only series list behind ValueSet and
// HistogramSet.
type seriesSet struct {
	seriesList
	bound bool // registered: a set feeds exactly one family
}

// ValueSet is an append-only set of counter or gauge series whose label
// sets appear during a run: one per function, fault kind, or burn
// window. Its producer owns it and adds each series once, when the
// label set first appears; the registry it is registered with (through
// CounterSet or GaugeSet) notices the new length on its next gather.
// Register a set in one family of one registry only.
type ValueSet struct{ seriesSet }

// Add appends a series whose value is read through value at gather
// time. labels must not change afterwards; a label name outside
// [a-zA-Z_][a-zA-Z0-9_]* panics here.
func (s *ValueSet) Add(labels map[string]string, value func() float64) {
	s.series = append(s.series, newSeries(labels, value, nil, nil))
}

// HistogramSet is ValueSet's summary analogue: live histograms (per
// function, per agent) exported as Prometheus summaries.
type HistogramSet struct{ seriesSet }

// Add appends a live histogram. exemplars, when non-nil, returns the
// series' exemplar reservoir at export time (nil while none exists);
// a reservoir adds OpenMetrics bucket lines with `# {trace_id=...}`
// annotations to the exported summary. labels must not change
// afterwards; a label name outside [a-zA-Z_][a-zA-Z0-9_]* panics here.
func (s *HistogramSet) Add(labels map[string]string, h *sim.Histogram, exemplars func() *ExemplarReservoir) {
	s.series = append(s.series, newSeries(labels, nil, h, exemplars))
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func checkName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}

// checkLabelName enforces the Prometheus label-name grammar
// [a-zA-Z_][a-zA-Z0-9_]*, which, unlike metric names, has no colon.
func checkLabelName(name string) {
	if name == "" {
		panic("obs: empty label name")
	}
	for i, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid label name %q", name))
		}
	}
}

// newSeries validates the label names; compile renders them later. A
// histogram's _count and _sum readers are built here.
func newSeries(labels map[string]string, value func() float64, h *sim.Histogram, ex func() *ExemplarReservoir) series {
	if len(labels) > 0 {
		for k := range labels {
			checkLabelName(k)
		}
	}
	s := series{labels: labels, value: value, hist: h, ex: ex}
	if h != nil {
		s.value, s.sum = func() float64 { return float64(h.N()) }, h.Sum
	}
	return s
}

func (r *Registry) familyFor(name, help string, kind familyKind) *family {
	checkName(name)
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.names = append(r.names, name)
		r.dirty = true
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

func (r *Registry) addStatic(name, help string, kind familyKind, s series) {
	f := r.familyFor(name, help, kind)
	f.static.series = append(f.static.series, s)
	r.dirty = true
}

func (r *Registry) addSet(name, help string, kind familyKind, set *seriesSet) {
	if set.bound {
		panic(fmt.Sprintf("obs: series set for %q is already registered", name))
	}
	f := r.familyFor(name, help, kind)
	set.bound = true
	f.sets = append(f.sets, set)
	r.sets = append(r.sets, boundSet{set: set})
	r.dirty = true
}

// CounterFunc registers a monotonically-increasing value read at export
// time. Registering the same name again with different labels adds a
// series to the family.
func (r *Registry) CounterFunc(name, help string, labels map[string]string, fn func() int64) {
	r.addStatic(name, help, kindCounter, newSeries(labels, func() float64 { return float64(fn()) }, nil, nil))
}

// GaugeFunc registers an instantaneous value read at export time.
func (r *Registry) GaugeFunc(name, help string, labels map[string]string, fn func() float64) {
	r.addStatic(name, help, kindGauge, newSeries(labels, fn, nil, nil))
}

// Histogram registers a live histogram, exported as a Prometheus
// summary (quantiles + _sum + _count).
func (r *Registry) Histogram(name, help string, labels map[string]string, h *sim.Histogram) {
	r.addStatic(name, help, kindSummary, newSeries(labels, nil, h, nil))
}

// CounterSet registers a dynamic counter family fed by set. Several
// sets may feed one family (one per node in a fleet registry).
func (r *Registry) CounterSet(name, help string, set *ValueSet) {
	r.addSet(name, help, kindCounter, &set.seriesSet)
}

// GaugeSet registers a dynamic gauge family fed by set.
func (r *Registry) GaugeSet(name, help string, set *ValueSet) {
	r.addSet(name, help, kindGauge, &set.seriesSet)
}

// HistogramSet registers a dynamic summary family fed by set:
// per-function histograms that only exist once the function has been
// invoked.
func (r *Registry) HistogramSet(name, help string, set *HistogramSet) {
	r.addSet(name, help, kindSummary, &set.seriesSet)
}

// summaryQuantiles are the quantiles exported for every histogram;
// quantileLabels holds their rendered label pairs.
var (
	summaryQuantiles = []float64{0.5, 0.9, 0.99}
	quantileLabels   = func() []string {
		out := make([]string, len(summaryQuantiles))
		for i, q := range summaryQuantiles {
			out[i] = `quantile="` + formatValue(q) + `"`
		}
		return out
	}()
)

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// renderLabels returns `{k="v",...}` with the pairs sorted ("" when
// empty). extra, if non-empty, is appended verbatim as the last pair.
// Values are escaped exactly once (escapeLabel); %q would re-escape the
// backslashes escapeLabel just inserted.
func renderLabels(labels map[string]string, extra string) string {
	var pairs []string
	for k, v := range labels {
		pairs = append(pairs, k+`="`+escapeLabel(v)+`"`)
	}
	sort.Strings(pairs)
	if extra != "" {
		pairs = append(pairs, extra)
	}
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// appendLabels appends base (a rendered label set) with extra added as
// its last pair: what renderLabels(labels, extra) returns.
func appendLabels(b []byte, base, extra string) []byte {
	if base == "" {
		b = append(b, '{')
	} else {
		b = append(b, base[:len(base)-1]...)
		b = append(b, ',')
	}
	b = append(b, extra...)
	return append(b, '}')
}

// appendRows renders the list's new series for f (a series belongs to
// exactly one family) and appends a row for every series.
func (l *seriesList) appendRows(f *family, rows []row) []row {
	for i := len(l.text); i < len(l.series); i++ {
		t := seriesText{base: renderLabels(l.series[i].labels, "")}
		if f.kind == kindSummary {
			t.key, t.sumKey = f.count+t.base, f.sum+t.base
		} else {
			t.key = f.name + t.base
		}
		l.text = append(l.text, t)
	}
	for i := range l.series {
		rows = append(rows, row{s: &l.series[i], t: &l.text[i]})
	}
	return rows
}

// stale reports whether a series appeared since the last compile: a
// steady registry costs one length comparison per registered set.
func (r *Registry) stale() bool {
	if r.dirty {
		return true
	}
	for i := range r.sets {
		if len(r.sets[i].set.series) != r.sets[i].n {
			return true
		}
	}
	return false
}

// compile rebuilds the sample plan when a series appeared since the
// last compile. Each family's rows are its static series and then its
// sets' series, in registration order, stably sorted by rendered
// labels; the plan is every family's samples stably sorted by key. So
// duplicate label sets keep registration order everywhere.
func (r *Registry) compile() {
	if !r.stale() {
		return
	}
	for i := range r.sets {
		r.sets[i].n = len(r.sets[i].set.series)
	}
	sort.Strings(r.names)
	for _, name := range r.names {
		f := r.families[name]
		if f.kind == kindSummary && f.count == "" {
			f.count, f.sum = name+"_count", name+"_sum"
		}
		f.rows = f.static.appendRows(f, f.rows[:0])
		for _, set := range f.sets {
			f.rows = set.appendRows(f, f.rows)
		}
		slices.SortStableFunc(f.rows, func(a, b row) int { return strings.Compare(a.t.base, b.t.base) })
	}
	plan := r.plan[:0]
	for _, name := range r.names {
		f := r.families[name]
		for _, rw := range f.rows {
			if f.kind != kindSummary {
				plan = append(plan, planEntry{key: rw.t.key, name: f.name, s: rw.s, read: rw.s.value, counter: f.kind == kindCounter})
				continue
			}
			plan = append(plan,
				planEntry{key: rw.t.key, name: f.count, s: rw.s, read: rw.s.value, counter: true},
				planEntry{key: rw.t.sumKey, name: f.sum, s: rw.s, read: rw.s.sum, counter: true})
		}
	}
	slices.SortStableFunc(plan, func(a, b planEntry) int { return strings.Compare(a.key, b.key) })
	r.plan, r.dirty = plan, false
	r.gen++
}

// Sample is one gathered series value: counters and gauges directly,
// summaries as their _count and _sum. It is what the flight recorder
// snapshots every sampling tick.
type Sample struct {
	Name    string
	Labels  map[string]string
	Key     string // Name plus rendered sorted labels; unique per series
	Value   float64
	Counter bool // monotone — a rate-of-change is meaningful
}

// Gather reads every series in the registry, sorted by Key so repeated
// gathers of the same simulation state are identical.
func (r *Registry) Gather() []Sample {
	r.compile()
	if len(r.plan) == 0 {
		return nil
	}
	out := make([]Sample, len(r.plan))
	for i := range r.plan {
		e := &r.plan[i]
		out[i] = Sample{Name: e.name, Labels: e.s.labels, Key: e.key, Value: e.read(), Counter: e.counter}
	}
	return out
}

// WritePrometheus writes every registered family in Prometheus
// text-format (version 0.0.4). Families and series are sorted, so the
// output for a fixed simulation state is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.compile()
	var b []byte
	for _, name := range r.names {
		f := r.families[name]
		b = append(b[:0], "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.help...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, string(f.kind)...)
		b = append(b, '\n')
		for _, rw := range f.rows {
			if f.kind != kindSummary {
				b = append(b, f.name...)
				b = append(b, rw.t.base...)
				b = append(b, ' ')
				b = strconv.AppendFloat(b, rw.s.value(), 'g', -1, 64)
				b = append(b, '\n')
				continue
			}
			b = appendSummary(b, f.name, rw.s, rw.t.base)
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// appendSummary renders one summary series: its quantiles, _sum and
// _count, then, when it has an exemplar reservoir, one cumulative
// _bucket line per bucket carrying the bucket's representative
// exemplar.
func appendSummary(b []byte, name string, s *series, base string) []byte {
	for i, q := range summaryQuantiles {
		b = append(b, name...)
		b = appendLabels(b, base, quantileLabels[i])
		b = append(b, ' ')
		b = strconv.AppendFloat(b, s.hist.Percentile(q*100), 'g', -1, 64)
		b = append(b, '\n')
	}
	b = append(b, name...)
	b = append(b, "_sum"...)
	b = append(b, base...)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, s.sum(), 'g', -1, 64)
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, "_count"...)
	b = append(b, base...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(s.hist.N()), 10)
	b = append(b, '\n')
	if s.ex == nil {
		return b
	}
	ex := s.ex()
	if ex == nil {
		return b
	}
	var cum int64
	for _, bk := range ex.Snapshot() {
		cum += bk.Count
		b = append(b, name...)
		b = append(b, "_bucket"...)
		b = appendLabels(b, base, `le="`+FormatLe(bk.UpperBound)+`"`)
		b = append(b, ' ')
		b = strconv.AppendInt(b, cum, 10)
		if e, ok := bk.Pick(); ok {
			b = append(b, ` # {trace_id="`...)
			b = append(b, escapeLabel(e.TraceID)...)
			b = append(b, `"} `...)
			b = strconv.AppendFloat(b, e.Value, 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	return b
}
