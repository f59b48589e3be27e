package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
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

// The reference span is the span before attribute slices and integer
// span IDs, kept as the oracle of FuzzSpanDifferential: attributes in a
// map, IDs rendered by fmt.Sprintf when they are stamped, and every
// export, Find and Analyze written against that shape. It shares only
// the leaf helpers (micros, foldFrame) and the analysis output types
// with the real span code, so an attribute lookup, ID rendering or
// export that differs from the historical bytes shows up as a
// difference in an export, a rendered ID or a Find.

type refSpan struct {
	Name     string
	Start    time.Duration
	End      time.Duration
	TraceID  string
	SpanID   string
	Links    []refLink
	Attrs    map[string]string
	Error    string
	Children []*refSpan
}

type refLink struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id,omitempty"`
	Type    string `json:"type,omitempty"`
}

func refFNV1a64(parts ...string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime
		}
		h ^= 0x1f
		h *= prime
	}
	return h
}

func refTraceIDFor(parts ...string) string {
	return fmt.Sprintf("%016x", refFNV1a64(parts...))
}

func refSpanIDFor(traceID string, walkIndex int) string {
	return fmt.Sprintf("%08x", uint32(refFNV1a64(traceID, strconv.Itoa(walkIndex))))
}

func newRefSpan(name string, start, end time.Duration) *refSpan {
	return &refSpan{Name: name, Start: start, End: end}
}

func (s *refSpan) Duration() time.Duration { return s.End - s.Start }

func (s *refSpan) SetAttr(k, v string) *refSpan {
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	s.Attrs[k] = v
	return s
}

func (s *refSpan) Child(name string, start, end time.Duration) *refSpan {
	c := newRefSpan(name, start, end)
	s.Children = append(s.Children, c)
	return c
}

func (s *refSpan) Fail(err error) *refSpan {
	if err != nil {
		s.Error = err.Error()
	}
	return s
}

func (s *refSpan) AddLink(l refLink) *refSpan {
	s.Links = append(s.Links, l)
	return s
}

func (s *refSpan) AssignIDs(traceID string) *refSpan {
	i := 0
	s.Walk(func(_ int, sp *refSpan) {
		sp.TraceID = traceID
		sp.SpanID = refSpanIDFor(traceID, i)
		i++
	})
	return s
}

func (s *refSpan) Find(spanID string) *refSpan {
	var out *refSpan
	s.Walk(func(_ int, sp *refSpan) {
		if out == nil && sp.SpanID == spanID {
			out = sp
		}
	})
	return out
}

func (s *refSpan) SelfTime() time.Duration {
	self := s.Duration() - s.ChildrenTotal()
	if self < 0 {
		return 0
	}
	return self
}

func (s *refSpan) Walk(fn func(depth int, sp *refSpan)) {
	var rec func(d int, sp *refSpan)
	rec = func(d int, sp *refSpan) {
		fn(d, sp)
		for _, c := range sp.Children {
			rec(d+1, c)
		}
	}
	rec(0, s)
}

func (s *refSpan) ChildrenTotal() time.Duration {
	var t time.Duration
	for _, c := range s.Children {
		t += c.Duration()
	}
	return t
}

func (s *refSpan) String() string {
	var b strings.Builder
	s.Walk(func(d int, sp *refSpan) {
		fmt.Fprintf(&b, "%s%-20s %12v +%v", strings.Repeat("  ", d), sp.Name, sp.Start, sp.Duration())
		if sp.Error != "" {
			fmt.Fprintf(&b, "  ERROR: %s", sp.Error)
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// refTracer keeps every recorded root (the fuzz programs record fewer
// than a tracer's capacity) and streams each as a JSONL line, stamping
// unstamped roots from its sequence counter as Tracer.Record does.
type refTracer struct {
	roots  []*refSpan
	seq    int64
	stream bytes.Buffer
}

func (t *refTracer) Record(root *refSpan) {
	if root.TraceID == "" {
		root.AssignIDs(refTraceIDFor("tracer", strconv.FormatInt(t.seq, 10), root.Name))
	}
	t.seq++
	t.roots = append(t.roots, root)
	json.NewEncoder(&t.stream).Encode(refSpanToJSON(root)) //nolint:errcheck // as Tracer.Record
}

type refSpanJSON struct {
	Name     string            `json:"name"`
	TraceID  string            `json:"trace_id,omitempty"`
	SpanID   string            `json:"span_id,omitempty"`
	StartUs  float64           `json:"start_us"`
	DurUs    float64           `json:"dur_us"`
	Links    []refLink         `json:"links,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Error    string            `json:"error,omitempty"`
	Children []refSpanJSON     `json:"children,omitempty"`
}

func refSpanToJSON(s *refSpan) refSpanJSON {
	out := refSpanJSON{
		Name:    s.Name,
		TraceID: s.TraceID,
		SpanID:  s.SpanID,
		StartUs: micros(s.Start),
		DurUs:   micros(s.Duration()),
		Links:   s.Links,
		Attrs:   s.Attrs,
		Error:   s.Error,
	}
	for _, c := range s.Children {
		out.Children = append(out.Children, refSpanToJSON(c))
	}
	return out
}

func refWriteJSONL(w io.Writer, roots []*refSpan) error {
	enc := json.NewEncoder(w)
	for _, r := range roots {
		if err := enc.Encode(refSpanToJSON(r)); err != nil {
			return fmt.Errorf("obs: write jsonl: %w", err)
		}
	}
	return nil
}

type refChromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type refChromeDoc struct {
	TraceEvents     []refChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

func refWriteChromeTrace(w io.Writer, roots []*refSpan) error {
	doc := refChromeDoc{DisplayTimeUnit: "ms", TraceEvents: []refChromeEvent{}}
	for i, root := range roots {
		tid := i + 1
		root.Walk(func(_ int, sp *refSpan) {
			args := make(map[string]string, len(sp.Attrs)+3)
			for k, v := range sp.Attrs {
				args[k] = v
			}
			if sp.TraceID != "" {
				args["trace_id"] = sp.TraceID
			}
			if sp.SpanID != "" {
				args["span_id"] = sp.SpanID
			}
			if sp.Error != "" {
				args["error"] = sp.Error
			}
			if len(args) == 0 {
				args = nil
			}
			doc.TraceEvents = append(doc.TraceEvents, refChromeEvent{
				Name: sp.Name,
				Ph:   "X",
				Ts:   micros(sp.Start),
				Dur:  micros(sp.Duration()),
				Pid:  1,
				Tid:  tid,
				Args: args,
			})
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("obs: write chrome trace: %w", err)
	}
	return nil
}

func refWriteFolded(w io.Writer, roots []*refSpan) error {
	stacks := make(map[string]int64)
	for _, root := range roots {
		var frames []string
		var rec func(sp *refSpan)
		rec = func(sp *refSpan) {
			frames = append(frames, foldFrame(sp.Name))
			if self := sp.SelfTime(); self > 0 {
				stacks[strings.Join(frames, ";")] += self.Microseconds()
			}
			for _, c := range sp.Children {
				rec(c)
			}
			frames = frames[:len(frames)-1]
		}
		rec(root)
	}
	keys := make([]string, 0, len(stacks))
	for k := range stacks {
		if stacks[k] > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, stacks[k]); err != nil {
			return fmt.Errorf("obs: write folded: %w", err)
		}
	}
	return nil
}

func refCriticalPath(root *refSpan) []PathStep {
	var path []PathStep
	for sp := root; sp != nil; {
		step := PathStep{
			Name:    sp.Name,
			SpanID:  sp.SpanID,
			StartUs: micros(sp.Start),
			DurUs:   micros(sp.Duration()),
			SelfUs:  micros(sp.SelfTime()),
		}
		if sp.Attrs != nil {
			step.Node = sp.Attrs["node"]
		}
		for _, l := range sp.Links {
			if l.TraceID != "" && l.TraceID != sp.TraceID {
				step.LinkedTrace = l.TraceID
				break
			}
		}
		path = append(path, step)
		var next *refSpan
		for _, c := range sp.Children {
			if next == nil ||
				c.Duration() > next.Duration() ||
				(c.Duration() == next.Duration() && (c.Start < next.Start ||
					(c.Start == next.Start && c.Name < next.Name))) {
				next = c
			}
		}
		sp = next
	}
	return path
}

func refPhaseSelfTimes(root *refSpan) map[string]time.Duration {
	out := make(map[string]time.Duration)
	root.Walk(func(_ int, sp *refSpan) {
		if self := sp.SelfTime(); self > 0 {
			out[sp.Name] += self
		}
	})
	return out
}

func refAttr(sp *refSpan, k string) string {
	if sp.Attrs != nil {
		return sp.Attrs[k]
	}
	return ""
}

func refPickAtOrAbove(invs []*refSpan, q time.Duration) *refSpan {
	var best *refSpan
	for _, sp := range invs {
		if sp.Duration() < q {
			continue
		}
		if best == nil || sp.Duration() < best.Duration() ||
			(sp.Duration() == best.Duration() && sp.TraceID < best.TraceID) {
			best = sp
		}
	}
	return best
}

func refAnalyze(roots []*refSpan, topK int) *Report {
	if topK <= 0 {
		topK = 10
	}
	var invs []*refSpan
	for _, r := range roots {
		if strings.HasPrefix(r.Name, invokePrefix) {
			invs = append(invs, r)
		}
	}
	rep := &Report{Invocations: len(invs)}
	sorted := append([]*refSpan(nil), invs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Duration() != sorted[j].Duration() {
			return sorted[i].Duration() > sorted[j].Duration()
		}
		return sorted[i].TraceID < sorted[j].TraceID
	})
	for _, sp := range sorted {
		if sp.Error != "" {
			rep.Errors++
		}
	}
	for i := 0; i < len(sorted) && i < topK; i++ {
		sp := sorted[i]
		rep.Slowest = append(rep.Slowest, SlowInvocation{
			TraceID:      sp.TraceID,
			Function:     refAttr(sp, "function"),
			Node:         refAttr(sp, "node"),
			DurUs:        micros(sp.Duration()),
			Error:        sp.Error,
			CriticalPath: refCriticalPath(sp),
		})
	}
	byFn := make(map[string][]*refSpan)
	for _, sp := range invs {
		byFn[refAttr(sp, "function")] = append(byFn[refAttr(sp, "function")], sp)
	}
	fns := make([]string, 0, len(byFn))
	for fn := range byFn {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		group := byFn[fn]
		perInv := make([]map[string]time.Duration, len(group))
		phaseSet := make(map[string]bool)
		for i, sp := range group {
			perInv[i] = refPhaseSelfTimes(sp)
			for p := range perInv[i] {
				phaseSet[p] = true
			}
		}
		phases := make([]string, 0, len(phaseSet))
		for p := range phaseSet {
			phases = append(phases, p)
		}
		sort.Strings(phases)
		attr := PhaseAttribution{Function: fn, Invocations: len(group)}
		for _, p := range phases {
			var h sim.Histogram
			for i := range group {
				h.Add(micros(perInv[i][p]))
			}
			attr.Phases = append(attr.Phases, PhaseQuantiles{
				Phase:  p,
				P50Us:  h.Percentile(50),
				P99Us:  h.Percentile(99),
				P999Us: h.Percentile(99.9),
				MaxUs:  h.Max(),
			})
		}
		rep.Attribution = append(rep.Attribution, attr)
		var durs sim.Histogram
		for _, sp := range group {
			durs.AddDuration(sp.Duration())
		}
		tail := refPickAtOrAbove(group, time.Duration(durs.Percentile(99)*float64(time.Millisecond)))
		median := refPickAtOrAbove(group, time.Duration(durs.Percentile(50)*float64(time.Millisecond)))
		if tail == nil || median == nil {
			continue
		}
		diff := TailDiff{
			Function:      fn,
			TailTraceID:   tail.TraceID,
			MedianTraceID: median.TraceID,
			TailDurUs:     micros(tail.Duration()),
			MedianDurUs:   micros(median.Duration()),
		}
		tp, mp := refPhaseSelfTimes(tail), refPhaseSelfTimes(median)
		for _, p := range phases {
			t, m := micros(tp[p]), micros(mp[p])
			if t == 0 && m == 0 {
				continue
			}
			r := PhaseRatio{Phase: p, TailUs: t, MedianUs: m}
			if m > 0 {
				r.Ratio = t / m
			}
			diff.Phases = append(diff.Phases, r)
		}
		rep.TailDiffs = append(rep.TailDiffs, diff)
	}
	return rep
}
