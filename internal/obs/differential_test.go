package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// FuzzRegistryDifferential drives the compiled registry and the
// render-every-gather reference (reference_test.go) through the same
// random program — static counters, gauges and summaries, value and
// histogram sets that grow between gathers, exemplars, hostile label
// values, duplicate label sets, NaN, −0 and +Inf values, and recorder
// samples at repeated and increasing instants into rings that wrap —
// and after every step requires identical Gather output,
// WritePrometheus bytes, recorder JSON (or the same encoding error),
// and the same points, lengths, drops, last points and windowed rates
// from the change-step recorder as from the per-point reference ring.
// Values compare by their bits, so NaN equals NaN and −0 differs from
// +0.
func FuzzRegistryDifferential(f *testing.F) {
	f.Add([]byte{})
	// One of each registration, then growth, observations and samples.
	f.Add([]byte{
		0, 0, 2, 0, // static counter
		1, 1, 3, 1, // static gauge
		2, 0, 4, 0, // static summary
		3, 0, 0, 0, // counter set
		4, 0, 5, 2, // grow it (hostile labels)
		10, 1, 0, 0, // sample
		5, 1, 0, 0, // histogram set
		6, 0, 6, 1, // grow it, with exemplars
		8, 0, 7, 0, // observe
		9, 0, 200, 3, // exemplar with a hostile trace ID
		10, 0, 0, 0, // sample at the same instant
		7, 2, 9, 0, // set a value
		10, 2, 0, 0, // sample later
	})
	// Duplicate label sets: the same labels statically and in a set, and
	// pair-order versus key-order labels ("a" vs "a0").
	f.Add([]byte{
		0, 0, 2, 0, 0, 0, 8, 1, 3, 0, 0, 0, 4, 0, 2, 2, 4, 0, 7, 3,
		10, 1, 0, 0, 7, 0, 5, 0, 7, 1, 6, 0, 10, 1, 0, 0, 4, 0, 8, 1, 10, 3, 0, 0,
	})
	// Values whose bits, not their comparison, decide a change step: a
	// gauge and a set counter that read NaN, −0, +0 and +Inf in turn, so
	// the counter's rates are NaN, −0 and Inf, sampled past the ring.
	f.Add([]byte{
		1, 0, 0, 253, // static gauge reading NaN (cell 1)
		3, 0, 0, 0, // counter set
		4, 0, 3, 254, // grow it with a −0 member (cell 2)
		10, 1, 0, 0, // sample
		10, 0, 0, 0, // same instant
		7, 1, 0, 255, // cell 1 to +Inf
		7, 2, 0, 255, // cell 2 to +Inf: an Inf rate
		10, 1, 0, 0,
		10, 1, 0, 0, // Inf − Inf: a NaN rate
		7, 1, 0, 254, // cell 1 to −0
		7, 2, 0, 253, // cell 2 to NaN
		10, 2, 0, 0,
		7, 1, 0, 0, // cell 1 to +0: the same value, other bits
		7, 2, 0, 0, // cell 2 to +0
		10, 1, 0, 0,
		10, 2, 0, 0,
		7, 2, 0, 254, // cell 2 to −0: a −0 rate
		10, 1, 0, 0,
		10, 1, 0, 0,
	})
	f.Fuzz(func(t *testing.T, prog []byte) {
		m := newDiffModel()
		m.check(t, -1)
		for step := 0; len(prog) >= 4 && step < 64; step++ {
			m.apply(prog[0], prog[1], prog[2], prog[3])
			prog = prog[4:]
			m.check(t, step)
		}
	})
}

// diffLabels are the label sets programs draw from: empty, hostile
// values (backslash, quote, newline), an empty value, pairs whose sort
// order differs from their keys' ("a" < "a0" but `a0="` < `a="`), and
// a second map equal to the third, so series collide on their key.
var diffLabels = []map[string]string{
	nil,
	{},
	{"function": "JS"},
	{"node": "n1", "function": "JS"},
	{"a": "1", "a0": "2"},
	{"path": "a\"b\\c\nd"},
	{"function": ""},
	{"a": "x", "a_b": "y", "pool": "cxl"},
	{"function": "JS"},
}

// diffFamilies are the family names per kind. No name ends in _count or
// _sum, so only duplicate label sets collide on a key.
var (
	diffCounters  = []string{"c_total", "ns:c_total"}
	diffGauges    = []string{"g", "g_x"}
	diffSummaries = []string{"s_ms", "s_ms_b"}
)

// diffModel is one program's state: the registry under test, the
// reference, and the shared cells, histograms and reservoirs both read.
type diffModel struct {
	reg *Registry
	ref *refRegistry
	rec *Recorder
	rr  *refRecorder
	now time.Duration

	cells []float64
	hists []*sim.Histogram
	exs   []*ExemplarReservoir // exs[i] serves hists[i]; nil until observed
	vsets []diffValueSet
	hsets []diffHistSet
}

type diffValueSet struct {
	set     *ValueSet
	members []diffValue
}

type diffValue struct {
	labels map[string]string
	cell   int
}

type diffHistSet struct {
	set     *HistogramSet
	members []diffHist
}

type diffHist struct {
	labels    map[string]string
	hist      int
	exemplars bool
}

const diffRingCap = 4

func newDiffModel() *diffModel {
	m := &diffModel{reg: NewRegistry(), ref: newRefRegistry(), cells: []float64{0}}
	m.rec = NewRecorder(m.reg, diffRingCap)
	m.rr = newRefRecorder(m.ref, diffRingCap)
	return m
}

func (m *diffModel) cellReader(i int) func() float64 { return func() float64 { return m.cells[i] } }

// cellValue decodes a cell value: a quarter in [-32, 31.5], or, for the
// top three bytes, NaN, −0 and +Inf.
func cellValue(b byte) float64 {
	switch b {
	case 253:
		return math.NaN()
	case 254:
		return math.Copysign(0, -1)
	case 255:
		return math.Inf(1)
	}
	return float64(int8(b)) / 4
}

func (m *diffModel) newCell(b byte) int {
	m.cells = append(m.cells, cellValue(b))
	return len(m.cells) - 1
}

func (m *diffModel) newHist() int {
	m.hists = append(m.hists, &sim.Histogram{})
	m.exs = append(m.exs, nil)
	return len(m.hists) - 1
}

func pick[T any](xs []T, b byte) T { return xs[int(b)%len(xs)] }

// apply runs one op: op picks the action, a/b/c its operands.
func (m *diffModel) apply(op, a, b, c byte) {
	labels := pick(diffLabels, b)
	switch op % 11 {
	case 0: // static counter
		i := m.newCell(c)
		name := pick(diffCounters, a)
		m.reg.CounterFunc(name, "c", labels, func() int64 { return int64(m.cells[i]) })
		m.ref.CounterFunc(name, "c", labels, func() int64 { return int64(m.cells[i]) })
	case 1: // static gauge
		i := m.newCell(c)
		name := pick(diffGauges, a)
		m.reg.GaugeFunc(name, "g", labels, m.cellReader(i))
		m.ref.GaugeFunc(name, "g", labels, m.cellReader(i))
	case 2: // static summary
		h := m.newHist()
		name := pick(diffSummaries, a)
		m.reg.Histogram(name, "s", labels, m.hists[h])
		m.ref.Histogram(name, "s", labels, m.hists[h])
	case 3: // register a value set, counter or gauge by a
		m.vsets = append(m.vsets, diffValueSet{set: &ValueSet{}})
		k := len(m.vsets) - 1
		gather := func() []refLabeledValue {
			var out []refLabeledValue
			for _, mem := range m.vsets[k].members {
				out = append(out, refLabeledValue{Labels: mem.labels, Value: m.cells[mem.cell]})
			}
			return out
		}
		if a%2 == 0 {
			name := pick(diffCounters, a/2)
			m.reg.CounterSet(name, "c", m.vsets[k].set)
			m.ref.CounterSetFunc(name, "c", gather)
		} else {
			name := pick(diffGauges, a/2)
			m.reg.GaugeSet(name, "g", m.vsets[k].set)
			m.ref.GaugeSetFunc(name, "g", gather)
		}
	case 4: // grow a value set
		if len(m.vsets) == 0 {
			return
		}
		vs := &m.vsets[int(a)%len(m.vsets)]
		i := m.newCell(c)
		vs.set.Add(labels, m.cellReader(i))
		vs.members = append(vs.members, diffValue{labels: labels, cell: i})
	case 5: // register a histogram set
		m.hsets = append(m.hsets, diffHistSet{set: &HistogramSet{}})
		k := len(m.hsets) - 1
		name := pick(diffSummaries, a)
		m.reg.HistogramSet(name, "s", m.hsets[k].set)
		m.ref.HistogramFunc(name, "s", func() []refLabeledHistogram {
			var out []refLabeledHistogram
			for _, mem := range m.hsets[k].members {
				lh := refLabeledHistogram{Labels: mem.labels, Hist: m.hists[mem.hist]}
				if mem.exemplars {
					lh.Exemplars = m.exs[mem.hist]
				}
				out = append(out, lh)
			}
			return out
		})
	case 6: // grow a histogram set, with exemplars when c is odd
		if len(m.hsets) == 0 {
			return
		}
		hs := &m.hsets[int(a)%len(m.hsets)]
		h := m.newHist()
		var ex func() *ExemplarReservoir
		if c%2 == 1 {
			ex = func() *ExemplarReservoir { return m.exs[h] }
		}
		hs.set.Add(labels, m.hists[h], ex)
		hs.members = append(hs.members, diffHist{labels: labels, hist: h, exemplars: ex != nil})
	case 7: // set a cell
		m.cells[int(a)%len(m.cells)] = cellValue(c)
	case 8: // observe into a histogram
		if len(m.hists) > 0 {
			m.hists[int(a)%len(m.hists)].Add(float64(c) / 8)
		}
	case 9: // observe an exemplar, creating the reservoir on first use
		if len(m.hists) == 0 {
			return
		}
		h := int(a) % len(m.hists)
		if m.exs[h] == nil {
			m.exs[h] = NewExemplarReservoir([]float64{1, 10}, 2, "diff")
		}
		m.exs[h].Observe(float64(b)/16, pick([]string{"t1", "t\"2", "t\\3\n", ""}, c))
	case 10: // sample both recorders; a zero step repeats the instant
		m.now += time.Duration(a%3) * 50 * time.Millisecond
		m.rec.Sample(m.now)
		m.rr.Sample(m.now)
	}
}

// check compares every export of the registry under test against the
// reference.
func (m *diffModel) check(t *testing.T, step int) {
	t.Helper()
	if got, want := m.reg.Gather(), m.ref.Gather(); !sameSamples(got, want) {
		t.Fatalf("step %d: Gather differs\n got %+v\nwant %+v", step, got, want)
	}
	var got, want bytes.Buffer
	if err := m.reg.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if err := m.ref.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("step %d: WritePrometheus differs\n got:\n%s\nwant:\n%s", step, got.String(), want.String())
	}
	got.Reset()
	want.Reset()
	gotErr := m.rec.WriteJSON(&got)
	enc := json.NewEncoder(&want)
	enc.SetIndent("", " ")
	wantErr := enc.Encode(m.rr.export())
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got.String() != want.String() {
		t.Fatalf("step %d: recorder JSON differs\n got (%v):\n%s\nwant (%v):\n%s", step, gotErr, got.String(), wantErr, want.String())
	}
	m.checkSeries(t, step)
}

// checkSeries compares every recorded series, and what the alert engine
// and the exports read from it, with the reference ring.
func (m *diffModel) checkSeries(t *testing.T, step int) {
	t.Helper()
	series := m.rec.Series()
	if len(series) != len(m.rr.order) {
		t.Fatalf("step %d: %d series, reference has %d", step, len(series), len(m.rr.order))
	}
	for i, ts := range series {
		ref := m.rr.series[m.rr.order[i]]
		if ts.Key != ref.Key || ts.Name != ref.Name || ts.Counter != ref.Counter || !reflect.DeepEqual(ts.Labels, ref.Labels) {
			t.Fatalf("step %d: series %d is %q, reference %q", step, i, ts.Key, ref.Key)
		}
		if ts.Len() != ref.Len() || ts.Dropped() != ref.Dropped() {
			t.Fatalf("step %d: %s holds %d points, %d dropped; reference %d, %d", step, ts.Key, ts.Len(), ts.Dropped(), ref.Len(), ref.Dropped())
		}
		if got, want := ts.Last(), ref.Last(); !samePoint(got, want) {
			t.Fatalf("step %d: %s last point %+v, reference %+v", step, ts.Key, got, want)
		}
		got, want := ts.Points(), ref.Points()
		for j := range want {
			if !samePoint(got[j], want[j]) {
				t.Fatalf("step %d: %s point %d is %+v, reference %+v", step, ts.Key, j, got[j], want[j])
			}
		}
		for _, w := range []time.Duration{-time.Second, 0, 50 * time.Millisecond, 100 * time.Millisecond, 125 * time.Millisecond, time.Hour} {
			rate, ok := ts.RateOver(m.now, w)
			wantRate, wantOK := ref.RateOver(m.now, w)
			if ok != wantOK || !sameFloat(rate, wantRate) {
				t.Fatalf("step %d: %s RateOver(%v, %v) = %v, %v; reference %v, %v", step, ts.Key, m.now, w, rate, ok, wantRate, wantOK)
			}
		}
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePoint(a, b Point) bool {
	return a.T == b.T && sameFloat(a.Value, b.Value) && sameFloat(a.Rate, b.Rate)
}

// sameSamples compares two gathers field by field, values by their bits.
func sameSamples(a, b []Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !sameFloat(x.Value, y.Value) {
			return false
		}
		x.Value, y.Value = 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}
