package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func sampleTree() *Span {
	root := NewSpan("invoke/JS", ms(10), ms(110))
	root.SetAttr("function", "JS")
	sb := root.Child("sandbox", ms(10), ms(40))
	sb.Child("netns", ms(10), ms(25))
	sb.Child("rootfs", ms(25), ms(40))
	root.Child("restore", ms(40), ms(70))
	root.Child("exec", ms(70), ms(110))
	return root
}

func TestSpanInvariants(t *testing.T) {
	s := sampleTree()
	if got := s.Duration(); got != ms(100) {
		t.Fatalf("duration = %v, want 100ms", got)
	}
	if got := s.ChildrenTotal(); got != ms(100) {
		t.Fatalf("children total = %v, want 100ms", got)
	}
	var names []string
	s.Walk(func(depth int, sp *Span) { names = append(names, sp.Name) })
	want := []string{"invoke/JS", "sandbox", "netns", "rootfs", "restore", "exec"}
	if len(names) != len(want) {
		t.Fatalf("walk visited %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("walk order %v, want %v", names, want)
		}
	}
}

func TestNewSpanPanicsOnNegativeDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for end < start")
		}
	}()
	NewSpan("bad", ms(10), ms(5))
}

func TestTracerRingDropsOldest(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		s := NewSpan("root", ms(i), ms(i+1))
		s.SetAttr("i", string(rune('0'+i)))
		tr.Record(s)
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	spans := tr.Spans()
	for i, s := range spans {
		if want := ms(6 + i); s.Start != want {
			t.Fatalf("span %d starts at %v, want %v (oldest-first order broken)", i, s.Start, want)
		}
	}
	last := tr.Last(2)
	if len(last) != 2 || last[0].Start != ms(8) || last[1].Start != ms(9) {
		t.Fatalf("Last(2) = %v", last)
	}
	if got := tr.Last(0); len(got) != 4 {
		t.Fatalf("Last(0) returned %d spans, want all 4", len(got))
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	tr := NewTracer(0)
	if tr.max != DefaultTracerCapacity {
		t.Fatalf("max = %d, want %d", tr.max, DefaultTracerCapacity)
	}
}

func TestWriteJSONLDeterministicAndValid(t *testing.T) {
	build := func() []*Span { return []*Span{sampleTree(), sampleTree()} }
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("JSONL output differs across identical span trees")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for _, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("invalid JSON line %q: %v", ln, err)
		}
		if obj["name"] != "invoke/JS" {
			t.Fatalf("root name = %v", obj["name"])
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*Span{sampleTree()}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d events, want 6 (one per span)", len(doc.TraceEvents))
	}
	var rootDur, leafSum float64
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("event %q has phase %q, want complete (X)", e.Name, e.Ph)
		}
		switch e.Name {
		case "invoke/JS":
			rootDur = e.Dur
		case "sandbox", "restore", "exec":
			leafSum += e.Dur
		}
	}
	if rootDur != leafSum {
		t.Fatalf("root dur %v != top-level children sum %v", rootDur, leafSum)
	}
}

func TestSumDurations(t *testing.T) {
	roots := []*Span{sampleTree(), sampleTree()}
	if got := SumDurations(roots, "sandbox"); got != 2*ms(30) {
		t.Fatalf("SumDurations(sandbox) = %v, want 60ms", got)
	}
	if got := SumDurations(roots, "netns"); got != 2*ms(15) {
		t.Fatalf("SumDurations(netns) = %v, want 30ms", got)
	}
	if got := SumDurations(roots, "nope"); got != 0 {
		t.Fatalf("SumDurations(nope) = %v, want 0", got)
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	var hits int64 = 42
	reg.CounterFunc("trenv_warm_hits_total", "Warm hits.", map[string]string{"node": "n0"},
		func() int64 { return hits })
	reg.GaugeFunc("trenv_node_mem_used_bytes", "Node memory.", nil,
		func() float64 { return 1.5e9 })
	h := &sim.Histogram{}
	for _, v := range []float64{1, 2, 3, 4} {
		h.Add(v)
	}
	reg.Histogram("trenv_e2e_latency_ms", "E2E latency.", map[string]string{"function": "JS"}, h)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP trenv_warm_hits_total Warm hits.\n# TYPE trenv_warm_hits_total counter\n",
		`trenv_warm_hits_total{node="n0"} 42` + "\n",
		"# TYPE trenv_node_mem_used_bytes gauge\n",
		"trenv_node_mem_used_bytes 1.5e+09\n",
		"# TYPE trenv_e2e_latency_ms summary\n",
		`trenv_e2e_latency_ms{function="JS",quantile="0.5"} 2.5` + "\n",
		`trenv_e2e_latency_ms_sum{function="JS"} 10` + "\n",
		`trenv_e2e_latency_ms_count{function="JS"} 4` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Families sorted by name.
	if strings.Index(out, "trenv_e2e_latency_ms") > strings.Index(out, "trenv_warm_hits_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestRegistryHistogramSetGathersDynamicSeries(t *testing.T) {
	reg := NewRegistry()
	var set HistogramSet
	reg.HistogramSet("trenv_dyn_ms", "Dynamic.", &set)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "trenv_dyn_ms{") != 0 {
		t.Fatalf("expected no series before histograms exist:\n%s", buf.String())
	}
	// Added out of order after the first export: the next export must
	// pick both up, sorted.
	for _, fn := range []string{"b", "a"} {
		h := &sim.Histogram{}
		h.Add(7)
		set.Add(map[string]string{"function": fn}, h, nil)
	}
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ia := strings.Index(out, `trenv_dyn_ms{function="a"`)
	ib := strings.Index(out, `trenv_dyn_ms{function="b"`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("dynamic series missing or unsorted (a=%d b=%d):\n%s", ia, ib, out)
	}
}

func TestRegistryDeterministicOutput(t *testing.T) {
	build := func() string {
		reg := NewRegistry()
		reg.CounterFunc("c_total", "c", map[string]string{"x": "1", "a": "2"}, func() int64 { return 3 })
		reg.GaugeFunc("g", "g", nil, func() float64 { return 9 })
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("registry output not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("m_total", "m", nil, func() int64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for kind mismatch")
		}
	}()
	reg.GaugeFunc("m_total", "m", nil, func() float64 { return 0 })
}

func TestRegistryBadNamePanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid metric name")
		}
	}()
	reg.CounterFunc("bad name", "m", nil, func() int64 { return 0 })
}

// TestRegistryRejectsBadLabelNames checks label names against the
// Prometheus label grammar [a-zA-Z_][a-zA-Z0-9_]* at registration and
// when a series joins a set: a colon is legal in metric names but not in
// label names, and a bad name must not wait for a gather to fail.
func TestRegistryRejectsBadLabelNames(t *testing.T) {
	h := &sim.Histogram{}
	register := map[string]func(reg *Registry, labels map[string]string){
		"CounterFunc": func(reg *Registry, l map[string]string) {
			reg.CounterFunc("c_total", "c", l, func() int64 { return 0 })
		},
		"GaugeFunc": func(reg *Registry, l map[string]string) {
			reg.GaugeFunc("g", "g", l, func() float64 { return 0 })
		},
		"Histogram": func(reg *Registry, l map[string]string) { reg.Histogram("h_ms", "h", l, h) },
		"ValueSet.Add": func(reg *Registry, l map[string]string) {
			var set ValueSet
			reg.CounterSet("s_total", "s", &set)
			set.Add(l, func() float64 { return 0 })
		},
		"HistogramSet.Add": func(reg *Registry, l map[string]string) {
			var set HistogramSet
			reg.HistogramSet("hs_ms", "h", &set)
			set.Add(l, h, nil)
		},
	}
	for _, bad := range []string{"a:b", "", "0a", "a-b", "a b", "a.b", "é", `a"`} {
		for how, reg := range register {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted label name %q", how, bad)
					}
				}()
				reg(NewRegistry(), map[string]string{"ok": "1", bad: "1"})
			}()
		}
	}
	for _, good := range []string{"a", "_a", "a0", "A_b9", "__name"} {
		for _, reg := range register {
			reg(NewRegistry(), map[string]string{good: "1"})
		}
	}
}

func TestTracerStreamsJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(2)
	tr.StreamTo(&buf)
	tr.Record(sampleTree())
	tr.Record(sampleTree())
	tr.Record(sampleTree()) // drops one from the ring, still streams
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("streamed %d lines, want 3", len(lines))
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &obj); err != nil {
		t.Fatalf("invalid streamed JSON: %v", err)
	}
}
