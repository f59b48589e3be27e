package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// invTree builds a deterministic invocation-shaped tree:
//
//	invoke/fn [0,100ms]
//	  queue   [0,10ms]
//	  startup [10,30ms]  -> attach [10,15ms], copy [15,30ms]
//	  exec    [30,100ms] -> remote-fetch [30,70ms]
func invTree(fn, traceID string) *Span {
	root := NewSpan("invoke/"+fn, 0, ms(100))
	root.SetAttr("function", fn).SetAttr("node", "n0")
	root.Child("queue", 0, ms(10))
	st := root.Child("startup", ms(10), ms(30))
	st.Child("attach", ms(10), ms(15))
	st.Child("copy", ms(15), ms(30))
	ex := root.Child("exec", ms(30), ms(100))
	ex.Child("remote-fetch", ms(30), ms(70)).AddLink(Link{TraceID: "feedcafe00000000", Type: "remote-fetch"})
	root.AssignIDs(traceID)
	return root
}

func TestCriticalPathDescendsByLargestChild(t *testing.T) {
	root := invTree("JS", "aaaa000000000000")
	path := CriticalPath(root)
	var names []string
	for _, s := range path {
		names = append(names, s.Name)
	}
	if got, want := strings.Join(names, ">"), "invoke/JS>exec>remote-fetch"; got != want {
		t.Fatalf("critical path = %s, want %s", got, want)
	}
	// exec's self time excludes the 40ms fetch; the fetch is all self.
	if path[1].SelfUs != 30000 || path[2].SelfUs != 40000 {
		t.Fatalf("self times = %v / %v, want 30000 / 40000", path[1].SelfUs, path[2].SelfUs)
	}
	if path[2].LinkedTrace != "feedcafe00000000" {
		t.Fatalf("fetch step linked trace = %q", path[2].LinkedTrace)
	}
	if path[0].Node != "n0" {
		t.Fatalf("root step node = %q", path[0].Node)
	}
	for _, s := range path {
		if s.SpanID == "" {
			t.Fatalf("step %s has no span id", s.Name)
		}
	}
}

func TestCriticalPathTieBreaksByStartThenName(t *testing.T) {
	root := NewSpan("invoke/T", 0, ms(30))
	// Equal durations: the earlier child wins; among same-start children
	// the lexicographically smaller name wins.
	root.Child("late", ms(10), ms(20))
	root.Child("early-b", 0, ms(10))
	root.Child("early-a", 0, ms(10))
	path := CriticalPath(root)
	if len(path) != 2 || path[1].Name != "early-a" {
		t.Fatalf("tie-break picked %+v, want early-a", path[1:])
	}
}

func TestWalkAndChildrenTotalWithOverlappingOutOfOrderChildren(t *testing.T) {
	// Children recorded out of chronological order, overlapping each
	// other, and together exceeding the parent: Walk preserves recorded
	// order, ChildrenTotal just sums, SelfTime clamps at zero.
	root := NewSpan("invoke/O", 0, ms(50))
	root.Child("b", ms(20), ms(50))
	root.Child("a", 0, ms(30))
	overfull := root.Child("c", ms(10), ms(40))
	overfull.Child("c1", ms(10), ms(40))
	overfull.Child("c2", ms(10), ms(40))

	var walked []string
	var depths []int
	root.Walk(func(d int, sp *Span) {
		walked = append(walked, sp.Name)
		depths = append(depths, d)
	})
	if got, want := strings.Join(walked, ","), "invoke/O,b,a,c,c1,c2"; got != want {
		t.Fatalf("walk order = %s, want %s", got, want)
	}
	wantDepths := []int{0, 1, 1, 1, 2, 2}
	for i := range depths {
		if depths[i] != wantDepths[i] {
			t.Fatalf("depths = %v, want %v", depths, wantDepths)
		}
	}
	if got, want := root.ChildrenTotal(), ms(90); got != want {
		t.Fatalf("children total = %v, want %v", got, want)
	}
	// 50ms parent minus 90ms of (overlapping) children clamps to 0.
	if got := root.SelfTime(); got != 0 {
		t.Fatalf("overfull self time = %v, want 0", got)
	}
	// The overfull child: 30ms duration, 60ms of children.
	if got := overfull.SelfTime(); got != 0 {
		t.Fatalf("nested overfull self time = %v, want 0", got)
	}
}

func TestAnalyzeReportShapeAndDeterminism(t *testing.T) {
	build := func() []*Span {
		roots := []*Span{
			invTree("JS", "aaaa000000000000"),
			invTree("PR", "bbbb000000000000"),
			NewSpan("pool-fetch/rdma", 0, ms(40)), // causal context, not an invocation
		}
		// A second, slower JS invocation: the tail of its group.
		slow := NewSpan("invoke/JS", ms(200), ms(500))
		slow.SetAttr("function", "JS").SetAttr("node", "n1")
		slow.Child("queue", ms(200), ms(210))
		slow.Child("exec", ms(210), ms(500))
		slow.AssignIDs("cccc000000000000")
		// A failed invocation counts toward Errors.
		bad := NewSpan("invoke/JS", ms(600), ms(601))
		bad.SetAttr("function", "JS")
		bad.Error = "no capacity"
		bad.AssignIDs("dddd000000000000")
		return append(roots, slow, bad)
	}

	rep := Analyze(build(), 2)
	if rep.Invocations != 4 || rep.Errors != 1 {
		t.Fatalf("invocations=%d errors=%d, want 4/1", rep.Invocations, rep.Errors)
	}
	if len(rep.Slowest) != 2 {
		t.Fatalf("slowest has %d entries, want topK=2", len(rep.Slowest))
	}
	if rep.Slowest[0].TraceID != "cccc000000000000" || rep.Slowest[0].DurUs != 300000 {
		t.Fatalf("slowest[0] = %+v", rep.Slowest[0])
	}
	var fns []string
	for _, a := range rep.Attribution {
		fns = append(fns, a.Function)
	}
	if got, want := strings.Join(fns, ","), "JS,PR"; got != want {
		t.Fatalf("attribution functions = %s, want %s", got, want)
	}
	js := rep.Attribution[0]
	if js.Invocations != 3 {
		t.Fatalf("JS invocations = %d, want 3", js.Invocations)
	}
	// The JS tail is the slow run; the diff must show exec dominating.
	if len(rep.TailDiffs) != 2 || rep.TailDiffs[0].TailTraceID != "cccc000000000000" {
		t.Fatalf("tail diffs = %+v", rep.TailDiffs)
	}
	sawExec := false
	for _, pr := range rep.TailDiffs[0].Phases {
		if pr.Phase == "exec" {
			sawExec = true
			if pr.TailUs <= pr.MedianUs || pr.Ratio <= 1 {
				t.Fatalf("exec tail ratio = %+v, want tail > median", pr)
			}
		}
	}
	if !sawExec {
		t.Fatal("tail diff lacks the exec phase")
	}

	// Byte-identical JSON across identical builds.
	enc := func(r *Report) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(enc(rep), enc(Analyze(build(), 2))) {
		t.Fatal("analyze reports differ across identical inputs")
	}
}

func TestWriteFoldedStacksSortedAndSanitized(t *testing.T) {
	root := NewSpan("invoke/my fn;v2", 0, ms(30))
	root.Child("phase one", 0, ms(10))
	var buf bytes.Buffer
	if err := WriteFolded(&buf, []*Span{root}); err != nil {
		t.Fatal(err)
	}
	want := "invoke/my_fn:v2 20000\ninvoke/my_fn:v2;phase_one 10000\n"
	if buf.String() != want {
		t.Fatalf("folded output:\n%q\nwant:\n%q", buf.String(), want)
	}

	var again bytes.Buffer
	if err := WriteFolded(&again, []*Span{root}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("folded output differs across identical inputs")
	}
}

func TestExemplarReservoirDeterministicAndBounded(t *testing.T) {
	fill := func(seed string) *ExemplarReservoir {
		r := NewExemplarReservoir([]float64{10, 100}, 2, seed)
		// A deterministic value stream spread over all three buckets.
		v := 1.0
		for i := 0; i < 200; i++ {
			r.Observe(v, "t"+strings.Repeat("0", i%3))
			v = v*1.07 + 1
			if v > 500 {
				v = 1
			}
		}
		return r
	}
	a, b := fill("s").Snapshot(), fill("s").Snapshot()
	if len(a) != 3 {
		t.Fatalf("got %d buckets, want 3 (2 bounds + +Inf)", len(a))
	}
	var total int64
	for i := range a {
		if a[i].Count != b[i].Count || len(a[i].Exemplars) != len(b[i].Exemplars) {
			t.Fatalf("bucket %d differs across same-seed fills: %+v vs %+v", i, a[i], b[i])
		}
		for j := range a[i].Exemplars {
			if a[i].Exemplars[j] != b[i].Exemplars[j] {
				t.Fatalf("bucket %d exemplar %d differs: %+v vs %+v", i, j, a[i].Exemplars[j], b[i].Exemplars[j])
			}
		}
		if len(a[i].Exemplars) > 2 {
			t.Fatalf("bucket %d holds %d exemplars, cap 2", i, len(a[i].Exemplars))
		}
		total += a[i].Count
		// Every retained exemplar's value must fall inside its bucket.
		lo := -1.0
		if i > 0 {
			lo = a[i-1].UpperBound
		}
		for _, e := range a[i].Exemplars {
			if e.Value <= lo || e.Value > a[i].UpperBound {
				t.Fatalf("bucket %d (le=%v) retains out-of-range value %v", i, a[i].UpperBound, e.Value)
			}
		}
	}
	if total != 200 {
		t.Fatalf("bucket counts sum to %d, want 200", total)
	}

	// A different seed picks different survivors for a busy bucket.
	c := fill("other").Snapshot()
	same := true
	for i := range a {
		for j := range a[i].Exemplars {
			if j < len(c[i].Exemplars) && a[i].Exemplars[j] != c[i].Exemplars[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("distinct seeds retained identical reservoirs (sampler not seeded?)")
	}
}

func TestPrometheusEscapesHostileLabelsAndExemplars(t *testing.T) {
	reg := NewRegistry()
	var c int64 = 7
	hostile := "a\"b\\c\nd"
	reg.CounterFunc("trenv_test_total", "hostile labels", map[string]string{"path": hostile}, func() int64 { return c })

	var h sim.Histogram
	h.Add(3)
	ex := NewExemplarReservoir([]float64{10}, 1, "t")
	ex.Observe(3, hostile)
	var set HistogramSet
	set.Add(map[string]string{"fn": hostile}, &h, func() *ExemplarReservoir { return ex })
	reg.HistogramSet("trenv_test_ms", "hostile exemplar", &set)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	const wantLabel = `path="a\"b\\c\nd"`
	if !strings.Contains(out, "trenv_test_total{"+wantLabel+"} 7") {
		t.Fatalf("hostile counter label not escaped once:\n%s", out)
	}
	if !strings.Contains(out, `trenv_test_ms_bucket{fn="a\"b\\c\nd",le="10"} 1 # {trace_id="a\"b\\c\nd"} 3`) {
		t.Fatalf("hostile exemplar line not escaped:\n%s", out)
	}
	// No raw newline may survive inside any line's label section.
	for _, ln := range strings.Split(out, "\n") {
		if strings.Contains(ln, `a"b`) || strings.HasPrefix(ln, "d\"") {
			t.Fatalf("unescaped hostile fragment in line %q", ln)
		}
	}
}

func TestAssignIDsAndFindAreDeterministic(t *testing.T) {
	a, b := invTree("JS", TraceIDFor("n0", "JS", "0")), invTree("JS", TraceIDFor("n0", "JS", "0"))
	var ids []string
	a.Walk(func(_ int, sp *Span) { ids = append(ids, sp.SpanID) })
	i := 0
	b.Walk(func(_ int, sp *Span) {
		if sp.SpanID != ids[i] {
			t.Fatalf("span %s id %q != %q across identical builds", sp.Name, sp.SpanID, ids[i])
		}
		i++
	})
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate span id %q in one tree", id)
		}
		seen[id] = true
	}
	// Find resolves a mid-tree span by its id.
	target := a.Children[2].Children[0] // exec > remote-fetch
	if got := a.Find(target.SpanID); got != target {
		t.Fatalf("Find(%q) = %v, want the remote-fetch span", target.SpanID, got)
	}
	if a.Find("nope") != nil {
		t.Fatal("Find of unknown id returned a span")
	}
}

func TestTracerAssignsFallbackIDsAndFinds(t *testing.T) {
	tr := NewTracer(8)
	s1 := NewSpan("expire/JS", 0, ms(1))
	s2 := NewSpan("expire/JS", ms(1), ms(2))
	tr.Record(s1)
	tr.Record(s2)
	if s1.TraceID == "" || s2.TraceID == "" || s1.TraceID == s2.TraceID {
		t.Fatalf("fallback trace ids = %q / %q, want distinct non-empty", s1.TraceID, s2.TraceID)
	}
	if got := tr.Find(s2.TraceID); got != s2 {
		t.Fatalf("Find(%q) = %v, want the second span", s2.TraceID, got)
	}
	// Pre-stamped roots keep their ids.
	s3 := NewSpan("invoke/JS", ms(2), ms(3)).AssignIDs("eeee000000000000")
	tr.Record(s3)
	if s3.TraceID != "eeee000000000000" {
		t.Fatalf("record overwrote a stamped trace id: %q", s3.TraceID)
	}
}

func TestChromeTraceEventsCarryTraceAndSpanIDs(t *testing.T) {
	root := invTree("JS", "aaaa000000000000")
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*Span{root}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events")
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Args["trace_id"] != "aaaa000000000000" {
			t.Fatalf("event %s trace_id = %q", e.Name, e.Args["trace_id"])
		}
		id := e.Args["span_id"]
		if id == "" || seen[id] {
			t.Fatalf("event %s span_id = %q (empty or duplicate)", e.Name, id)
		}
		seen[id] = true
	}
}
