package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"testing"
	"time"
)

// FuzzSpanDifferential builds the same random span forest twice, as
// Spans and as the map-attribute reference spans (reference_test.go):
// roots and children with hostile names, attributes set and reset
// (keys and values that JSON escapes, invalid UTF-8, and the trace_id,
// span_id and error keys the Chrome exporter overrides), failures,
// links with and without span IDs, IDs stamped on whole trees and on
// subtrees (including trees whose span-ID hash is zero), and roots
// recorded into a tracer that stamps unstamped ones. After every step
// it requires identical WriteJSONL, WriteChromeTrace and WriteFolded
// bytes, Analyze JSON, tracer stream and retained roots; after the last
// step also every rendered trace and span ID, every attribute read,
// every Find over every root, and each root's String.
func FuzzSpanDifferential(f *testing.F) {
	f.Add([]byte{})
	// An invocation tree with a pool-side twin, cross-linked both ways.
	f.Add([]byte{
		0, 0, 0, 8, // root invoke/JS
		1, 0, 4, 3, // startup
		1, 1, 5, 2, // restore
		1, 2, 7, 1, // copy
		1, 0, 6, 20, // exec
		2, 0, 0, 1, // function=JS
		2, 0, 1, 3, // node=n0
		2, 3, 2, 1, // copy: pool
		2, 3, 3, 3, // copy: pages
		5, 0, 1, 0, // stamp the tree
		0, 3, 0, 2, // root pool-fetch/cxl
		5, 5, 2, 1, // stamp it with a TraceIDFor of program strings
		4, 5, 3, 6, // pool-fetch serves copy (with its span ID)
		4, 3, 5, 10, // copy remote-fetch pool-fetch
		6, 0, 0, 0, // record both
		6, 1, 0, 0,
	})
	// One key set twice, reset to "", then set again after recording.
	f.Add([]byte{
		0, 1, 0, 5, 2, 0, 0, 1, 2, 0, 0, 2, 2, 0, 1, 3, 2, 0, 0, 0,
		2, 0, 1, 4, 6, 0, 0, 0, 2, 0, 0, 1,
	})
	// Names, keys, values and errors that JSON escapes or that are not
	// UTF-8.
	f.Add([]byte{
		0, 9, 0, 5, 1, 0, 10, 3, 1, 0, 8, 4, 2, 0, 7, 4, 2, 0, 8, 5,
		2, 1, 9, 6, 2, 2, 10, 7, 3, 0, 2, 0, 3, 1, 3, 0, 5, 0, 5, 0,
		6, 0, 0, 0, 5, 2, 6, 0,
	})
	// Attributes named trace_id, span_id and error, before and after the
	// span has IDs and an error of its own.
	f.Add([]byte{
		0, 0, 0, 5, 1, 0, 6, 3, 2, 0, 4, 1, 2, 0, 5, 2, 2, 0, 6, 3,
		2, 1, 4, 4, 2, 1, 6, 5, 3, 1, 1, 0, 6, 0, 0, 0, 0, 1, 0, 6,
		2, 2, 5, 1, 3, 2, 2, 0, 6, 1, 0, 0,
	})
	// Links without span IDs (to unstamped spans, foreign trace IDs) and
	// with them.
	f.Add([]byte{
		0, 0, 0, 5, 1, 0, 5, 3, 0, 2, 0, 4, 4, 2, 1, 0, 4, 2, 1, 13,
		5, 0, 1, 0, 4, 2, 1, 6, 4, 1, 2, 10, 5, 2, 2, 0, 4, 1, 2, 10,
		6, 0, 0, 0, 6, 1, 0, 0,
	})
	// Span-ID hashes of zero: "zero-wlar0Z" gives the root 00000000 and
	// "zero-UKaaDR" gives the span at walk index 2 the same, linked to.
	f.Add([]byte{
		0, 0, 0, 5, 5, 0, 3, 0, 0, 1, 0, 9, 1, 1, 4, 2, 1, 1, 6, 3,
		5, 1, 4, 0, 4, 2, 0, 6, 4, 0, 3, 10, 6, 0, 0, 0, 6, 1, 0, 0,
	})
	f.Fuzz(func(t *testing.T, prog []byte) {
		m := &spanModel{tr: NewTracer(0)}
		m.tr.StreamTo(&m.stream)
		for step := 0; len(prog) >= 4 && step < 48; step++ {
			m.apply(prog[0], prog[1], prog[2], prog[3])
			prog = prog[4:]
			m.checkExports(t, step)
		}
		m.checkSpans(t)
	})
}

// The tables programs draw from. Every span name, attribute and error
// below appears on both sides verbatim.
var (
	diffSpanNames  = []string{"invoke/JS", "invoke/PR", "evict/JS", "pool-fetch/cxl", "startup", "restore", "exec", "copy", "a;b c\nd", "<&>\"", "\xff"}
	diffAttrKeys   = []string{"function", "node", "pool", "pages", "trace_id", "span_id", "error", "<k&>", "\"q\"", "\xff", ""}
	diffAttrValues = []string{"", "JS", "PR", "n0", "<b>&\"", "\xff\xfe", "a\u2028b", "x\\y"}
	diffErrors     = []string{"", "boom", "<&>\"", "\xff", "mem: fetch failed"}
	diffTraceIDs   = []string{"", "5f3b2a1c0d9e8f70", "cbf29ce484222325", "zero-wlar0Z", "zero-UKaaDR", "<&>\"", "\xff"}
	diffLinkTypes  = []string{"", "serves", "remote-fetch", "caused-by", "<&>"}
)

// spanModel is one program's two forests: spans[i] and refs[i] are
// twins, as are roots[i] and refRoots[i].
type spanModel struct {
	spans    []*Span
	refs     []*refSpan
	roots    []*Span
	refRoots []*refSpan
	tr       *Tracer
	stream   bytes.Buffer
	rt       refTracer
}

// diffDur is a duration with a fractional microsecond, so exports print
// non-integer times; equal bytes give equal durations, so critical-path
// and percentile ties occur.
func diffDur(b byte) time.Duration { return time.Duration(b%32) * 1_250_500 * time.Nanosecond }

func (m *spanModel) apply(op, a, b, c byte) {
	switch op % 7 {
	case 0: // a new root
		name := pick(diffSpanNames, a)
		start := time.Duration(b) * 700_300 * time.Nanosecond
		end := start + diffDur(c)
		sp, ref := NewSpan(name, start, end), newRefSpan(name, start, end)
		m.roots, m.refRoots = append(m.roots, sp), append(m.refRoots, ref)
		m.spans, m.refs = append(m.spans, sp), append(m.refs, ref)
	}
	if len(m.spans) == 0 {
		return
	}
	i := int(a) % len(m.spans)
	switch op % 7 {
	case 1: // a child of any span
		name := pick(diffSpanNames, b)
		start := m.spans[i].Start + time.Duration(b>>4)*700_300*time.Nanosecond
		end := start + diffDur(c)
		m.spans = append(m.spans, m.spans[i].Child(name, start, end))
		m.refs = append(m.refs, m.refs[i].Child(name, start, end))
	case 2: // set (or reset) an attribute
		k, v := pick(diffAttrKeys, b), pick(diffAttrValues, c)
		m.spans[i].SetAttr(k, v)
		m.refs[i].SetAttr(k, v)
	case 3: // fail
		var err error
		if msg := pick(diffErrors, b); b%byte(len(diffErrors)) != 0 {
			err = errors.New(msg)
		}
		m.spans[i].Fail(err)
		m.refs[i].Fail(err)
	case 4: // link to any span: its trace or a table one, its span ID or none
		j := int(b) % len(m.spans)
		l := Link{TraceID: m.spans[j].TraceID, Type: pick(diffLinkTypes, c>>2)}
		rl := refLink{TraceID: m.refs[j].TraceID, Type: l.Type}
		if c&1 != 0 {
			l.TraceID = pick(diffTraceIDs, c>>1)
			rl.TraceID = l.TraceID
		}
		if c&2 != 0 {
			l.SpanID = m.spans[j].SpanID
			rl.SpanID = m.refs[j].SpanID
		}
		m.spans[i].AddLink(l)
		m.refs[i].AddLink(rl)
	case 5: // stamp a tree or subtree
		if c&1 == 0 {
			tid := pick(diffTraceIDs, b)
			m.spans[i].AssignIDs(tid)
			m.refs[i].AssignIDs(tid)
			break
		}
		parts := []string{pick(diffSpanNames, b), pick(diffAttrValues, c>>1), strconv.Itoa(int(c))}
		m.spans[i].AssignIDs(TraceIDFor(parts...))
		m.refs[i].AssignIDs(refTraceIDFor(parts...))
	case 6: // record a root
		j := int(a) % len(m.roots)
		m.tr.Record(m.roots[j])
		m.rt.Record(m.refRoots[j])
	}
}

// checkExports compares every export of the whole forest and of the
// tracer.
func (m *spanModel) checkExports(t *testing.T, step int) {
	t.Helper()
	same := func(what string, got, want []byte, gotErr, wantErr error) {
		t.Helper()
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("step %d: %s error %v, reference %v", step, what, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: %s differs\n got: %q\nwant: %q", step, what, got, want)
		}
	}
	var got, want bytes.Buffer
	gotErr, wantErr := WriteJSONL(&got, m.roots), refWriteJSONL(&want, m.refRoots)
	same("WriteJSONL", got.Bytes(), want.Bytes(), gotErr, wantErr)
	got.Reset()
	want.Reset()
	gotErr, wantErr = WriteChromeTrace(&got, m.roots), refWriteChromeTrace(&want, m.refRoots)
	same("WriteChromeTrace", got.Bytes(), want.Bytes(), gotErr, wantErr)
	got.Reset()
	want.Reset()
	gotErr, wantErr = WriteFolded(&got, m.roots), refWriteFolded(&want, m.refRoots)
	same("WriteFolded", got.Bytes(), want.Bytes(), gotErr, wantErr)
	for _, topK := range []int{0, 1} {
		a, aErr := json.Marshal(Analyze(m.roots, topK))
		b, bErr := json.Marshal(refAnalyze(m.refRoots, topK))
		same("Analyze(topK="+strconv.Itoa(topK)+") JSON", a, b, aErr, bErr)
	}
	same("tracer stream", m.stream.Bytes(), m.rt.stream.Bytes(), nil, nil)
	got.Reset()
	want.Reset()
	gotErr, wantErr = WriteJSONL(&got, m.tr.Spans()), refWriteJSONL(&want, m.rt.roots)
	same("tracer roots", got.Bytes(), want.Bytes(), gotErr, wantErr)
}

// checkSpans compares each twin's rendered IDs and attribute reads,
// what Find returns for every span's ID from every root, and each
// root's String.
func (m *spanModel) checkSpans(t *testing.T) {
	t.Helper()
	index := make(map[*Span]int, len(m.spans))
	refIndex := make(map[*refSpan]int, len(m.refs))
	for i := range m.spans {
		index[m.spans[i]] = i
		refIndex[m.refs[i]] = i
	}
	for i, sp := range m.spans {
		ref := m.refs[i]
		if sp.TraceID != ref.TraceID || sp.SpanID.String() != ref.SpanID {
			t.Fatalf("span %d (%q): IDs %q/%q, reference %q/%q", i, sp.Name, sp.TraceID, sp.SpanID, ref.TraceID, ref.SpanID)
		}
		for _, k := range diffAttrKeys {
			if got, want := sp.Attr(k), refAttr(ref, k); got != want {
				t.Fatalf("span %d (%q): attr %q = %q, reference %q", i, sp.Name, k, got, want)
			}
		}
	}
	for r, root := range m.roots {
		for i := range m.spans {
			got, want := -1, -1
			if sp := root.Find(m.spans[i].SpanID); sp != nil {
				got = index[sp]
			}
			if sp := m.refRoots[r].Find(m.refs[i].SpanID); sp != nil {
				want = refIndex[sp]
			}
			if got != want {
				t.Fatalf("root %d: Find(span %d's ID %q) = span %d, reference span %d", r, i, m.refs[i].SpanID, got, want)
			}
		}
		if got, want := root.String(), m.refRoots[r].String(); got != want {
			t.Fatalf("root %d: String differs\n got: %q\nwant: %q", r, got, want)
		}
	}
}
