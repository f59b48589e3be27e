package obs_test

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
)

// spanTree builds the span tree of a warm, rack-dispatched invocation
// as faas records it: root attributes, a zero-width placement step, the
// startup breakdown and exec, stamped with the invocation's trace ID.
func spanTree(seq int) *obs.Span {
	const ms = time.Millisecond
	root := obs.NewSpan("invoke/JS", 0, 120*ms)
	root.SetAttr("function", "JS").SetAttr("policy", "trenv-cxl").
		SetAttr("path", "warm").SetAttr("node", "n0").SetAttr("dispatcher", "rack")
	root.Child("pick", 0, 0).SetAttr("dispatcher", "rack")
	st := root.Child("startup", 0, 2*ms).SetAttr("path", "warm")
	st.Child("restore", 0, 2*ms).Child("dispatch", 0, 2*ms)
	root.Child("exec", 2*ms, 120*ms)
	return root.AssignIDs(obs.TraceIDFor("n0", "JS", strconv.Itoa(seq)))
}

// BenchmarkSpanTree builds one invocation-shaped span tree per
// iteration, stamps its IDs and records it into a full tracer ring, as
// a traced invocation does. It reports the allocations per tree and, in
// heap-B/tree, the heap a full ring retains per tree.
func BenchmarkSpanTree(b *testing.B) {
	const ring = 1024
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := obs.NewTracer(ring)
	for i := 0; i < ring; i++ {
		tr.Record(spanTree(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Record(spanTree(ring + i))
	}
	// ResetTimer drops reported metrics, so report the ring's heap last.
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/ring, "heap-B/tree")
}
