package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// TestChaosHedgingLeavesNothingWedged runs the availability scenario
// (flaky rdma fetches, a cxl outage, a node crash inside it) with each
// kind of hedge policy armed and a tracer attached, at CI scale and at
// paper scale, at two seeds. Every dispatch must end, so the result
// carries the zero-wedged line, and every root the tracer recorded,
// terminal cancel and error spans included, must carry a trace ID that
// every span of its tree shares, and a span ID on each of them.
func TestChaosHedgingLeavesNothingWedged(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		for _, scale := range []float64{0.12, 1} {
			for _, spec := range []string{"p95,deadline=400ms", "delay:50ms", "clone:2"} {
				seed, scale, spec := seed, scale, spec
				t.Run(fmt.Sprintf("seed=%d/scale=%g/%s", seed, scale, spec), func(t *testing.T) {
					t.Parallel()
					hp, err := cluster.ParseHedgePolicy(spec)
					if err != nil {
						t.Fatal(err)
					}
					tr := obs.NewTracer(1 << 16)
					r := Availability(Options{Seed: seed, Scale: scale, Hedge: &hp, Tracer: tr})
					if !strings.Contains(r.String(), "zero wedged invocations in both modes") {
						t.Fatalf("invocations wedged under chaos and hedging:\n%s", r)
					}
					if tr.Dropped() > 0 {
						t.Fatalf("the tracer dropped %d roots; every root must be checked", tr.Dropped())
					}
					var failed, cancelled int
					for _, root := range tr.Spans() {
						if root.TraceID == "" {
							t.Fatalf("root %s at %v has no trace ID", root.Name, root.Start)
						}
						root.Walk(func(_ int, sp *obs.Span) {
							if sp.TraceID != root.TraceID || sp.SpanID == 0 {
								t.Fatalf("span %s of root %s (trace %s) has trace ID %q and span ID %q",
									sp.Name, root.Name, root.TraceID, sp.TraceID, sp.SpanID)
							}
						})
						if root.Error != "" {
							failed++
						}
						if root.Attr("error_type") == "cancelled" {
							cancelled++
						}
					}
					if failed == 0 || cancelled == 0 {
						t.Fatalf("%d error roots, %d of them cancelled hedge losers; want both above zero", failed, cancelled)
					}
				})
			}
		}
	}
}
