package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// chromeEvent is one Chrome trace-event ("ph":"X" complete events),
// loadable by chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace serializes root spans as a Chrome trace-event JSON
// document. Each root span gets its own track (tid), so concurrent
// invocations render as parallel lanes; child phases nest below their
// parents by time range. Every event's args carry the span's trace_id
// and span_id so a lane in the viewer can be matched to /analyze
// output and exported exemplars. Output is deterministic for a fixed
// span list.
func WriteChromeTrace(w io.Writer, roots []*Span) error {
	doc := chromeDoc{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for i, root := range roots {
		tid := i + 1
		root.Walk(func(_ int, sp *Span) {
			args := make(map[string]string, len(sp.Attrs)+3)
			for _, a := range sp.Attrs {
				args[a.Key] = a.Value
			}
			if sp.TraceID != "" {
				args["trace_id"] = sp.TraceID
			}
			if sp.SpanID != 0 {
				args["span_id"] = sp.SpanID.String()
			}
			if sp.Error != "" {
				args["error"] = sp.Error
			}
			if len(args) == 0 {
				args = nil
			}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
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

// SumDurations totals the durations of the named phase across all
// spans in the trees (trace-analysis helper: e.g. total "copy" time).
func SumDurations(roots []*Span, name string) time.Duration {
	var total time.Duration
	for _, r := range roots {
		r.Walk(func(_ int, sp *Span) {
			if sp.Name == name {
				total += sp.Duration()
			}
		})
	}
	return total
}
