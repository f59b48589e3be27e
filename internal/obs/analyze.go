package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// This file turns recorded span trees into answers: which invocations
// were slowest, which phase chain made them slow (critical path), how
// each phase contributes to P50/P99/P999 per function, and how a tail
// invocation's tree differs from a median one. Everything sorts its
// inputs and derives from virtual time, so a fixed seed produces
// byte-identical reports.

// invokePrefix marks root spans that represent function invocations;
// other roots (evictions, pool fetches) are causal context, not
// invocations, and are excluded from latency analysis.
const invokePrefix = "invoke/"

// PathStep is one hop on a critical path.
type PathStep struct {
	Name    string  `json:"name"`
	SpanID  string  `json:"span_id,omitempty"`
	Node    string  `json:"node,omitempty"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
	SelfUs  float64 `json:"self_us"`
	// LinkedTrace, when set, names the remote trace this step hands off
	// to (a memory-pool fetch on another node).
	LinkedTrace string `json:"linked_trace,omitempty"`
}

// CriticalPath walks from root to a leaf, at every level descending
// into the child with the largest duration (ties: earliest start, then
// name). Each step records its self time — the share of the step not
// explained by its own children — so summing SelfUs over the path
// recovers the chain's direct contribution to end-to-end latency.
func CriticalPath(root *Span) []PathStep {
	var path []PathStep
	for sp := root; sp != nil; {
		step := PathStep{
			Name:    sp.Name,
			SpanID:  sp.SpanID.String(),
			Node:    sp.Attr("node"),
			StartUs: micros(sp.Start),
			DurUs:   micros(sp.Duration()),
			SelfUs:  micros(sp.SelfTime()),
		}
		for _, l := range sp.Links {
			if l.TraceID != "" && l.TraceID != sp.TraceID {
				step.LinkedTrace = l.TraceID
				break
			}
		}
		path = append(path, step)
		var next *Span
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

// SlowInvocation is one entry in the top-k slowest table.
type SlowInvocation struct {
	TraceID      string     `json:"trace_id"`
	Function     string     `json:"function,omitempty"`
	Node         string     `json:"node,omitempty"`
	DurUs        float64    `json:"dur_us"`
	Error        string     `json:"error,omitempty"`
	CriticalPath []PathStep `json:"critical_path"`
}

// PhaseQuantiles is one phase's latency contribution across a
// function's invocations (invocations without the phase count as 0).
type PhaseQuantiles struct {
	Phase  string  `json:"phase"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// PhaseAttribution is a function's per-phase latency breakdown.
type PhaseAttribution struct {
	Function    string           `json:"function"`
	Invocations int              `json:"invocations"`
	Phases      []PhaseQuantiles `json:"phases"`
}

// PhaseRatio compares one phase between a tail and a median invocation.
type PhaseRatio struct {
	Phase    string  `json:"phase"`
	TailUs   float64 `json:"tail_us"`
	MedianUs float64 `json:"median_us"`
	// Ratio is tail/median (0 when the median spent nothing there — the
	// phase is pure tail behaviour).
	Ratio float64 `json:"ratio"`
}

// TailDiff explains where a function's P99 invocation spent its time
// relative to a median one.
type TailDiff struct {
	Function      string       `json:"function"`
	TailTraceID   string       `json:"tail_trace_id"`
	MedianTraceID string       `json:"median_trace_id"`
	TailDurUs     float64      `json:"tail_dur_us"`
	MedianDurUs   float64      `json:"median_dur_us"`
	Phases        []PhaseRatio `json:"phases"`
}

// ExemplarLink resolves one exported exemplar back to its trace.
type ExemplarLink struct {
	Series  string  `json:"series"`
	Le      string  `json:"le"`
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

// Report is the full analysis of a set of recorded root spans.
type Report struct {
	Invocations int                `json:"invocations"`
	Errors      int                `json:"errors"`
	Slowest     []SlowInvocation   `json:"slowest"`
	Attribution []PhaseAttribution `json:"attribution"`
	TailDiffs   []TailDiff         `json:"tail_diffs"`
	Exemplars   []ExemplarLink     `json:"exemplars,omitempty"`
}

// phaseSelfTimes sums self time per span name over root's tree.
func phaseSelfTimes(root *Span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	root.Walk(func(_ int, sp *Span) {
		if self := sp.SelfTime(); self > 0 {
			out[sp.Name] += self
		}
	})
	return out
}

// invocationRoots filters to invocation roots, preserving order.
func invocationRoots(roots []*Span) []*Span {
	var out []*Span
	for _, r := range roots {
		if strings.HasPrefix(r.Name, invokePrefix) {
			out = append(out, r)
		}
	}
	return out
}

// pickAtOrAbove returns the invocation with the smallest duration >= q
// (ties: lowest TraceID), or nil when invs is empty.
func pickAtOrAbove(invs []*Span, q time.Duration) *Span {
	var best *Span
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

// Analyze builds a Report over the recorded roots: non-invocation
// roots are skipped, the topK slowest invocations get critical paths,
// and every function gets a per-phase P50/P99/P999 attribution table
// plus a tail-vs-median diff. Exemplars are left empty for the caller
// to fill from its metrics layer.
func Analyze(roots []*Span, topK int) *Report {
	if topK <= 0 {
		topK = 10
	}
	invs := invocationRoots(roots)
	rep := &Report{Invocations: len(invs)}

	// Top-k slowest (duration desc, ties by TraceID for stable bytes).
	sorted := append([]*Span(nil), invs...)
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
			Function:     sp.Attr("function"),
			Node:         sp.Attr("node"),
			DurUs:        micros(sp.Duration()),
			Error:        sp.Error,
			CriticalPath: CriticalPath(sp),
		})
	}

	// Per-function phase attribution.
	byFn := make(map[string][]*Span)
	for _, sp := range invs {
		fn := sp.Attr("function")
		byFn[fn] = append(byFn[fn], sp)
	}
	fns := make([]string, 0, len(byFn))
	for fn := range byFn {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		group := byFn[fn]
		// Gather per-invocation phase self times and the phase universe.
		perInv := make([]map[string]time.Duration, len(group))
		phaseSet := make(map[string]bool)
		for i, sp := range group {
			perInv[i] = phaseSelfTimes(sp)
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
				h.Add(micros(perInv[i][p])) // missing phase observes 0
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

		// Tail-vs-median diff.
		var durs sim.Histogram
		for _, sp := range group {
			durs.AddDuration(sp.Duration())
		}
		tail := pickAtOrAbove(group, time.Duration(durs.Percentile(99)*float64(time.Millisecond)))
		median := pickAtOrAbove(group, time.Duration(durs.Percentile(50)*float64(time.Millisecond)))
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
		tp, mp := phaseSelfTimes(tail), phaseSelfTimes(median)
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

// foldFrame sanitises a span name for the folded-stack format, where
// ';' separates frames and ' ' separates the stack from its count.
func foldFrame(name string) string {
	name = strings.ReplaceAll(name, ";", ":")
	name = strings.ReplaceAll(name, " ", "_")
	return strings.ReplaceAll(name, "\n", "_")
}

// WriteFolded writes the roots as folded stacks — one
// `frame;frame;frame count` line per distinct call path, count being
// the path's total self time in integer microseconds — compatible with
// flamegraph.pl and speedscope. Lines are sorted, zero-self paths are
// dropped, and same-seed runs produce byte-identical output.
func WriteFolded(w io.Writer, roots []*Span) error {
	stacks := make(map[string]int64)
	for _, root := range roots {
		var frames []string
		var rec func(sp *Span)
		rec = func(sp *Span) {
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
