// Package diff compares two trenv run reports and attributes the delta:
// per-metric deltas inside configurable tolerance bands, per-function
// per-phase latency-attribution deltas, critical-path structural diffs,
// time-series divergence detection, figure-row diffs, and — because
// every accepted pair shares a seed — determinism triage that walks the
// span lists in virtual-time order and names the first divergent span
// (trace ID, virtual time, phase, node) instead of "bytes differ".
//
// The output is a ranked verdict list (regressed / missing / new /
// changed / improved) with deterministic machine-readable (JSON) and
// human-readable (text) renderings: diffing the same pair twice
// produces byte-identical output. Artifacts that disagree on schema,
// source, seed, or scale are refused outright with *MismatchError —
// comparing different workloads answers nothing.
package diff

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/report"
)

// ResultSchema identifies the diff output layout.
const ResultSchema = "trenv-diff/v1"

// Options tune the comparison.
type Options struct {
	// RelTol is the fractional band on metric/phase/series deltas: a
	// value within RelTol of the baseline is unchanged. Zero (the
	// default) demands equality — right for deterministic artifacts.
	RelTol float64
	// AbsTol is an absolute floor: deltas smaller than it are unchanged
	// regardless of RelTol (useful for near-zero baselines).
	AbsTol float64
}

// within reports whether new is inside the tolerance band around base.
func (o Options) within(base, new float64) bool {
	d := math.Abs(new - base)
	if d == 0 || d <= o.AbsTol {
		return true
	}
	return d <= o.RelTol*math.Abs(base)
}

// Verdict classifies one finding.
type Verdict string

const (
	// VerdictRegressed marks a delta that makes the run worse (or whose
	// direction is unknown — for a regression gate, unexplained drift
	// fails).
	VerdictRegressed Verdict = "regressed"
	// VerdictMissing marks an item present in the baseline but absent
	// from the fresh run.
	VerdictMissing Verdict = "missing"
	// VerdictNew marks an item absent from the baseline.
	VerdictNew Verdict = "new"
	// VerdictChanged marks a non-numeric difference with no better/worse
	// direction (identity flags).
	VerdictChanged Verdict = "changed"
	// VerdictImproved marks a delta in the metric's good direction.
	VerdictImproved Verdict = "improved"
)

// rank orders verdicts most-severe first for the ranked finding list.
func (v Verdict) rank() int {
	switch v {
	case VerdictRegressed:
		return 0
	case VerdictMissing:
		return 1
	case VerdictNew:
		return 2
	case VerdictChanged:
		return 3
	default:
		return 4
	}
}

// fails reports whether the verdict should fail a regression gate.
func (v Verdict) fails() bool { return v == VerdictRegressed || v == VerdictMissing }

// Finding is one attributed difference between the two reports.
type Finding struct {
	Kind     string  `json:"kind"` // metric, attribution, critical-path, series, figure, alert, identity, determinism
	Verdict  Verdict `json:"verdict"`
	Key      string  `json:"key"`
	Base     float64 `json:"base,omitempty"`
	New      float64 `json:"new,omitempty"`
	DeltaPct float64 `json:"delta_pct,omitempty"`
	Detail   string  `json:"detail,omitempty"`
}

// Divergence names the first point where two same-seed span lists stop
// agreeing — the determinism-triage answer.
type Divergence struct {
	Index     int     `json:"index"`
	Field     string  `json:"field"`
	Base      string  `json:"base,omitempty"`
	New       string  `json:"new,omitempty"`
	TraceID   string  `json:"trace_id"`
	SpanID    string  `json:"span_id,omitempty"`
	Phase     string  `json:"phase"`
	Node      string  `json:"node,omitempty"`
	VirtualUs float64 `json:"virtual_us"`
}

// String renders the one-line diagnosis CI prints on a cmp failure.
func (d *Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "first divergent span at index %d: %s", d.Index, d.Field)
	if d.Base != "" || d.New != "" {
		fmt.Fprintf(&b, " %s vs %s", d.Base, d.New)
	}
	fmt.Fprintf(&b, " (trace %s, virtual %.1fus, phase %s", d.TraceID, d.VirtualUs, d.Phase)
	if d.Node != "" {
		fmt.Fprintf(&b, ", node %s", d.Node)
	}
	b.WriteString(")")
	return b.String()
}

// Result is the full comparison outcome.
type Result struct {
	Schema      string      `json:"schema"`
	Source      string      `json:"source"`
	Seed        int64       `json:"seed"`
	Scale       float64     `json:"scale"`
	Compared    int         `json:"compared"`
	Unchanged   int         `json:"unchanged"`
	Findings    []Finding   `json:"findings"`
	Determinism *Divergence `json:"determinism,omitempty"`
}

// Regressed reports whether the comparison should fail a gate: any
// regressed/missing finding or a determinism divergence.
func (r *Result) Regressed() bool {
	if r.Determinism != nil {
		return true
	}
	for _, f := range r.Findings {
		if f.Verdict.fails() {
			return true
		}
	}
	return false
}

// MismatchError reports artifacts that are not comparable. cmd/trenv-diff
// maps it to its own exit code so CI can tell "regressed" from "you
// compared the wrong files".
type MismatchError struct {
	Field string
	Base  string
	New   string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("diff: %s mismatch: baseline %s vs fresh %s (artifacts are not comparable)", e.Field, e.Base, e.New)
}

// checkIdentity refuses pairs that disagree on schema, source, seed, or
// scale.
func checkIdentity(a, b *report.Report) error {
	if a.Schema != b.Schema {
		return &MismatchError{Field: "schema", Base: a.Schema, New: b.Schema}
	}
	if a.Source != b.Source {
		return &MismatchError{Field: "source", Base: a.Source, New: b.Source}
	}
	if a.Seed != b.Seed {
		return &MismatchError{Field: "seed", Base: fmt.Sprint(a.Seed), New: fmt.Sprint(b.Seed)}
	}
	if a.Scale != b.Scale {
		return &MismatchError{Field: "scale", Base: fmt.Sprintf("%g", a.Scale), New: fmt.Sprintf("%g", b.Scale)}
	}
	return nil
}

// direction classifies a metric key: +1 when higher is worse (latency,
// errors, faults), -1 when higher is better (hits, throughput,
// sharing), 0 when unknown. Unknown deltas beyond tolerance count as
// regressed: for a baseline gate, unexplained drift fails.
func direction(key string) int {
	k := strings.ToLower(key)
	for _, worse := range []string{
		"error", "fault", "retr", "dropped", "wedged", "evict", "fallback",
		"crash", "unavail", "_us", "_ms", "latency", "burn", "alloc", "miss",
		"redispatch", "deadline", "cancelled", "exhausted",
	} {
		if strings.Contains(k, worse) {
			return 1
		}
	}
	for _, better := range []string{
		"warm", "hit", "sharing", "dedup", "per_sec", "prefetched",
		"hedge_win",
	} {
		if strings.Contains(k, better) {
			return -1
		}
	}
	return 0
}

// verdictFor classifies an out-of-tolerance numeric delta.
func verdictFor(key string, base, new float64) Verdict {
	switch d := direction(key); {
	case d > 0 && new < base, d < 0 && new > base:
		return VerdictImproved
	default:
		return VerdictRegressed
	}
}

func deltaPct(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return (new - base) / math.Abs(base) * 100
}

// Compare diffs fresh against base. It refuses incomparable pairs with
// *MismatchError; every other outcome is a Result.
func Compare(base, fresh *report.Report, o Options) (*Result, error) {
	if err := checkIdentity(base, fresh); err != nil {
		return nil, err
	}
	base.Sort()
	fresh.Sort()
	res := &Result{
		Schema: ResultSchema,
		Source: base.Source,
		Seed:   base.Seed,
		Scale:  base.Scale,
	}
	res.compareFlags(base, fresh)
	res.compareMetrics(base, fresh, o)
	res.compareFigures(base, fresh)
	res.compareAttribution(base, fresh, o)
	res.compareCriticalPath(base, fresh)
	res.compareSeries(base, fresh, o)
	res.compareAlerts(base, fresh)
	res.triage(base, fresh)
	res.rankFindings()
	return res, nil
}

// compareFlags reports identity-flag drift (informational: a changed
// flag explains deltas, it is not itself a regression).
func (r *Result) compareFlags(a, b *report.Report) {
	keys := map[string]bool{}
	for k := range a.Flags {
		keys[k] = true
	}
	for k := range b.Flags {
		keys[k] = true
	}
	for _, k := range sortedKeys(keys) {
		av, aok := a.Flags[k]
		bv, bok := b.Flags[k]
		if aok && bok && av == bv {
			continue
		}
		r.Findings = append(r.Findings, Finding{
			Kind:    "identity",
			Verdict: VerdictChanged,
			Key:     "flag/" + k,
			Detail:  fmt.Sprintf("baseline %q vs fresh %q", av, bv),
		})
	}
}

func metricKey(m report.Metric) string {
	if m.Run == "" {
		return m.Key
	}
	return m.Run + "/" + m.Key
}

// compareMetrics diffs the gathered end-state metrics.
func (r *Result) compareMetrics(a, b *report.Report, o Options) {
	am := map[string]report.Metric{}
	for _, m := range a.Metrics {
		am[metricKey(m)] = m
	}
	bm := map[string]report.Metric{}
	for _, m := range b.Metrics {
		bm[metricKey(m)] = m
	}
	keys := map[string]bool{}
	for k := range am {
		keys[k] = true
	}
	for k := range bm {
		keys[k] = true
	}
	for _, k := range sortedKeys(keys) {
		av, aok := am[k]
		bv, bok := bm[k]
		switch {
		case !bok:
			r.Findings = append(r.Findings, Finding{Kind: "metric", Verdict: VerdictMissing, Key: k, Base: av.Value})
		case !aok:
			r.Findings = append(r.Findings, Finding{Kind: "metric", Verdict: VerdictNew, Key: k, New: bv.Value})
		default:
			r.Compared++
			if o.within(av.Value, bv.Value) {
				r.Unchanged++
				continue
			}
			r.Findings = append(r.Findings, Finding{
				Kind:     "metric",
				Verdict:  verdictFor(k, av.Value, bv.Value),
				Key:      k,
				Base:     av.Value,
				New:      bv.Value,
				DeltaPct: deltaPct(av.Value, bv.Value),
			})
		}
	}
}

// compareFigures quotes the first differing rendered row per figure —
// the most human-meaningful delta a paper-reproduction diff can show.
func (r *Result) compareFigures(a, b *report.Report) {
	bf := map[string]report.Figure{}
	for _, f := range b.Figures {
		bf[f.ID] = f
	}
	seen := map[string]bool{}
	for _, af := range a.Figures {
		seen[af.ID] = true
		fig, ok := bf[af.ID]
		if !ok {
			r.Findings = append(r.Findings, Finding{Kind: "figure", Verdict: VerdictMissing, Key: "figure/" + af.ID})
			continue
		}
		r.Compared++
		n := len(af.Lines)
		if len(fig.Lines) < n {
			n = len(fig.Lines)
		}
		diffLine := -1
		for i := 0; i < n; i++ {
			if af.Lines[i] != fig.Lines[i] {
				diffLine = i
				break
			}
		}
		if diffLine < 0 && len(af.Lines) != len(fig.Lines) {
			diffLine = n
		}
		if diffLine < 0 {
			r.Unchanged++
			continue
		}
		baseLine, newLine := "(absent)", "(absent)"
		if diffLine < len(af.Lines) {
			baseLine = af.Lines[diffLine]
		}
		if diffLine < len(fig.Lines) {
			newLine = fig.Lines[diffLine]
		}
		r.Findings = append(r.Findings, Finding{
			Kind:    "figure",
			Verdict: VerdictRegressed,
			Key:     fmt.Sprintf("figure/%s/line%d", af.ID, diffLine),
			Detail:  fmt.Sprintf("baseline %q vs fresh %q", baseLine, newLine),
		})
	}
	ids := make([]string, 0, len(bf))
	for id := range bf {
		if !seen[id] {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		r.Findings = append(r.Findings, Finding{Kind: "figure", Verdict: VerdictNew, Key: "figure/" + id})
	}
}

// compareAttribution diffs the per-function per-phase latency
// attribution ("restore p99 +12%, driven by pool-fetch self-time").
func (r *Result) compareAttribution(a, b *report.Report, o Options) {
	if a.Analysis == nil || b.Analysis == nil {
		return
	}
	type quant struct {
		name string
		val  func(p obsPhase) float64
	}
	quants := []quant{
		{"p50_us", func(p obsPhase) float64 { return p.P50Us }},
		{"p99_us", func(p obsPhase) float64 { return p.P99Us }},
	}
	bfn := map[string]map[string]obsPhase{}
	for _, attr := range b.Analysis.Attribution {
		m := map[string]obsPhase{}
		for _, p := range attr.Phases {
			m[p.Phase] = obsPhase{P50Us: p.P50Us, P99Us: p.P99Us}
		}
		bfn[attr.Function] = m
	}
	for _, attr := range a.Analysis.Attribution {
		phases, ok := bfn[attr.Function]
		if !ok {
			r.Findings = append(r.Findings, Finding{
				Kind: "attribution", Verdict: VerdictMissing,
				Key: "attr/" + attr.Function,
			})
			continue
		}
		for _, p := range attr.Phases {
			bp, ok := phases[p.Phase]
			if !ok {
				r.Findings = append(r.Findings, Finding{
					Kind: "attribution", Verdict: VerdictMissing,
					Key: fmt.Sprintf("attr/%s/%s", attr.Function, p.Phase),
				})
				continue
			}
			ap := obsPhase{P50Us: p.P50Us, P99Us: p.P99Us}
			for _, q := range quants {
				base, new := q.val(ap), q.val(bp)
				r.Compared++
				if o.within(base, new) {
					r.Unchanged++
					continue
				}
				verdict := VerdictRegressed
				if new < base {
					verdict = VerdictImproved
				}
				r.Findings = append(r.Findings, Finding{
					Kind:     "attribution",
					Verdict:  verdict,
					Key:      fmt.Sprintf("attr/%s/%s/%s", attr.Function, p.Phase, q.name),
					Base:     base,
					New:      new,
					DeltaPct: deltaPct(base, new),
				})
			}
		}
	}
}

// obsPhase keeps just the quantiles the attribution diff reads.
type obsPhase struct{ P50Us, P99Us float64 }

// compareCriticalPath diffs the slowest invocation's phase chain: a
// phase entering the path is new work on the latency tail, a phase
// leaving it is won time.
func (r *Result) compareCriticalPath(a, b *report.Report) {
	if a.Analysis == nil || b.Analysis == nil ||
		len(a.Analysis.Slowest) == 0 || len(b.Analysis.Slowest) == 0 {
		return
	}
	as, bs := a.Analysis.Slowest[0], b.Analysis.Slowest[0]
	r.Compared++
	if as.Function != bs.Function || as.TraceID != bs.TraceID {
		r.Findings = append(r.Findings, Finding{
			Kind:    "critical-path",
			Verdict: VerdictChanged,
			Key:     "critical-path/slowest",
			Detail: fmt.Sprintf("slowest invocation changed: %s (trace %s, %.1fus) vs %s (trace %s, %.1fus)",
				as.Function, as.TraceID, as.DurUs, bs.Function, bs.TraceID, bs.DurUs),
		})
	} else {
		r.Unchanged++
	}
	aSelf := map[string]float64{}
	for _, step := range as.CriticalPath {
		aSelf[step.Name] = step.SelfUs
	}
	bSelf := map[string]float64{}
	for _, step := range bs.CriticalPath {
		bSelf[step.Name] = step.SelfUs
	}
	keys := map[string]bool{}
	for k := range aSelf {
		keys[k] = true
	}
	for k := range bSelf {
		keys[k] = true
	}
	for _, phase := range sortedKeys(keys) {
		av, aok := aSelf[phase]
		bv, bok := bSelf[phase]
		switch {
		case aok && bok:
			continue
		case !bok:
			r.Findings = append(r.Findings, Finding{
				Kind:    "critical-path",
				Verdict: VerdictImproved,
				Key:     "critical-path/" + phase,
				Base:    av,
				Detail:  fmt.Sprintf("phase left the critical path (was %.1fus self-time)", av),
			})
		default:
			r.Findings = append(r.Findings, Finding{
				Kind:    "critical-path",
				Verdict: VerdictRegressed,
				Key:     "critical-path/" + phase,
				New:     bv,
				Detail:  fmt.Sprintf("phase entered the critical path (%.1fus self-time)", bv),
			})
		}
	}
}

func seriesKey(s report.Series) string {
	if s.Run == "" {
		return s.Key
	}
	return s.Run + "/" + s.Key
}

// compareSeries finds, per series present in both reports, the first
// sampled point where the runs diverge beyond tolerance.
func (r *Result) compareSeries(a, b *report.Report, o Options) {
	bm := map[string]report.Series{}
	for _, s := range b.Series {
		bm[seriesKey(s)] = s
	}
	seen := map[string]bool{}
	for _, as := range a.Series {
		k := seriesKey(as)
		seen[k] = true
		bs, ok := bm[k]
		if !ok {
			r.Findings = append(r.Findings, Finding{Kind: "series", Verdict: VerdictMissing, Key: k})
			continue
		}
		r.Compared++
		if f, diverged := firstSeriesDivergence(as, bs, o); diverged {
			f.Key = k
			r.Findings = append(r.Findings, f)
		} else {
			r.Unchanged++
		}
	}
	keys := make([]string, 0, len(bm))
	for k := range bm {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.Findings = append(r.Findings, Finding{Kind: "series", Verdict: VerdictNew, Key: k})
	}
}

func alertKey(a report.AlertRecord) string {
	if a.Run == "" {
		return "alert/" + a.Rule
	}
	return "alert/" + a.Run + "/" + a.Rule
}

// compareAlerts diffs end-of-run alert states: a rule firing in the
// fresh run but not in the baseline is a regression in its own right
// (the run crossed an operator-facing line the baseline never did),
// firing more often is worse, firing less or resolving is improvement.
func (r *Result) compareAlerts(a, b *report.Report) {
	bm := map[string]report.AlertRecord{}
	for _, ar := range b.Alerts {
		bm[alertKey(ar)] = ar
	}
	seen := map[string]bool{}
	for _, aa := range a.Alerts {
		k := alertKey(aa)
		seen[k] = true
		ba, ok := bm[k]
		if !ok {
			r.Findings = append(r.Findings, Finding{Kind: "alert", Verdict: VerdictMissing, Key: k,
				Detail: fmt.Sprintf("rule %s no longer evaluated", aa.Spec)})
			continue
		}
		r.Compared++
		aFiring := aa.State == "firing"
		bFiring := ba.State == "firing"
		switch {
		case !aFiring && bFiring:
			r.Findings = append(r.Findings, Finding{
				Kind: "alert", Verdict: VerdictRegressed, Key: k,
				Base: float64(aa.Fired), New: float64(ba.Fired),
				Detail: fmt.Sprintf("now firing (%s): %s", ba.Spec, lastIncidentDetail(ba)),
			})
		case aFiring && !bFiring:
			r.Findings = append(r.Findings, Finding{
				Kind: "alert", Verdict: VerdictImproved, Key: k,
				Base: float64(aa.Fired), New: float64(ba.Fired),
				Detail: fmt.Sprintf("no longer firing (%s)", ba.Spec),
			})
		case ba.Fired > aa.Fired:
			r.Findings = append(r.Findings, Finding{
				Kind: "alert", Verdict: VerdictRegressed, Key: k,
				Base: float64(aa.Fired), New: float64(ba.Fired), DeltaPct: deltaPct(float64(aa.Fired), float64(ba.Fired)),
				Detail: fmt.Sprintf("fired %d times vs %d (%s)", ba.Fired, aa.Fired, ba.Spec),
			})
		case ba.Fired < aa.Fired:
			r.Findings = append(r.Findings, Finding{
				Kind: "alert", Verdict: VerdictImproved, Key: k,
				Base: float64(aa.Fired), New: float64(ba.Fired), DeltaPct: deltaPct(float64(aa.Fired), float64(ba.Fired)),
				Detail: fmt.Sprintf("fired %d times vs %d (%s)", ba.Fired, aa.Fired, ba.Spec),
			})
		default:
			r.Unchanged++
		}
	}
	keys := make([]string, 0, len(bm))
	for k := range bm {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		ba := bm[k]
		verdict := VerdictNew
		detail := fmt.Sprintf("rule %s only in fresh run", ba.Spec)
		if ba.State == "firing" || ba.Fired > 0 {
			// A brand-new rule that also fired is a regression signal, not
			// just inventory drift.
			verdict = VerdictRegressed
			detail = fmt.Sprintf("new rule fired %d times (%s): %s", ba.Fired, ba.Spec, lastIncidentDetail(ba))
		}
		r.Findings = append(r.Findings, Finding{Kind: "alert", Verdict: verdict, Key: k,
			New: float64(ba.Fired), Detail: detail})
	}
}

// lastIncidentDetail quotes the most recent incident's detail and first
// trace link, the fastest path from a diff line to a critical path.
func lastIncidentDetail(ar report.AlertRecord) string {
	if len(ar.Incidents) == 0 {
		return "no incident captured"
	}
	inc := ar.Incidents[len(ar.Incidents)-1]
	if len(inc.TraceIDs) == 0 {
		return inc.Detail
	}
	return fmt.Sprintf("%s (trace %s)", inc.Detail, inc.TraceIDs[0])
}

// firstSeriesDivergence walks two sampled series in step and reports
// the first point whose instant or value disagrees beyond tolerance.
func firstSeriesDivergence(a, b report.Series, o Options) (Finding, bool) {
	n := len(a.Points)
	if len(b.Points) < n {
		n = len(b.Points)
	}
	for i := 0; i < n; i++ {
		ap, bp := a.Points[i], b.Points[i]
		if ap.TMS != bp.TMS {
			return Finding{
				Kind:    "series",
				Verdict: VerdictRegressed,
				Detail:  fmt.Sprintf("sample instants diverge at point %d: t=%.1fms vs t=%.1fms", i, ap.TMS, bp.TMS),
			}, true
		}
		if !o.within(ap.V, bp.V) {
			return Finding{
				Kind:     "series",
				Verdict:  verdictFor(a.Key, ap.V, bp.V),
				Base:     ap.V,
				New:      bp.V,
				DeltaPct: deltaPct(ap.V, bp.V),
				Detail:   fmt.Sprintf("first divergence at t=%.1fms (point %d)", ap.TMS, i),
			}, true
		}
	}
	if len(a.Points) != len(b.Points) {
		return Finding{
			Kind:    "series",
			Verdict: VerdictRegressed,
			Detail:  fmt.Sprintf("point counts diverge after an identical prefix: %d vs %d", len(a.Points), len(b.Points)),
		}, true
	}
	return Finding{}, false
}

// rankFindings orders the verdict list most-severe first with total,
// deterministic tie-breaks: verdict rank, then |delta| descending, then
// kind, then key.
func (r *Result) rankFindings() {
	if r.Findings == nil {
		r.Findings = []Finding{}
	}
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if ar, br := a.Verdict.rank(), b.Verdict.rank(); ar != br {
			return ar < br
		}
		if ad, bd := math.Abs(a.DeltaPct), math.Abs(b.DeltaPct); ad != bd {
			return ad > bd
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Key < b.Key
	})
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
