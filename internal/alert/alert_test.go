package alert

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fixture wires a registry, recorder, and engine the way the platforms
// do: Observe hooks Eval onto every Sample.
type fixture struct {
	reg *obs.Registry
	rec *obs.Recorder
	eng *Engine
	c   int64
	g   float64
}

func newFixture(t *testing.T, rules []Rule, capacity int) *fixture {
	t.Helper()
	f := &fixture{reg: obs.NewRegistry()}
	f.reg.CounterFunc("c_total", "c", nil, func() int64 { return f.c })
	f.reg.GaugeFunc("g", "g", map[string]string{"node": "n0"}, func() float64 { return f.g })
	f.rec = obs.NewRecorder(f.reg, capacity)
	f.eng = New(rules)
	f.eng.Observe(f.rec)
	return f
}

func (f *fixture) state(name string) RuleStatus {
	for _, rs := range f.eng.Snapshot() {
		if rs.Rule.Name == name {
			return rs
		}
	}
	return RuleStatus{}
}

func TestThresholdLifecycleWithHysteresis(t *testing.T) {
	f := newFixture(t, []Rule{
		{Name: "hot", Kind: KindThreshold, Series: "g", Op: OpGE, Value: 5, For: 300 * time.Millisecond},
	}, 0)
	step := 100 * time.Millisecond

	f.rec.Sample(1 * step)
	if got := f.state("hot").State; got != StateInactive {
		t.Fatalf("below bound: state = %s, want inactive", got)
	}

	f.g = 7
	f.rec.Sample(2 * step) // pending at 200ms
	if got := f.state("hot").State; got != StatePending {
		t.Fatalf("above bound: state = %s, want pending", got)
	}
	f.rec.Sample(4 * step) // held 200ms < for
	if got := f.state("hot").State; got != StatePending {
		t.Fatalf("held < for: state = %s, want pending", got)
	}
	f.rec.Sample(5 * step) // held 300ms >= for -> fires
	st := f.state("hot")
	if st.State != StateFiring || st.Fired != 1 {
		t.Fatalf("held >= for: state = %s fired = %d, want firing/1", st.State, st.Fired)
	}
	if f.eng.Firing() != 1 || f.eng.FiredTotal() != 1 {
		t.Fatalf("engine counters = %d firing %d fired", f.eng.Firing(), f.eng.FiredTotal())
	}

	f.g = 0
	f.rec.Sample(6 * step) // resolved
	if got := f.state("hot").State; got != StateInactive {
		t.Fatalf("back below bound: state = %s, want inactive", got)
	}
	var phases []string
	for _, ev := range f.eng.Timeline() {
		phases = append(phases, ev.Phase)
	}
	if got := strings.Join(phases, ","); got != "pending,firing,resolved" {
		t.Fatalf("timeline phases = %s", got)
	}
	if incs := f.eng.Incidents(); len(incs) != 1 || !incs[0].Resolved {
		t.Fatalf("incidents = %+v, want one resolved", incs)
	}
}

func TestPendingClearsBeforeFor(t *testing.T) {
	f := newFixture(t, []Rule{
		{Name: "hot", Kind: KindThreshold, Series: "g", Op: OpGE, Value: 5, For: time.Second},
	}, 0)
	f.g = 9
	f.rec.Sample(100 * time.Millisecond)
	f.g = 0
	f.rec.Sample(200 * time.Millisecond)
	if got := f.state("hot").State; got != StateInactive {
		t.Fatalf("state = %s, want inactive", got)
	}
	if f.eng.FiredTotal() != 0 || len(f.eng.Incidents()) != 0 {
		t.Fatal("a cleared pending must not fire or capture an incident")
	}
	evs := f.eng.Timeline()
	if len(evs) != 2 || evs[1].Phase != "cleared" {
		t.Fatalf("timeline = %+v, want pending then cleared", evs)
	}
}

func TestZeroForFiresImmediately(t *testing.T) {
	f := newFixture(t, []Rule{
		{Name: "hot", Kind: KindThreshold, Series: "g", Op: OpGT, Value: 0},
	}, 0)
	f.g = 1
	f.rec.Sample(100 * time.Millisecond)
	if got := f.state("hot").State; got != StateFiring {
		t.Fatalf("state = %s, want firing on first active eval", got)
	}
}

func TestMissingDataIsNeverZero(t *testing.T) {
	// Both rules would be active if absent data evaluated as 0: the
	// threshold watches a series that never existed with g < 1, the rate
	// rule watches a real counter before it has two points.
	f := newFixture(t, []Rule{
		{Name: "ghost", Kind: KindThreshold, Series: "no_such_series", Op: OpLT, Value: 1},
		{Name: "quiet", Kind: KindRate, Series: "c_total", Op: OpLE, Value: 100},
	}, 0)
	f.rec.Sample(100 * time.Millisecond) // one point: no rate yet
	for _, name := range []string{"ghost", "quiet"} {
		if got := f.state(name).State; got != StateInactive {
			t.Fatalf("%s: state = %s, want inactive (missing data must not compare)", name, got)
		}
	}
}

func TestRateRuleAveragesOverWindow(t *testing.T) {
	f := newFixture(t, []Rule{
		{Name: "spike", Kind: KindRate, Series: "c_total", Op: OpGT, Value: 5, Over: 500 * time.Millisecond},
	}, 0)
	step := 100 * time.Millisecond
	// One lone burst: instantaneous rate 20/s for one sample, but the
	// 500ms average is 2/s/... stays inactive.
	f.rec.Sample(1 * step)
	f.c += 2
	f.rec.Sample(2 * step)
	for i := 3; i <= 6; i++ {
		f.rec.Sample(time.Duration(i) * step)
	}
	if got := f.state("spike"); got.State != StateInactive {
		t.Fatalf("lone burst: state = %s (%s), want inactive under windowed rate", got.State, got.Detail)
	}
	// A sustained burn of 10/s over the window crosses the bound.
	for i := 7; i <= 12; i++ {
		f.c += 1
		f.rec.Sample(time.Duration(i) * step)
	}
	st := f.state("spike")
	if st.State != StateFiring {
		t.Fatalf("sustained burn: state = %s, want firing", st.State)
	}
	if !strings.Contains(st.Detail, "over 500ms") {
		t.Fatalf("detail %q does not name the averaging window", st.Detail)
	}
}

func TestLabelSelectorSubsetMatch(t *testing.T) {
	f := newFixture(t, []Rule{
		{Name: "n0", Kind: KindThreshold, Series: "g", Labels: map[string]string{"node": "n0"}, Op: OpGT, Value: 0},
		{Name: "n9", Kind: KindThreshold, Series: "g", Labels: map[string]string{"node": "n9"}, Op: OpGT, Value: 0},
	}, 0)
	f.g = 3
	f.rec.Sample(100 * time.Millisecond)
	if got := f.state("n0").State; got != StateFiring {
		t.Fatalf("matching selector: state = %s, want firing", got)
	}
	if got := f.state("n9").State; got != StateInactive {
		t.Fatalf("non-matching selector: state = %s, want inactive", got)
	}
}

func TestAbsenceRule(t *testing.T) {
	f := newFixture(t, []Rule{
		{Name: "ghost", Kind: KindAbsence, Series: "never_registered", Window: time.Second},
		{Name: "stale", Kind: KindAbsence, Series: "g", Window: time.Second},
	}, 0)
	f.rec.Sample(100 * time.Millisecond)
	if got := f.state("ghost").State; got != StateFiring {
		t.Fatalf("never-sampled series: state = %s, want firing", got)
	}
	if got := f.state("stale").State; got != StateInactive {
		t.Fatalf("fresh series: state = %s, want inactive", got)
	}
	// The recorder stops pumping; evaluation continues on the virtual
	// clock and the series goes stale past the window.
	f.eng.Eval(1200 * time.Millisecond)
	st := f.state("stale")
	if st.State != StateFiring {
		t.Fatalf("stale series: state = %s, want firing", st.State)
	}
	if !strings.Contains(st.Detail, "silent for") {
		t.Fatalf("detail = %q", st.Detail)
	}
}

func TestAbsenceWhenWindowAgedOutOfRing(t *testing.T) {
	// Ring capacity 2: after the burst of samples at 100..500ms the
	// buffer only holds 400ms and 500ms. An absence window entirely
	// older than the ring must read as absent, never as zero.
	f := newFixture(t, []Rule{
		{Name: "stale", Kind: KindAbsence, Series: "g", Window: 300 * time.Millisecond},
	}, 2)
	for i := 1; i <= 5; i++ {
		f.rec.Sample(time.Duration(i) * 100 * time.Millisecond)
	}
	if got := f.state("stale").State; got != StateInactive {
		t.Fatalf("fresh ring: state = %s, want inactive", got)
	}
	f.eng.Eval(5 * time.Second) // newest retained point now 4.5s stale
	if got := f.state("stale").State; got != StateFiring {
		t.Fatalf("aged-out window: state = %s, want firing (absence, not zero)", got)
	}
}

func TestBurnRule(t *testing.T) {
	f := newFixture(t, []Rule{
		{Name: "slo", Kind: KindBurn, Function: "*",
			Burn: []BurnWindow{{Window: time.Second, Factor: 5}}},
	}, 0)
	slo := obs.NewSLOTracker(time.Second)
	slo.SetDefault(obs.SLO{Target: 100 * time.Millisecond, Objective: 0.9})
	f.eng.AddSLO(slo)

	slo.Record("F", 100*time.Millisecond, 50*time.Millisecond) // within target
	f.rec.Sample(200 * time.Millisecond)
	if got := f.state("slo").State; got != StateInactive {
		t.Fatalf("healthy: state = %s, want inactive", got)
	}
	// Every invocation breaching burns 1/(1-0.9) = 10x the budget.
	for i := 0; i < 4; i++ {
		slo.Record("F", time.Duration(300+i*10)*time.Millisecond, 500*time.Millisecond)
	}
	f.rec.Sample(400 * time.Millisecond)
	st := f.state("slo")
	if st.State != StateFiring {
		t.Fatalf("burning: state = %s, want firing", st.State)
	}
	if !strings.Contains(st.Detail, "burn") || !strings.Contains(st.Detail, "F ") {
		t.Fatalf("detail = %q", st.Detail)
	}
}

// TestNamedBurnRuleWaitsForItsFunction: a burn rule on a named function
// stays inactive while no tracker has seen that function, even with
// another function burning, and fires once any tracker records it.
func TestNamedBurnRuleWaitsForItsFunction(t *testing.T) {
	f := newFixture(t, []Rule{
		{Name: "g", Kind: KindBurn, Function: "G",
			Burn: []BurnWindow{{Window: time.Second, Factor: 5}}},
	}, 0)
	a, b := obs.NewSLOTracker(time.Second), obs.NewSLOTracker(time.Second)
	for _, slo := range []*obs.SLOTracker{a, b} {
		slo.SetDefault(obs.SLO{Target: 100 * time.Millisecond, Objective: 0.9})
		f.eng.AddSLO(slo)
	}
	a.Record("F", 100*time.Millisecond, time.Second) // F burns 10x
	f.rec.Sample(200 * time.Millisecond)
	if got := f.state("g").State; got != StateInactive {
		t.Fatalf("G unseen: state = %s, want inactive", got)
	}
	b.Record("G", 300*time.Millisecond, time.Second)
	f.rec.Sample(400 * time.Millisecond)
	if st := f.state("g"); st.State != StateFiring || !strings.HasPrefix(st.Detail, "G burn 10.00x") {
		t.Fatalf("G burning on the second tracker: state = %s, detail %q", st.State, st.Detail)
	}
}

func TestIncidentCaptureLinksWorstTraces(t *testing.T) {
	f := newFixture(t, []Rule{
		{Name: "hot", Kind: KindThreshold, Series: "g", Op: OpGE, Value: 5, For: 200 * time.Millisecond},
	}, 0)
	tr := obs.NewTracer(0)
	f.eng.SetTracer(tr)

	slow := obs.NewSpan("invoke/AB", 150*time.Millisecond, 450*time.Millisecond)
	slow.SetAttr("function", "AB")
	tr.Record(slow)
	bad := obs.NewSpan("invoke/CD", 200*time.Millisecond, 250*time.Millisecond)
	bad.SetAttr("function", "CD")
	bad.Fail(errors.New("boom"))
	tr.Record(bad)
	// Outside the incident window: must not be linked.
	tr.Record(obs.NewSpan("invoke/ZZ", 10*time.Second, 11*time.Second))

	f.g = 9
	f.rec.Sample(100 * time.Millisecond)
	f.rec.Sample(200 * time.Millisecond)
	f.rec.Sample(300 * time.Millisecond) // fires here

	incs := f.eng.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1", len(incs))
	}
	inc := incs[0]
	if want := obs.TraceIDFor("alert", "hot", "1"); inc.ID != want {
		t.Fatalf("incident ID = %s, want deterministic %s", inc.ID, want)
	}
	if inc.PendingMS != 100 || inc.FiringMS != 300 || inc.Resolved {
		t.Fatalf("incident lifecycle = %+v", inc)
	}
	if len(inc.Series) != 1 || inc.Series[0].Key != `g{node="n0"}` || len(inc.Series[0].Points) != 3 {
		t.Fatalf("series window = %+v", inc.Series)
	}
	if len(inc.Worst) != 2 {
		t.Fatalf("worst = %+v, want the two overlapping invocations", inc.Worst)
	}
	if inc.Worst[0].Error == "" {
		t.Fatalf("errored invocation must sort first: %+v", inc.Worst)
	}
	for _, w := range inc.Worst {
		if w.TraceID == "" {
			t.Fatalf("missing trace link: %+v", w)
		}
	}
}

func TestEvalIgnoresDuplicateAndOutOfOrderInstants(t *testing.T) {
	f := newFixture(t, []Rule{
		{Name: "hot", Kind: KindThreshold, Series: "g", Op: OpGT, Value: 0},
	}, 0)
	f.g = 1
	f.rec.Sample(100 * time.Millisecond)
	f.eng.Eval(100 * time.Millisecond) // duplicate
	f.eng.Eval(50 * time.Millisecond)  // out of order
	if f.eng.Evals() != 1 {
		t.Fatalf("evals = %d, want 1", f.eng.Evals())
	}
}

func TestExportsAreDeterministic(t *testing.T) {
	run := func() (string, []string, []Event) {
		f := newFixture(t, DefaultRules(), 0)
		step := 100 * time.Millisecond
		for i := 1; i <= 40; i++ {
			if i > 10 && i < 30 {
				f.c += 1 // error-ish counter churn
			}
			f.g = float64(i % 7)
			f.rec.Sample(time.Duration(i) * step)
		}
		var buf bytes.Buffer
		if err := f.eng.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), f.eng.TimelineLines(), f.eng.Timeline()
	}
	j1, l1, _ := run()
	j2, l2, _ := run()
	if j1 != j2 {
		t.Fatal("same inputs produced different alert JSON")
	}
	if strings.Join(l1, "\n") != strings.Join(l2, "\n") {
		t.Fatal("same inputs produced different timelines")
	}
}

func TestRegisterMetrics(t *testing.T) {
	f := newFixture(t, []Rule{
		{Name: "hot", Kind: KindThreshold, Series: "g", Op: OpGT, Value: 0},
	}, 0)
	f.eng.RegisterMetrics(f.reg, nil)
	f.g = 1
	f.rec.Sample(100 * time.Millisecond)
	var buf bytes.Buffer
	if err := f.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "trenv_alerts_firing 1") {
		t.Fatalf("metrics missing firing gauge:\n%s", out)
	}
	if !strings.Contains(out, "trenv_alerts_fired_total 1") {
		t.Fatalf("metrics missing fired counter:\n%s", out)
	}
}

func TestSetGroupsRuns(t *testing.T) {
	s := NewSet(DefaultRules())
	s.Track("a")
	s.Track("b")
	if s.Runs() != 2 {
		t.Fatalf("runs = %d", s.Runs())
	}
	var order []string
	s.Each(func(run string, eng *Engine) {
		if eng == nil {
			t.Fatalf("nil engine for %s", run)
		}
		order = append(order, run)
	})
	if strings.Join(order, ",") != "a,b" {
		t.Fatalf("visit order = %v", order)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"run": "a"`) {
		t.Fatalf("set JSON missing run name:\n%s", buf.String())
	}
}

func TestNewPanicsOnBadRuleSets(t *testing.T) {
	for _, rules := range [][]Rule{
		{{Name: "", Kind: KindThreshold, Series: "g", Op: OpGT}},
		{{Name: "x", Kind: KindThreshold, Series: "g", Op: OpGT}, {Name: "x", Kind: KindAbsence, Series: "g", Window: time.Second}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%+v) did not panic", rules)
				}
			}()
			New(rules)
		}()
	}
}
