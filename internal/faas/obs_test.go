package faas

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tracedRun executes the same small workload under one seed with a
// tracer attached and returns the platform and its recorded spans.
func tracedRun(t *testing.T, seed int64) (*Platform, []*obs.Span) {
	t.Helper()
	cfg := DefaultConfig(PolicyTrEnvCXL)
	cfg.Seed = seed
	cfg.Tracer = obs.NewTracer(0)
	pl := New(cfg)
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			t.Fatalf("register %s: %v", p.Name, err)
		}
	}
	pl.RunTrace(smallTrace(seed))
	return pl, cfg.Tracer.Spans()
}

func TestTraceByteIdenticalAcrossSameSeedRuns(t *testing.T) {
	_, a := tracedRun(t, 7)
	_, b := tracedRun(t, 7)
	if len(a) == 0 {
		t.Fatal("no spans recorded")
	}

	var chromeA, chromeB, jsonlA, jsonlB bytes.Buffer
	if err := obs.WriteChromeTrace(&chromeA, a); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(&chromeB, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chromeA.Bytes(), chromeB.Bytes()) {
		t.Fatal("Chrome trace differs across identical-seed runs")
	}
	if err := obs.WriteJSONL(&jsonlA, a); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(&jsonlB, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonlA.Bytes(), jsonlB.Bytes()) {
		t.Fatal("JSONL trace differs across identical-seed runs")
	}
}

func TestSpanPhasesTileTheInvocation(t *testing.T) {
	_, spans := tracedRun(t, 3)
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, root := range spans {
		if root.Error != "" || !strings.HasPrefix(root.Name, "invoke/") {
			// Lifecycle roots (expire/, evict/, pool-fetch/) are causal
			// context, not phase decompositions.
			continue
		}
		// queue/evict/startup/promote/exec tile [root.Start, root.End].
		if got, want := root.ChildrenTotal(), root.Duration(); got != want {
			t.Fatalf("span %s: children total %v != duration %v", root.Name, got, want)
		}
		// The startup subtree decomposes exactly too.
		for _, c := range root.Children {
			if c.Name != "startup" {
				continue
			}
			if got, want := c.ChildrenTotal(), c.Duration(); got != want {
				t.Fatalf("startup children total %v != startup duration %v", got, want)
			}
		}
	}
}

func TestStartupSpansSumToReportedStartupTotals(t *testing.T) {
	pl, spans := tracedRun(t, 5)
	spanSum := obs.SumDurations(spans, "startup")
	// Metrics store startup in float ms; compare with a float tolerance.
	histSumMs := pl.Metrics().All.Startup.Sum()
	spanSumMs := float64(spanSum) / float64(time.Millisecond)
	if math.Abs(histSumMs-spanSumMs) > 1e-6*math.Max(1, histSumMs) {
		t.Fatalf("startup spans sum to %.6fms, metrics report %.6fms", spanSumMs, histSumMs)
	}
}

// terminalRun registers Table 4 on a traced platform, lets arm prepare
// it (faults, interrupts), dispatches one attempt of fn at virtual time
// at, and runs to completion. It returns the platform, the attempt's
// result, the virtual time the result was delivered, and the attempt's
// invoke/<fn> root span. An attempt dispatched through InvokeAttempt
// must return exactly the result OnResult saw.
func terminalRun(t *testing.T, policy Policy, tweak func(*Config), arm func(*Platform, *Race),
	fn string, at time.Duration, attempt bool) (*Platform, InvocationResult, time.Duration, *obs.Span) {
	t.Helper()
	var results []InvocationResult
	var delivered time.Duration
	cfg := DefaultConfig(policy)
	cfg.Node = "n0"
	cfg.Tracer = obs.NewTracer(0)
	if tweak != nil {
		tweak(&cfg)
	}
	var pl *Platform
	cfg.OnResult = func(r InvocationResult) {
		results = append(results, r)
		delivered = pl.Engine().Now()
	}
	pl = New(cfg)
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	var race *Race
	if attempt {
		race = &Race{}
	}
	if arm != nil {
		arm(pl, race)
	}
	var returned []InvocationResult
	if attempt {
		pl.Engine().At(at, "dispatch/"+fn, func(p *sim.Proc) {
			returned = append(returned, pl.InvokeAttempt(p, fn, "test", race))
		})
	} else {
		pl.Invoke(at, fn)
	}
	pl.Engine().Run()
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1", len(results))
	}
	if attempt {
		if len(returned) != 1 || returned[0] != results[0] {
			t.Fatalf("InvokeAttempt returned %+v, OnResult saw %+v", returned, results[0])
		}
	}
	var root *obs.Span
	for _, sp := range cfg.Tracer.Spans() {
		if sp.Name == "invoke/"+fn {
			if root != nil {
				t.Fatalf("two invoke/%s root spans recorded", fn)
			}
			root = sp
		}
	}
	if root == nil {
		t.Fatalf("no invoke/%s span recorded", fn)
	}
	return pl, results[0], delivered, root
}

// hasErr reports whether err's chain holds a T.
func hasErr[T error](err error) bool {
	var target T
	return errors.As(err, &target)
}

// TestFailedInvocationRecordsErrorSpanAndCounter pins every way an
// attempt can end short of success: the result's outcome and typed
// error, the one counter that moves, and the invoke/<fn> error span —
// where it starts and ends, its error_type and cancel_reason attributes,
// and the link back to the fault or the winning attempt.
func TestFailedInvocationRecordsErrorSpanAndCounter(t *testing.T) {
	// JS arrives at 2ms; its cold TrEnv start runs to ~135ms and its
	// execution to ~276ms, so an interrupt at 202ms lands mid-exec.
	const arrive = 2 * time.Millisecond
	crashAt := func(d time.Duration) func(*Platform, *Race) {
		return func(pl *Platform, _ *Race) {
			pl.Engine().At(d, "crash", func(*sim.Proc) { pl.Crash() })
		}
	}
	cancelAt := func(d time.Duration, winner string) func(*Platform, *Race) {
		return func(pl *Platform, race *Race) {
			pl.Engine().At(d, "settle", func(*sim.Proc) { race.Settled, race.Winner = true, winner })
		}
	}
	outage := func(pl *Platform, _ *Race) {
		inj := fault.NewInjector(pl.Engine(), pl.Seed(), fault.Scenario{
			PoolOutages: []fault.PoolOutage{{Pool: "cxl", From: 0, To: time.Hour}},
		})
		pl.AttachChaos(inj)
	}
	cases := []struct {
		name    string
		policy  Policy
		tweak   func(*Config)
		arm     func(*Platform, *Race)
		fn      string
		attempt bool // dispatch through InvokeAttempt in a race
		// ends is where the abort lands: "arrival" (before admission), or
		// the clean run's phase ("startup", "exec") whose end is the
		// checkpoint that caught the interrupt; "" checks only that the
		// span ends when the result is delivered.
		ends                  string
		outcome               Outcome
		isErr                 func(error) bool
		counter               string
		errType, cancelReason string // "" = attribute absent
		link                  string // link type; "" = no links
	}{
		{
			name: "unregistered", policy: PolicyFaasd, fn: "nope", ends: "arrival",
			outcome: OutcomeError, counter: "errors",
			isErr: func(err error) bool { return err != nil && strings.Contains(err.Error(), `"nope" not registered`) },
		},
		{
			name: "pool-outage-no-fallback", policy: PolicyTrEnvCXL, fn: "JS",
			tweak: func(cfg *Config) { cfg.DisableFallback = true }, arm: outage,
			outcome: OutcomeError, counter: "errors", errType: "pool-unavailable", link: "caused-by",
			isErr: hasErr[*mem.ErrPoolUnavailable],
		},
		{
			name: "crashed-before-arrival", policy: PolicyTrEnvCXL, fn: "JS", arm: crashAt(0), ends: "arrival",
			outcome: OutcomeCrashed, counter: "crash_aborts", errType: "node-down",
			isErr: hasErr[*ErrNodeDown],
		},
		{
			name: "crashed-mid-exec", policy: PolicyTrEnvCXL, fn: "JS", arm: crashAt(arrive + 200*time.Millisecond), ends: "exec",
			outcome: OutcomeCrashed, counter: "crash_aborts", errType: "node-down",
			isErr: hasErr[*ErrNodeDown],
		},
		{
			name: "cancelled-before-admission", policy: PolicyTrEnvCXL, fn: "JS", attempt: true,
			arm: cancelAt(0, ""), ends: "arrival",
			outcome: OutcomeCancelled, counter: "cancelled", errType: "cancelled", cancelReason: "hedge-lost",
			isErr: hasErr[*ErrCancelled],
		},
		{
			name: "cancelled-mid-exec", policy: PolicyTrEnvCXL, fn: "JS", attempt: true,
			arm: cancelAt(arrive+200*time.Millisecond, "winner-trace"), ends: "exec",
			outcome: OutcomeCancelled, counter: "cancelled", errType: "cancelled", cancelReason: "hedge-lost",
			link: "hedge-lost", isErr: hasErr[*ErrCancelled],
		},
		{
			name: "deadline-exceeded", policy: PolicyTrEnvCXL, fn: "JS",
			tweak: func(cfg *Config) { cfg.Deadline = time.Millisecond }, ends: "startup",
			outcome: OutcomeDeadline, counter: "deadline_exceeded", errType: "deadline-exceeded",
			isErr: hasErr[*ErrDeadlineExceeded],
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl, r, delivered, sp := terminalRun(t, tc.policy, tc.tweak, tc.arm, tc.fn, arrive, tc.attempt)

			if r.Outcome != tc.outcome || !tc.isErr(r.Err) {
				t.Fatalf("result = %q / %v (%T), want %q with the row's error type", r.Outcome, r.Err, r.Err, tc.outcome)
			}
			if r.TraceID == "" || sp.TraceID != r.TraceID {
				t.Fatalf("span trace %q, result trace %q: want equal and non-empty", sp.TraceID, r.TraceID)
			}
			m := pl.Metrics()
			counters := map[string]int64{
				"errors":            m.Errors.Value(),
				"crash_aborts":      m.CrashAborts.Value(),
				"cancelled":         m.Cancelled.Value(),
				"deadline_exceeded": m.DeadlineExceeded.Value(),
			}
			wantCounters := map[string]int64{"errors": 0, "crash_aborts": 0, "cancelled": 0, "deadline_exceeded": 0}
			wantCounters[tc.counter] = 1
			if !reflect.DeepEqual(counters, wantCounters) {
				t.Fatalf("counters = %v, want %v", counters, wantCounters)
			}

			if sp.Error != r.Err.Error() || len(sp.Children) != 0 {
				t.Fatalf("span error %q with %d children, want %q and none", sp.Error, len(sp.Children), r.Err.Error())
			}
			if sp.Start != arrive || sp.End != delivered {
				t.Fatalf("span [%v, %v], want [%v, %v] (arrival to delivery)", sp.Start, sp.End, arrive, delivered)
			}
			switch tc.ends {
			case "arrival":
				if sp.End != arrive {
					t.Fatalf("span ends %v, want the arrival instant %v", sp.End, arrive)
				}
			case "":
				if sp.End <= arrive {
					t.Fatalf("span ends %v, want after arrival %v", sp.End, arrive)
				}
			default:
				// The same attempt without its interrupt: the abort lands at
				// the checkpoint that closes the named phase.
				_, clean, _, cleanSp := terminalRun(t, tc.policy, nil, nil, tc.fn, arrive, tc.attempt)
				if clean.Outcome != OutcomeSuccess {
					t.Fatalf("clean twin outcome %q", clean.Outcome)
				}
				var want time.Duration
				for _, c := range cleanSp.Children {
					if c.Name == tc.ends {
						want = c.End
					}
				}
				if want == 0 || sp.End != want {
					t.Fatalf("span ends %v, want the clean run's %s end %v", sp.End, tc.ends, want)
				}
			}

			wantAttrs := []obs.Attr{{Key: "function", Value: tc.fn}, {Key: "policy", Value: string(tc.policy)}, {Key: "node", Value: "n0"}}
			if tc.errType != "" {
				wantAttrs = append(wantAttrs, obs.Attr{Key: "error_type", Value: tc.errType})
			}
			if tc.cancelReason != "" {
				wantAttrs = append(wantAttrs, obs.Attr{Key: "cancel_reason", Value: tc.cancelReason})
			}
			if !reflect.DeepEqual(sp.Attrs, wantAttrs) {
				t.Fatalf("span attrs %v, want %v", sp.Attrs, wantAttrs)
			}

			var wantLinks []obs.Link
			switch tc.link {
			case "caused-by":
				ft := obs.TraceIDFor("fault", "pool-outage", "cxl", "0")
				if r.FaultTrace != ft {
					t.Fatalf("result fault trace %q, want the outage's %q", r.FaultTrace, ft)
				}
				wantLinks = []obs.Link{{TraceID: ft, Type: "caused-by"}}
			case "hedge-lost":
				wantLinks = []obs.Link{{TraceID: "winner-trace", Type: "hedge-lost"}}
			}
			if !reflect.DeepEqual(sp.Links, wantLinks) {
				t.Fatalf("span links %+v, want %+v", sp.Links, wantLinks)
			}
		})
	}
}

// TestExemplarsResolveToRecordedSpans is the exemplar acceptance
// check: every retained exemplar's TraceID must resolve to a recorded
// invocation root whose duration falls inside that histogram bucket.
// The default config admits immediately (no queueing), so a root span
// covers exactly the post-admission window the exemplar measures.
func TestExemplarsResolveToRecordedSpans(t *testing.T) {
	cfg := DefaultConfig(PolicyTrEnvCXL)
	cfg.Seed = 13
	cfg.Tracer = obs.NewTracer(0)
	pl := New(cfg)
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	pl.RunTrace(smallTrace(13))

	checked := 0
	for _, fm := range []*FnMetrics{pl.Metrics().Fn("JS"), &pl.Metrics().All} {
		res := fm.E2EExemplars
		if res == nil {
			t.Fatal("no exemplar reservoir after a traced run")
		}
		lo := -1.0
		for _, b := range res.Snapshot() {
			for _, e := range b.Exemplars {
				if e.Value <= lo || e.Value > b.UpperBound {
					t.Fatalf("exemplar %v outside its bucket (%v, %v]", e.Value, lo, b.UpperBound)
				}
				sp := cfg.Tracer.Find(e.TraceID)
				if sp == nil {
					t.Fatalf("exemplar trace %s not recorded", e.TraceID)
				}
				if !strings.HasPrefix(sp.Name, "invoke/") {
					t.Fatalf("exemplar trace %s resolves to %s, want an invocation", e.TraceID, sp.Name)
				}
				durMs := float64(sp.Duration()) / float64(time.Millisecond)
				if math.Abs(durMs-e.Value) > 1e-9*math.Max(1, durMs) {
					t.Fatalf("exemplar value %v != span duration %vms (trace %s)", e.Value, durMs, e.TraceID)
				}
				if durMs <= lo || durMs > b.UpperBound {
					t.Fatalf("span duration %vms outside bucket (%v, %v]", durMs, lo, b.UpperBound)
				}
				checked++
			}
			lo = b.UpperBound
		}
	}
	if checked == 0 {
		t.Fatal("no exemplars retained")
	}

	// The flattened links carry the same resolvable IDs.
	links := pl.Metrics().ExemplarLinks()
	if len(links) == 0 {
		t.Fatal("no exemplar links")
	}
	for _, l := range links {
		if cfg.Tracer.Find(l.TraceID) == nil {
			t.Fatalf("link %+v does not resolve", l)
		}
	}
}

// TestAnalyzeAndFoldedByteIdenticalAcrossSameSeedRuns pins the
// analytics surfaces to deterministic bytes.
func TestAnalyzeAndFoldedByteIdenticalAcrossSameSeedRuns(t *testing.T) {
	_, a := tracedRun(t, 9)
	_, b := tracedRun(t, 9)
	repA, err := json.Marshal(obs.Analyze(a, 0))
	if err != nil {
		t.Fatal(err)
	}
	repB, err := json.Marshal(obs.Analyze(b, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repA, repB) {
		t.Fatalf("analyze reports differ across same-seed runs:\n%s\n---\n%s", repA, repB)
	}
	var fa, fb bytes.Buffer
	if err := obs.WriteFolded(&fa, a); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteFolded(&fb, b); err != nil {
		t.Fatal(err)
	}
	if fa.Len() == 0 || !bytes.Equal(fa.Bytes(), fb.Bytes()) {
		t.Fatal("folded flamegraphs differ (or are empty) across same-seed runs")
	}
}

func TestRegisterMetricsExportsPrometheus(t *testing.T) {
	pl, _ := tracedRun(t, 2)
	reg := obs.NewRegistry()
	pl.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE trenv_warm_hits_total counter",
		"# TYPE trenv_e2e_latency_ms summary",
		"# TYPE trenv_startup_latency_ms summary",
		`trenv_e2e_latency_ms{function="_all",quantile="0.5"}`,
		"trenv_invocations_total",
		"trenv_node_mem_peak_bytes",
		`trenv_pool_used_bytes{pool="cxl"}`,
		"trenv_sandboxes_repurposed_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("Prometheus export missing %q:\n%s", want, out)
		}
	}
	// Scrapes are deterministic for a fixed simulation state.
	var again bytes.Buffer
	if err := reg.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two scrapes of the same state differ")
	}
}
