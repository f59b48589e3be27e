package faas

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// outagePlatform builds a TrEnv-CXL platform with the CXL pool dark for
// the whole run, capturing every terminal outcome.
func outagePlatform(t *testing.T, tweak func(*Config)) (*Platform, *[]InvocationResult) {
	t.Helper()
	results := new([]InvocationResult)
	cfg := DefaultConfig(PolicyTrEnvCXL)
	cfg.Node = "n0"
	cfg.OnResult = func(r InvocationResult) { *results = append(*results, r) }
	if tweak != nil {
		tweak(&cfg)
	}
	pl := New(cfg)
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	inj := fault.NewInjector(pl.Engine(), cfg.Seed, fault.Scenario{
		PoolOutages: []fault.PoolOutage{{Pool: "cxl", From: 0, To: time.Hour}},
	})
	pl.AttachChaos(inj)
	return pl, results
}

// TestAttachChaosCrashesOnlyThisNode: AttachChaos arms the schedule and
// turns a scheduled crash of this node, and of no other, into Crash.
func TestAttachChaosCrashesOnlyThisNode(t *testing.T) {
	for _, tc := range []struct {
		node    string
		crashed bool
	}{{"n0", true}, {"n1", false}} {
		pl := New(DefaultConfig(PolicyTrEnvCXL))
		inj := fault.NewInjector(pl.Engine(), pl.Seed(), fault.Scenario{
			NodeCrashes: []fault.NodeCrash{{Node: tc.node, At: time.Second}},
		})
		pl.AttachChaos(inj)
		if !inj.Armed() {
			t.Fatal("AttachChaos did not arm the schedule")
		}
		pl.Engine().Run()
		if pl.Crashed() != tc.crashed {
			t.Fatalf("crash of %s: node n0 crashed = %v, want %v", tc.node, pl.Crashed(), tc.crashed)
		}
	}
}

// TestOutageFallsBackToLocalColdStart: with the CXL pool dark, restores
// cannot attach the remote template — every cold start must degrade to a
// local cold start recorded as a fallback, with the invocation still
// succeeding and no errors surfacing.
func TestOutageFallsBackToLocalColdStart(t *testing.T) {
	pl, results := outagePlatform(t, nil)
	pl.Invoke(0, "JS")
	pl.Invoke(time.Millisecond, "DH")
	pl.Engine().Run()

	m := pl.Metrics()
	if m.Errors.Value() != 0 {
		t.Fatalf("errors = %d, want 0 (fallback must absorb the outage)", m.Errors.Value())
	}
	if m.Fallbacks.Value() != 2 {
		t.Fatalf("fallbacks = %d, want 2", m.Fallbacks.Value())
	}
	if len(*results) != 2 {
		t.Fatalf("results = %d, want 2", len(*results))
	}
	for _, r := range *results {
		if r.Outcome != OutcomeFallback {
			t.Fatalf("outcome %q, want %q", r.Outcome, OutcomeFallback)
		}
		if r.FaultTrace == "" {
			t.Fatalf("fallback result for %s carries no fault trace to link to the outage", r.Function)
		}
		if r.Err != nil {
			t.Fatalf("fallback result carries error %v", r.Err)
		}
	}
}

// TestOutageWithFallbackDisabledSurfacesTypedError: the same outage with
// DisableFallback set must surface *mem.ErrPoolUnavailable as a typed
// error outcome instead of silently degrading.
func TestOutageWithFallbackDisabledSurfacesTypedError(t *testing.T) {
	pl, results := outagePlatform(t, func(cfg *Config) { cfg.DisableFallback = true })
	pl.Invoke(0, "JS")
	pl.Engine().Run()

	m := pl.Metrics()
	if m.Errors.Value() != 1 || m.Fallbacks.Value() != 0 {
		t.Fatalf("errors=%d fallbacks=%d, want 1/0", m.Errors.Value(), m.Fallbacks.Value())
	}
	if len(*results) != 1 {
		t.Fatalf("results = %d, want 1", len(*results))
	}
	r := (*results)[0]
	if r.Outcome != OutcomeError {
		t.Fatalf("outcome %q, want %q", r.Outcome, OutcomeError)
	}
	var pu *mem.ErrPoolUnavailable
	if !errors.As(r.Err, &pu) {
		t.Fatalf("error %v (%T), want *mem.ErrPoolUnavailable", r.Err, r.Err)
	}
	if pu.Pool != "cxl" || pu.FaultTrace == "" {
		t.Fatalf("typed error = %+v, want traced cxl outage", pu)
	}
}

// TestCrashAbortsDeliverOutcome: crashing a platform mid-flight delivers
// OutcomeCrashed for every in-flight invocation — nothing completes
// silently on a dead node and nothing wedges the engine.
func TestCrashAbortsDeliverOutcome(t *testing.T) {
	var results []InvocationResult
	cfg := DefaultConfig(PolicyTrEnvCXL)
	cfg.Node = "n0"
	cfg.OnResult = func(r InvocationResult) { results = append(results, r) }
	pl := New(cfg)
	for _, p := range workload.Table4() {
		if err := pl.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	const n = 4
	for i := 0; i < n; i++ {
		pl.Invoke(time.Duration(i)*100*time.Microsecond, "JS")
	}
	pl.Engine().At(time.Millisecond, "crash", func(p *sim.Proc) { pl.Crash() })
	pl.Engine().Run()

	if len(results) != n {
		t.Fatalf("results = %d, want %d (no invocation may vanish on crash)", len(results), n)
	}
	crashed := 0
	for _, r := range results {
		if r.Outcome == OutcomeCrashed {
			crashed++
			var nd *ErrNodeDown
			if !errors.As(r.Err, &nd) || nd.Node != "n0" {
				t.Fatalf("crash outcome error = %v, want *ErrNodeDown{n0}", r.Err)
			}
		}
	}
	if crashed == 0 {
		t.Fatal("crash landed with nothing in flight; burst timing is off")
	}
	if got := pl.Metrics().CrashAborts.Value(); got != int64(crashed) {
		t.Fatalf("CrashAborts = %d, want %d", got, crashed)
	}
	// A dead platform refuses new work with a crash outcome too.
	pl.Invoke(pl.Engine().Now(), "JS")
	pl.Engine().Run()
	if last := results[len(results)-1]; last.Outcome != OutcomeCrashed {
		t.Fatalf("post-crash invoke outcome %q, want %q", last.Outcome, OutcomeCrashed)
	}
}
