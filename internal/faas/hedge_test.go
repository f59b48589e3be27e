package faas

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// hedgePlatform builds a TrEnv-CXL platform with every Table 4 function
// registered, capturing terminal outcomes.
func hedgePlatform(t *testing.T, tweak func(*Config)) (*Platform, *[]InvocationResult) {
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
	return pl, results
}

// TestCancelledAttemptReleasesAccounting: settling an attempt's race
// mid-execution aborts it at the next checkpoint with OutcomeCancelled
// and unwinds its instance accounting completely — no memory stays
// charged, unlike a successful invocation whose warm instance lingers.
func TestCancelledAttemptReleasesAccounting(t *testing.T) {
	pl, results := hedgePlatform(t, nil)
	before := pl.UsedMemory()
	race := &Race{}
	var returned InvocationResult
	pl.Engine().At(0, "dispatch/JS", func(p *sim.Proc) {
		returned = pl.InvokeAttempt(p, "JS", "test", race)
	})
	// JS executes for ~100ms; 10ms lands mid-exec, after the instance
	// was admitted and started.
	pl.Engine().At(10*time.Millisecond, "settle", func(p *sim.Proc) {
		race.Settled, race.Winner = true, "winner-trace"
	})
	pl.Engine().Run()

	if len(*results) != 1 {
		t.Fatalf("results = %d, want 1", len(*results))
	}
	r := (*results)[0]
	if r.Outcome != OutcomeCancelled {
		t.Fatalf("outcome %q, want %q", r.Outcome, OutcomeCancelled)
	}
	var ec *ErrCancelled
	if !errors.As(r.Err, &ec) || ec.Winner != "winner-trace" {
		t.Fatalf("error %v (%T), want *ErrCancelled{winner-trace}", r.Err, r.Err)
	}
	if returned != r {
		t.Fatalf("InvokeAttempt returned %+v, OnResult saw %+v", returned, r)
	}
	if pl.Metrics().Cancelled.Value() != 1 {
		t.Fatalf("cancelled counter = %d, want 1", pl.Metrics().Cancelled.Value())
	}
	if used := pl.UsedMemory(); used != before {
		t.Fatalf("used memory = %d after cancel, want %d (instance accounting must unwind)", used, before)
	}
	if pl.Active() != 0 {
		t.Fatalf("active = %d after drain", pl.Active())
	}
}

// TestPreCancelledAttemptAbortsAtAdmission: an attempt launched after
// its race settled aborts at the first checkpoint — before any instance
// exists — still delivering a terminal outcome.
func TestPreCancelledAttemptAbortsAtAdmission(t *testing.T) {
	pl, results := hedgePlatform(t, nil)
	race := &Race{Settled: true}
	pl.Engine().At(0, "dispatch/JS", func(p *sim.Proc) {
		pl.InvokeAttempt(p, "JS", "test", race)
	})
	pl.Engine().Run()

	if len(*results) != 1 || (*results)[0].Outcome != OutcomeCancelled {
		t.Fatalf("results = %+v, want one cancelled outcome", *results)
	}
	if pl.Metrics().Cancelled.Value() != 1 {
		t.Fatalf("cancelled counter = %d, want 1 (aborts are recorded, not lost)", pl.Metrics().Cancelled.Value())
	}
	if pl.UsedMemory() != 0 {
		t.Fatalf("used memory = %d, want 0 (no instance was ever built)", pl.UsedMemory())
	}
}

// TestDeadlineExceeded: an invocation that outlives Config.Deadline is
// abandoned at a checkpoint with OutcomeDeadline and a typed error; a
// generous deadline leaves the same invocation untouched.
func TestDeadlineExceeded(t *testing.T) {
	pl, results := hedgePlatform(t, func(cfg *Config) { cfg.Deadline = time.Millisecond })
	pl.Invoke(0, "JS") // JS runs ~100ms, far past the 1ms deadline
	pl.Engine().Run()

	if len(*results) != 1 {
		t.Fatalf("results = %d, want 1", len(*results))
	}
	r := (*results)[0]
	if r.Outcome != OutcomeDeadline {
		t.Fatalf("outcome %q, want %q", r.Outcome, OutcomeDeadline)
	}
	var ed *ErrDeadlineExceeded
	if !errors.As(r.Err, &ed) || ed.Function != "JS" || ed.Deadline != time.Millisecond {
		t.Fatalf("error %v (%T), want *ErrDeadlineExceeded{JS, 1ms}", r.Err, r.Err)
	}
	if pl.Metrics().DeadlineExceeded.Value() != 1 {
		t.Fatalf("deadline counter = %d, want 1", pl.Metrics().DeadlineExceeded.Value())
	}
	if pl.UsedMemory() != 0 {
		t.Fatalf("used memory = %d, want 0 (deadline abort must unwind accounting)", pl.UsedMemory())
	}
}

// TestDeadlineMet: with a deadline comfortably above the invocation's
// latency the outcome is plain success and nothing is charged to the
// deadline counter.
func TestDeadlineMet(t *testing.T) {
	pl, results := hedgePlatform(t, func(cfg *Config) { cfg.Deadline = time.Hour })
	pl.Invoke(0, "JS")
	pl.Engine().Run()

	if len(*results) != 1 || (*results)[0].Outcome != OutcomeSuccess {
		t.Fatalf("results = %+v, want one success", *results)
	}
	if pl.Metrics().DeadlineExceeded.Value() != 0 {
		t.Fatalf("deadline counter = %d, want 0", pl.Metrics().DeadlineExceeded.Value())
	}
}

// TestSettledRaceCancelsEveryAttempt: one race latches all its
// attempts. Once it settles, the attempt in flight stops at its next
// checkpoint and one launched later is cancelled too, both naming the
// winner; an attempt of a race that never settles, and one with no
// race, run to success.
func TestSettledRaceCancelsEveryAttempt(t *testing.T) {
	pl, results := hedgePlatform(t, nil)
	eng := pl.Engine()
	race, open := &Race{}, &Race{}
	var inFlight, late, unsettled InvocationResult
	eng.At(0, "in-flight", func(p *sim.Proc) { inFlight = pl.InvokeAttempt(p, "JS", "test", race) })
	eng.At(0, "unsettled", func(p *sim.Proc) { unsettled = pl.InvokeAttempt(p, "JS", "test", open) })
	pl.Invoke(0, "JS")
	eng.At(10*time.Millisecond, "settle", func(*sim.Proc) { race.Settled, race.Winner = true, "w" })
	eng.At(20*time.Millisecond, "late", func(p *sim.Proc) { late = pl.InvokeAttempt(p, "JS", "test", race) })
	eng.Run()

	for name, r := range map[string]InvocationResult{"in-flight": inFlight, "late": late} {
		var ec *ErrCancelled
		if r.Outcome != OutcomeCancelled || !errors.As(r.Err, &ec) || ec.Winner != "w" {
			t.Fatalf("%s attempt = %q / %v, want cancelled naming winner w", name, r.Outcome, r.Err)
		}
	}
	if unsettled.Outcome != OutcomeSuccess {
		t.Fatalf("attempt of an unsettled race = %q / %v, want success", unsettled.Outcome, unsettled.Err)
	}
	var successes int
	for _, r := range *results {
		if r.Outcome == OutcomeSuccess {
			successes++
		}
	}
	if len(*results) != 4 || successes != 2 || pl.Metrics().Cancelled.Value() != 2 {
		t.Fatalf("%d results, %d successes, %d cancelled; want 4/2/2", len(*results), successes, pl.Metrics().Cancelled.Value())
	}
}
