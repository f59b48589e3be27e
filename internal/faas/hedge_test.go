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

// TestCancelledAttemptReleasesAccounting: cancelling an attempt
// mid-execution aborts it at the next checkpoint with OutcomeCancelled
// and unwinds its instance accounting completely — no memory stays
// charged, unlike a successful invocation whose warm instance lingers.
func TestCancelledAttemptReleasesAccounting(t *testing.T) {
	pl, results := hedgePlatform(t, nil)
	before := pl.UsedMemory()
	tok := NewCancelToken()
	var returned InvocationResult
	pl.Engine().At(0, "dispatch/JS", func(p *sim.Proc) {
		returned = pl.InvokeAttempt(p, "JS", "test", tok)
	})
	// JS executes for ~100ms; 10ms lands mid-exec, after the instance
	// was admitted and started.
	pl.Engine().At(10*time.Millisecond, "cancel", func(p *sim.Proc) {
		tok.Cancel("hedge-lost", "winner-trace")
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
	if !errors.As(r.Err, &ec) || ec.Reason != "hedge-lost" || ec.Winner != "winner-trace" {
		t.Fatalf("error %v (%T), want *ErrCancelled{hedge-lost, winner-trace}", r.Err, r.Err)
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

// TestPreCancelledAttemptAbortsAtAdmission: a token cancelled before
// the attempt reaches the platform aborts at the first checkpoint —
// before any instance exists — still delivering a terminal outcome.
func TestPreCancelledAttemptAbortsAtAdmission(t *testing.T) {
	pl, results := hedgePlatform(t, nil)
	tok := NewCancelToken()
	tok.Cancel("hedge-lost", "")
	pl.Engine().At(0, "dispatch/JS", func(p *sim.Proc) {
		pl.InvokeAttempt(p, "JS", "test", tok)
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

// TestCancelTokenNilSafety: every CancelToken method must be nil-safe —
// the invoke path checks tokens unconditionally.
func TestCancelTokenNilSafety(t *testing.T) {
	var tok *CancelToken
	tok.Cancel("x", "y")
	if tok.Cancelled() || tok.TraceID() != "" {
		t.Fatal("nil token must read as never-cancelled and empty")
	}
	tok = NewCancelToken()
	if tok.Cancelled() {
		t.Fatal("fresh token reads cancelled")
	}
	tok.Cancel("first", "w1")
	tok.Cancel("second", "w2") // one-way latch: the first cancel sticks
	if !tok.Cancelled() {
		t.Fatal("token lost its latch")
	}
	if tok.reason != "first" || tok.winner != "w1" {
		t.Fatalf("latch overwritten: reason=%q winner=%q", tok.reason, tok.winner)
	}
}
