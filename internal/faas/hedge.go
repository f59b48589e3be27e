package faas

// Cooperative cancellation and per-invocation deadlines. The hedging
// layer in internal/cluster races clone attempts of one invocation
// across nodes and cancels the losers; the platform aborts a cancelled
// attempt at the same checkpoints a node crash uses (see
// Platform.checkpoint), unwinding its instance and page accounting with
// no simulated cost — nothing useful runs on a loser once the race has
// settled, so teardown models as free, exactly like crash cleanup.

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

const (
	// OutcomeCancelled was cooperatively cancelled by its dispatcher —
	// it lost a hedge race. Its instance accounting is unwound like a
	// crash abort's; another attempt of the same invocation won.
	OutcomeCancelled Outcome = "cancelled"
	// OutcomeDeadline exceeded its per-invocation deadline
	// (Config.Deadline) and was abandoned at a checkpoint.
	OutcomeDeadline Outcome = "deadline-exceeded"
	// OutcomeRedispatchExhausted is synthesized by clusters when an
	// invocation burned through its crash re-dispatch budget; no
	// platform ever produces it directly.
	OutcomeRedispatchExhausted Outcome = "redispatch-exhausted"
)

// ErrCancelled reports an attempt cancelled by its dispatcher after a
// sibling attempt won the hedge race.
type ErrCancelled struct {
	Reason string // why the dispatcher cancelled ("hedge-lost")
	Winner string // trace ID of the attempt that won ("" when none)
}

func (e *ErrCancelled) Error() string {
	if e.Winner == "" {
		return fmt.Sprintf("faas: attempt cancelled (%s)", e.Reason)
	}
	return fmt.Sprintf("faas: attempt cancelled (%s, winner %s)", e.Reason, e.Winner)
}

// ErrDeadlineExceeded reports an invocation that blew through its
// per-invocation deadline.
type ErrDeadlineExceeded struct {
	Function string
	Deadline time.Duration
}

func (e *ErrDeadlineExceeded) Error() string {
	return fmt.Sprintf("faas: %s exceeded its %s deadline", e.Function, e.Deadline)
}

// CancelToken lets a dispatcher cancel one in-flight attempt
// cooperatively: the attempt observes the token at its next checkpoint
// and terminates with OutcomeCancelled. Cancellation is a one-way
// latch — cancelling an already-terminal attempt is harmless.
type CancelToken struct {
	cancelled bool
	reason    string
	winner    string
	traceID   string
}

// NewCancelToken returns an armed token.
func NewCancelToken() *CancelToken { return &CancelToken{} }

// Cancel latches the token. reason explains why; winner is the trace ID
// of the attempt that made this one redundant ("" when none).
func (t *CancelToken) Cancel(reason, winner string) {
	if t == nil || t.cancelled {
		return
	}
	t.cancelled = true
	t.reason = reason
	t.winner = winner
}

// Cancelled reports whether Cancel has been called. Nil-safe, so the
// invoke path checks it unconditionally.
func (t *CancelToken) Cancelled() bool { return t != nil && t.cancelled }

// TraceID returns the attempt's trace ID, stamped when the attempt
// entered a platform ("" before that).
func (t *CancelToken) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

func (t *CancelToken) setTrace(id string) {
	if t != nil {
		t.traceID = id
	}
}

// SetDeadline sets (or clears, with 0) the per-invocation deadline for
// every invocation dispatched after the call — clusters use it to push
// a hedge policy's deadline onto each node.
func (pl *Platform) SetDeadline(d time.Duration) { pl.cfg.Deadline = d }

// InvokeAttempt runs one attempt of a possibly hedged invocation inside
// the calling simulated process, after the cluster dispatcher picked
// this node at arrival time. The dispatcher's name is stamped on the
// attempt's root span (a zero-width "pick" step plus a dispatcher=
// attribute), so a cluster trace shows where placement happened before
// the node-local phases. tok lets the dispatcher cancel the attempt
// cooperatively. It returns the attempt's terminal InvocationResult
// after Config.OnResult has seen it, so the dispatcher settles the race
// it launched the attempt for; an attempt unwound by Engine.Shutdown
// never returns.
func (pl *Platform) InvokeAttempt(p *sim.Proc, function, dispatcher string, tok *CancelToken) InvocationResult {
	return pl.invoke(p, function, dispatcher, tok)
}
