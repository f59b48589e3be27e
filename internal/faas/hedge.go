package faas

// Cooperative cancellation and per-invocation deadlines. The hedging
// layer in internal/cluster races attempts of one invocation across
// nodes and settles one Race for it; the platform aborts every losing
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

// ErrCancelled reports an attempt that lost its race: a sibling attempt
// of the same invocation won the hedge ("hedge-lost").
type ErrCancelled struct {
	Winner string // trace ID of the attempt that won ("" when none)
}

func (e *ErrCancelled) Error() string {
	if e.Winner == "" {
		return "faas: attempt cancelled (hedge-lost)"
	}
	return "faas: attempt cancelled (hedge-lost, winner " + e.Winner + ")"
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

// Race is one invocation's race across every attempt its dispatcher
// launches. The dispatcher settles it once, naming the winner; from then
// on every attempt of the race still in flight, or launched later, ends
// with OutcomeCancelled at its next checkpoint.
type Race struct {
	Settled bool   // a result has settled the race
	Winner  string // trace ID of the winning attempt ("" when none)
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
// the node-local phases. race is the invocation's race: once it
// settles, the attempt stops at its next checkpoint. It returns the
// attempt's terminal InvocationResult after Config.OnResult has seen
// it, so the dispatcher settles the race with it; an attempt unwound by
// Engine.Shutdown never returns.
func (pl *Platform) InvokeAttempt(p *sim.Proc, function, dispatcher string, race *Race) InvocationResult {
	return pl.invoke(p, function, dispatcher, race)
}
