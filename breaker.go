package pbmg

import (
	"errors"
	"fmt"

	"pbmg/internal/admit"
)

// This file is the failure-containment half of the serving front end: typed
// errors for solves that panicked inside the kernels, and the per-family
// circuit breaker (kept by each family's admission gate, internal/admit)
// that stops feeding requests to a solver whose infrastructure is failing
// (consecutive diverged or panicked solves) until a half-open probe proves
// it healthy again. Client-caused failures — cancelled contexts,
// out-of-range sizes or accuracies — never open the breaker: they say
// nothing about the solver.

// ErrPanicked marks a solve that panicked inside the solver and was
// recovered at the Service boundary. Match with errors.Is; the concrete
// *PanicError carries the panic value and stack.
var ErrPanicked = errors.New("pbmg: solve panicked")

// ErrBreakerOpen marks a request shed because the family's circuit breaker
// is open after consecutive solver failures. Match with errors.Is; the
// concrete *BreakerOpenError carries the suggested retry delay. Breaker
// sheds also match ErrShed, so generic shed handling (HTTP 429/503 mapping,
// load-generator retry accounting) keeps working unchanged.
var ErrBreakerOpen = admit.ErrBreakerOpen

// BreakerOpenError is the error an open circuit breaker sheds with; its
// RetryAfter is how long until the breaker admits a probe.
type BreakerOpenError = admit.BreakerOpenError

// BreakerConfig tunes a service's circuit breaker: Threshold consecutive
// infrastructure failures open it (≤ 0: 5), and it sheds for Cooldown (≤ 0:
// 5 s) before admitting one half-open probe.
type BreakerConfig = admit.BreakerConfig

// PanicError is the error a recovered solve panic becomes. The daemon
// survives — the panic is converted at the Service boundary, after the
// solver's unwind has returned all pooled scratch — and the request fails
// with this error (HTTP 500 in the serve layer).
type PanicError struct {
	// Value is the original panic value.
	Value any
	// Stack is the stack of the panicking goroutine (the worker's stack when
	// the panic crossed the scheduler as a sched.TaskPanic).
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("pbmg: solve panicked: %v", e.Value) }

// Is reports ErrPanicked, so errors.Is(err, ErrPanicked) matches without
// the caller needing the concrete type.
func (e *PanicError) Is(target error) bool { return target == ErrPanicked }

// outcomeOf classifies a finished solve for its gate's counters and
// breaker: only infrastructure failures (divergence, panics) count toward
// opening the breaker; cancellations are neutral, and client errors (bad
// size, unreachable accuracy) plus successes count as healthy.
func outcomeOf(err error) admit.Outcome {
	switch {
	case err == nil:
		return admit.Completed
	case errors.Is(err, ErrCancelled):
		return admit.Cancelled
	case errors.Is(err, ErrDiverged):
		return admit.Diverged
	case errors.Is(err, ErrPanicked):
		return admit.Panicked
	default:
		return admit.Failed
	}
}
