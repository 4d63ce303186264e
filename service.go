package pbmg

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pbmg/internal/admit"
	"pbmg/internal/sched"
)

// This file is the serving front end over a tuned Solver: SolveBatch fans a
// fixed set of independent problems across the shared worker pool, and
// Service admits a stream of solve requests through its family's admission
// gate (internal/admit). Both lean on the tune-once/serve-many model of the
// paper (§3.2.1): the expensive tuned configuration and its caches are
// built once and then amortized over every request. Registry (registry.go)
// composes several Services — one per tuned operator family — whose gates
// draw on per-family quotas or one shared cap.

// BatchProblem pairs one solve's state grid (Dirichlet boundary and initial
// guess, solved in place) with its right-hand side.
type BatchProblem struct {
	X, B *Grid
}

// SolveBatch solves every problem with the tuned FULL-MULTIGRID algorithm
// for the smallest tuned target ≥ accuracy, running the solves concurrently
// on the shared solver through the solver's default service (see
// DefaultService), whose admission limit bounds both the in-flight solves
// and the goroutines fanned out, so arbitrarily large batches hold only a
// bounded set of scratch workspaces. Each problem's X is
// solved in place. The returned error joins the failures of all problems
// that were rejected (others still complete); a nil return means every
// problem met its target. Completions are visible in the default service's
// metrics.
func (s *Solver) SolveBatch(problems []BatchProblem, accuracy float64) error {
	return s.DefaultService().SolveBatch(problems, accuracy)
}

// Service wraps a Solver with admission control for serving: every solve
// passes the family's admission gate (internal/admit), which bounds how
// many run at once — MaxInFlight for a standalone service; for a
// registered one, the family's quota or else the registry's shared cap —
// and sheds instead of waiting when the family's bounded queue is full, its
// breaker is open, or the request's context ends. A Service is safe for
// concurrent use and is cheap to create; all services of one Solver share
// its tuned tables and caches.
type Service struct {
	s    *Solver
	gate *admit.Gate
}

// ErrShed marks a request that was turned away at admission — its family's
// queue was full, its breaker open, or its context was cancelled or its
// deadline expired before a slot freed — as opposed to a solve that ran and
// failed. Serving layers match it with errors.Is to answer with a retryable
// status (429/503) instead of a hard failure.
var ErrShed = admit.ErrShed

// ErrQueueFull marks a request shed because its family's bounded queue was
// full (HTTP 429). It wraps ErrShed.
var ErrQueueFull = admit.ErrQueueFull

// ServiceMetrics is a point-in-time snapshot of one service's request
// counters, kept by its admission gate: solves admitted, completed and
// failed (by class), requests shed at admission (never run, so shedding
// and broken requests stay distinguishable), and the waiting/in-flight
// gauges.
type ServiceMetrics = admit.Metrics

// NewService returns a serving front end admitting at most maxInFlight
// concurrent solves (≤ 0 selects 2×GOMAXPROCS), with a default-configured
// circuit breaker and no queue bound.
func (s *Solver) NewService(maxInFlight int) *Service {
	if maxInFlight <= 0 {
		maxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	return newService(s, make(chan struct{}, maxInFlight), BreakerConfig{})
}

// newService wraps a solver around a gate without a quota, drawing on the
// slots in sem (which Registry shares across its families without one).
func newService(s *Solver, sem chan struct{}, bc BreakerConfig) *Service {
	return &Service{s: s, gate: admit.New(sem, 0, 0, bc)}
}

// DefaultService returns the solver's lazily-created default service,
// shared by every SolveBatch call on the solver so batch completions
// accumulate in one place instead of vanishing with a throwaway service.
// The admission limit is 2×GOMAXPROCS for a standalone solver; registering
// the solver in a Registry makes the registry service the default, so
// batch solves pass the family's registry admission.
// Safe to call concurrently with Registry.Register: the default service is
// metadata, guarded by its own mutex, so Register's no-solves-in-flight
// contract covers only solves.
func (s *Solver) DefaultService() *Service {
	s.defMu.Lock()
	defer s.defMu.Unlock()
	if s.defSvc == nil {
		s.defSvc = s.NewService(0)
	}
	return s.defSvc
}

// setDefaultService replaces the solver's default service (Registry wires
// the registry service in at registration, superseding any private one).
func (s *Solver) setDefaultService(svc *Service) {
	s.defMu.Lock()
	defer s.defMu.Unlock()
	s.defSvc = svc
}

// MaxInFlight returns how many of the service's solves can run at once:
// its family's quota, or else the (registry-wide) shared cap.
func (sv *Service) MaxInFlight() int { return sv.gate.Cap() }

// Admission returns the family's admission gate: its quota, queue bound,
// breaker and counters.
func (sv *Service) Admission() *admit.Gate { return sv.gate }

// Solver returns the tuned solver behind the service.
func (sv *Service) Solver() *Solver { return sv.s }

// Family returns the operator family the underlying solver serves; requests
// must be drawn from the same family (see Solver.NewFamilyProblem).
func (sv *Service) Family() Family { return sv.s.Family() }

// Epsilon returns the served family's parameter (ε or σ; 1 for Poisson).
func (sv *Service) Epsilon() float64 { return sv.s.Epsilon() }

// Completed returns the number of solves finished successfully so far.
func (sv *Service) Completed() int64 { return sv.gate.Metrics().Completed }

// Metrics returns a snapshot of the service's request counters. The fields
// are read individually from concurrently-updated counters, so a snapshot
// taken while solves are in flight is approximate (but each counter is
// exact).
func (sv *Service) Metrics() ServiceMetrics { return sv.gate.Metrics() }

// BreakerState reports the service's circuit-breaker state: "closed",
// "open", or "half-open".
func (sv *Service) BreakerState() string { return sv.gate.BreakerState() }

// Solve admits one tuned FULL-MULTIGRID solve, blocking while MaxInFlight
// solves are already running. See Solver.Solve.
func (sv *Service) Solve(x, b *Grid, accuracy float64) error {
	return sv.admit(context.Background(), func() error { return sv.s.Solve(x, b, accuracy) })
}

// SolveContext admits one tuned FULL-MULTIGRID solve bounded by ctx at
// every stage: if the family's queue is full, or the context is cancelled
// or its deadline expires before a slot frees, the request is shed (an
// ErrShed error, counted in Shed) instead of waiting indefinitely behind
// MaxInFlight running solves; once admitted, the solve itself polls ctx
// between cycles and levels and aborts with an error wrapping ErrCancelled
// (counted in Cancelled) within roughly one cycle's latency.
func (sv *Service) SolveContext(ctx context.Context, x, b *Grid, accuracy float64) error {
	_, err := sv.SolveTimed(ctx, x, b, accuracy)
	return err
}

// SolveTimed is SolveContext that also reports how long the solve ran once
// admitted: the wait for admission is excluded.
func (sv *Service) SolveTimed(ctx context.Context, x, b *Grid, accuracy float64) (time.Duration, error) {
	var elapsed time.Duration
	err := sv.admit(ctx, func() error {
		t0 := time.Now()
		err := sv.s.SolveContext(ctx, x, b, accuracy)
		elapsed = time.Since(t0)
		return err
	})
	return elapsed, err
}

// SolveV admits one tuned MULTIGRID-V solve. See Solver.SolveV.
func (sv *Service) SolveV(x, b *Grid, accuracy float64) error {
	return sv.admit(context.Background(), func() error { return sv.s.SolveV(x, b, accuracy) })
}

// admit passes one request through the family's gate — a queue place for
// the request, then a slot for its solve — and runs it.
func (sv *Service) admit(ctx context.Context, solve func() error) error {
	if err := sv.gate.Join(); err != nil {
		return err
	}
	defer sv.gate.Leave()
	return sv.run(ctx, solve)
}

// run acquires a slot for one solve of a request that holds a queue place,
// runs it, and reports how it ended.
func (sv *Service) run(ctx context.Context, solve func() error) error {
	pass, err := sv.gate.Acquire(ctx)
	if err != nil {
		return err
	}
	err = sv.protect(solve)
	pass.Release(outcomeOf(err))
	return err
}

// protect runs one solve with panic containment: a panic anywhere inside
// the solver — a kernel bug, an injected fault, a pool-task panic re-raised
// at its join — is recovered here, at the Service boundary, into a
// *PanicError, so one poisoned request costs one failed response instead of
// the process. By the time the panic reaches this frame the solver's
// unwind has already returned every pooled scratch buffer (the workspace's
// checkout/release balancing is deferred), so the next request starts
// clean.
func (sv *Service) protect(solve func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if tp, ok := r.(*sched.TaskPanic); ok {
				// A pool-worker panic: surface the task's own value and the
				// worker's stack, not this recovery goroutine's.
				err = &PanicError{Value: tp.Value, Stack: tp.Stack}
				return
			}
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return solve()
}

// SolveBatch solves every problem concurrently through this service's
// admission gate. See SolveBatchContext and Solver.SolveBatch.
func (sv *Service) SolveBatch(problems []BatchProblem, accuracy float64) error {
	errs, err := sv.SolveBatchContext(context.Background(), problems, accuracy)
	if err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("pbmg: batch problem %d: %w", i, err)
		}
	}
	return errors.Join(errs...)
}

// SolveBatchContext solves every problem concurrently, bounded by ctx. The
// batch holds one place in the family's queue — a full queue sheds it
// whole with ErrQueueFull, before any problem runs — and each problem then
// waits for its own solve slot. The fan-out is a worker loop sized by
// MaxInFlight, not a goroutine per problem: a million-problem batch runs
// on min(MaxInFlight, len(problems)) goroutines pulling the next index,
// rather than parking a million goroutines in admission. errs[i] is
// problem i's error, nil when it met its target.
func (sv *Service) SolveBatchContext(ctx context.Context, problems []BatchProblem, accuracy float64) (errs []error, err error) {
	if len(problems) == 0 {
		return nil, nil
	}
	if err := sv.gate.Join(); err != nil {
		return nil, err
	}
	defer sv.gate.Leave()
	errs = make([]error, len(problems))
	workers := min(sv.MaxInFlight(), len(problems))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(problems) {
					return
				}
				p := problems[i]
				errs[i] = sv.run(ctx, func() error { return sv.s.SolveContext(ctx, p.X, p.B, accuracy) })
			}
		}()
	}
	wg.Wait()
	return errs, nil
}
