package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one operation's outcome.
type sample struct {
	fam   int
	class int // the cell's class, see cell

	sent      time.Time     // when the call or request went out
	done      time.Time     // when the answer was in hand
	lat       time.Duration // open loop: due → done; closed loop: sent → done
	lag       time.Duration // open loop: sent − due
	solve     time.Duration // time inside the solver
	target    float64       // requested accuracy
	achieved  float64       // graded accuracy; 0 when no answer
	errored   bool
	shed      bool
	rtt       time.Duration // HTTP: request written → body read
	decode    time.Duration // HTTP: client-side response decode
	reqBytes  int
	respBytes int
}

func (s sample) answered() bool { return !s.errored && !s.shed }

// ratio is the achieved over the requested accuracy: below 1 the answer
// missed its target.
func (s sample) ratio() float64 { return s.achieved / s.target }

// opFunc runs operation i of the endless round sequence. root is the
// operation's root span (0 when untraced).
type opFunc func(ctx context.Context, i int64, t *tracer, root int) sample

// phase is one loop's samples and its wall time.
type phase struct {
	samples []sample
	wall    time.Duration
}

// runOp wraps one operation in its root span and finishes its timings.
func runOp(ctx context.Context, op opFunc, i int64, due time.Time, t *tracer) sample {
	root := t.begin("op", 0, i)
	s := op(ctx, i, t, root)
	t.end(root)
	if due.IsZero() {
		s.lat = s.done.Sub(s.sent)
	} else {
		s.lat = s.done.Sub(due)
		s.lag = s.sent.Sub(due)
	}
	return s
}

// roundUp rounds n up to a whole number of rounds of size r.
func roundUp(n, r int64) int64 { return (n + r - 1) / r * r }

// opsFor returns the whole rounds that take about dur at rate operations
// per second.
func opsFor(rate float64, dur time.Duration, roundLen int) int64 {
	return roundUp(max(1, int64(math.Ceil(rate*dur.Seconds()))), int64(roundLen))
}

// openLoop sends total operations on a fixed schedule of rate per second
// from callers goroutines. An operation due while every caller is busy
// waits, and its latency counts from when it was due. Callers take
// operations in order, so the caller sending one was either idle at its
// due time or the first of them to free up.
func openLoop(ctx context.Context, op opFunc, total int64, rate float64, callers int, t *tracer) phase {
	out := make([]sample, total)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				idle := time.Now().Before(due)
				if idle {
					time.Sleep(time.Until(due))
				}
				s := runOp(ctx, op, i, due, t)
				if idle {
					// The caller was free before the operation was due, so
					// any lateness is the sleep timer's, not a stall of the
					// system: latency counts from the send. An operation due
					// while every caller was busy counts from its due time.
					s.lat = s.done.Sub(s.sent)
				}
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return phase{samples: out, wall: time.Since(start)}
}

// closedLoop runs callers goroutines that each send the next of total
// operations as soon as their previous one is answered.
func closedLoop(ctx context.Context, op opFunc, total int64, callers int, t *tracer) phase {
	out := make([]sample, total)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				out[i] = runOp(ctx, op, i, time.Time{}, t)
			}
		}()
	}
	wg.Wait()
	return phase{samples: out, wall: time.Since(start)}
}
