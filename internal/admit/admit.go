// Package admit is the one admission path of pbmg's serving stack. Tuned
// tables are fixed once served (the paper's tune-once/serve-many model,
// §3.2.1), so the only run-time decision is which request runs and when; a
// Gate makes it for one served family. pbmg.Service admits single solves,
// batches and HTTP requests through its Gate the same way: Join the queue,
// Acquire a slot per solve, Release it with the solve's Outcome, Leave.
package admit

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrShed marks a request turned away at admission, as opposed to a solve
// that ran and failed.
var ErrShed = errors.New("pbmg: request shed at admission")

// ErrQueueFull sheds a request because its family's queue is full.
var ErrQueueFull = fmt.Errorf("%w: family admission queue is full", ErrShed)

// ErrBreakerOpen marks a request shed by an open circuit breaker.
var ErrBreakerOpen = errors.New("pbmg: circuit breaker open")

// BreakerOpenError is the error an open circuit breaker sheds with.
type BreakerOpenError struct {
	RetryAfter time.Duration // until the breaker admits a probe
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("pbmg: circuit breaker open, retry in %v", e.RetryAfter)
}

// Is reports ErrBreakerOpen.
func (e *BreakerOpenError) Is(target error) bool { return target == ErrBreakerOpen }

// Breaker defaults: open after 5 consecutive infrastructure failures, probe
// again after 5 seconds.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 5 * time.Second
)

// BreakerConfig tunes a family's circuit breaker. The zero value selects
// the defaults.
type BreakerConfig struct {
	// Threshold is the consecutive infrastructure-failure count that opens
	// the breaker (≤ 0: DefaultBreakerThreshold).
	Threshold int
	// Cooldown is how long an open breaker sheds before admitting a single
	// half-open probe (≤ 0: DefaultBreakerCooldown).
	Cooldown time.Duration
}

// defaultQueueFactor sizes a quota'd family's queue when none is set:
// quota×4 keeps the wait proportional to the family's own service time.
const defaultQueueFactor = 4

// Outcome is how an admitted solve ended. Only Diverged and Panicked —
// the solver's own failures — push the breaker toward opening; Failed (a
// client error: bad size, unreachable accuracy) says nothing about the
// solver, and Cancelled is no evidence either way.
type Outcome int

const (
	Completed Outcome = iota
	Failed
	Cancelled
	Diverged
	Panicked
	numOutcomes
)

// Gate is one family's admission control: its circuit breaker, its bounded
// queue, one source of solve slots — its own quota slots when it has a
// quota, the registry's shared cap otherwise, so a quota'd family never
// waits on traffic outside its quota — and its request counters. A request
// holds a queue place from Join to Leave and a slot while it solves; a
// batch holds one place and a slot per running problem. Safe for
// concurrent use.
type Gate struct {
	quota, queueDepth int
	slots             chan struct{} // the family's quota slots, or the shared cap
	tickets           chan struct{} // quota+queueDepth places; nil: no queue bound
	breaker           breaker

	admitted, waiting, inFlight              atomic.Int64
	shedQueueFull, shedDeadline, shedBreaker atomic.Int64
	ended                                    [numOutcomes]atomic.Int64
}

// New returns a family's gate. With quota > 0 the family runs at most
// quota solves on its own slots and queues at most queueDepth more
// requests (≤ 0: 4×quota); otherwise it draws on shared, the cap shared by
// every family without a quota, and its queue is unbounded.
func New(shared chan struct{}, quota, queueDepth int, bc BreakerConfig) *Gate {
	g := &Gate{slots: shared, breaker: breaker{cfg: bc.withDefaults()}}
	if quota > 0 {
		if queueDepth <= 0 {
			queueDepth = defaultQueueFactor * quota
		}
		g.quota, g.queueDepth = quota, queueDepth
		g.slots = make(chan struct{}, quota)
		g.tickets = make(chan struct{}, quota+queueDepth)
	}
	return g
}

// Quota is the family's concurrent-solve quota (0: it shares the cap).
func (g *Gate) Quota() int { return g.quota }

// QueueDepth is how many requests may wait beyond the quota (0: no bound).
func (g *Gate) QueueDepth() int { return g.queueDepth }

// Cap is how many of the family's solves can run at once: its quota, or
// the shared cap.
func (g *Gate) Cap() int { return cap(g.slots) }

// Join takes a place in the family's queue for one request or one whole
// batch, or sheds with ErrQueueFull when the queue is full. Every nil
// return must be paired with Leave.
func (g *Gate) Join() error {
	if g.tickets == nil {
		return nil
	}
	select {
	case g.tickets <- struct{}{}:
		return nil
	default:
		g.shedQueueFull.Add(1)
		return ErrQueueFull
	}
}

// Leave gives back the place Join took.
func (g *Gate) Leave() {
	if g.tickets != nil {
		<-g.tickets
	}
}

// Pass is one admitted solve's hold on a slot.
type Pass struct {
	g     *Gate
	probe bool
}

// Acquire admits one solve of a request that holds a queue place: it
// waits for a slot until ctx ends. An already-ended context or an open
// breaker sheds at once. Every shed wraps ErrShed (breaker sheds also
// ErrBreakerOpen); on success the caller solves and then calls Release.
func (g *Gate) Acquire(ctx context.Context) (Pass, error) {
	// An expired context sheds without racing for a slot: a deadline that
	// passed upstream must not win a slot just because one is free.
	if err := ctx.Err(); err != nil {
		g.shedDeadline.Add(1)
		return Pass{}, fmt.Errorf("%w: %v", ErrShed, err)
	}
	// The breaker sits before the slot wait so an open breaker sheds
	// instantly instead of queueing doomed requests.
	probe, err := g.breaker.allow()
	if err != nil {
		g.shedBreaker.Add(1)
		return Pass{}, fmt.Errorf("%w: %w", ErrShed, err)
	}
	g.waiting.Add(1)
	select {
	case g.slots <- struct{}{}:
		g.waiting.Add(-1)
	case <-ctx.Done():
		g.waiting.Add(-1)
		g.shedDeadline.Add(1)
		// Never ran: no evidence for the breaker (and a probe's turn
		// passes to the next request).
		g.breaker.record(probe, Cancelled)
		return Pass{}, fmt.Errorf("%w: %v", ErrShed, ctx.Err())
	}
	g.admitted.Add(1)
	g.inFlight.Add(1)
	return Pass{g: g, probe: probe}, nil
}

// Release counts how the solve ended, feeds it to the breaker, and frees
// the slot.
func (p Pass) Release(o Outcome) {
	p.g.ended[o].Add(1)
	p.g.breaker.record(p.probe, o)
	p.g.inFlight.Add(-1)
	<-p.g.slots
}

// Hold takes one slot outside admission — no counter moves — and returns
// its release. It pins the gate at an exact occupancy for tests that must
// not depend on how long a solve takes.
func (g *Gate) Hold() (release func()) {
	g.slots <- struct{}{}
	return func() { <-g.slots }
}

// Metrics is a point-in-time snapshot of a family's request counters.
// Admitted counts solves that got a slot; of those, Completed met their
// target and Failed did not, split into Cancelled (aborted by their
// context mid-solve), Diverged (blew up numerically, after any float64
// escalation retry), Panicked (a recovered panic) and client errors. Shed
// counts requests turned away at admission, which never ran: ShedQueueFull
// found the queue full, BreakerShed the breaker open, and the rest had
// their context end first. Waiting is the gauge of requests blocked
// waiting for a slot, InFlight of solves running. BreakerOpens counts the
// breaker's closed→open transitions. Each counter is exact, but they are
// read one by one, so a snapshot taken under traffic is approximate.
type Metrics struct {
	Admitted  int64
	Completed int64
	Failed    int64
	Shed      int64
	Waiting   int64
	InFlight  int64

	Cancelled     int64
	Diverged      int64
	Panicked      int64
	ShedQueueFull int64
	BreakerShed   int64
	BreakerOpens  int64
}

// Add accumulates m into the receiver (for aggregating per-family metrics).
func (sm *Metrics) Add(m Metrics) {
	sm.Admitted += m.Admitted
	sm.Completed += m.Completed
	sm.Failed += m.Failed
	sm.Shed += m.Shed
	sm.Waiting += m.Waiting
	sm.InFlight += m.InFlight
	sm.Cancelled += m.Cancelled
	sm.Diverged += m.Diverged
	sm.Panicked += m.Panicked
	sm.ShedQueueFull += m.ShedQueueFull
	sm.BreakerShed += m.BreakerShed
	sm.BreakerOpens += m.BreakerOpens
}

// Metrics snapshots the gate's counters.
func (g *Gate) Metrics() Metrics {
	m := Metrics{
		Admitted:      g.admitted.Load(),
		Completed:     g.ended[Completed].Load(),
		Waiting:       g.waiting.Load(),
		InFlight:      g.inFlight.Load(),
		Cancelled:     g.ended[Cancelled].Load(),
		Diverged:      g.ended[Diverged].Load(),
		Panicked:      g.ended[Panicked].Load(),
		ShedQueueFull: g.shedQueueFull.Load(),
		BreakerShed:   g.shedBreaker.Load(),
		BreakerOpens:  g.breaker.opens.Load(),
	}
	m.Failed = g.ended[Failed].Load() + m.Cancelled + m.Diverged + m.Panicked
	m.Shed = m.ShedQueueFull + g.shedDeadline.Load() + m.BreakerShed
	return m
}

// BreakerState reports the breaker's state: "closed", "open", or
// "half-open".
func (g *Gate) BreakerState() string { return g.breaker.stateName() }

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = DefaultBreakerThreshold
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultBreakerCooldown
	}
	return c
}

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a consecutive-failure circuit breaker: closed (normal
// admission, counting consecutive infrastructure failures), open (shedding
// until the cooldown elapses), half-open (exactly one probe in flight;
// success closes, failure re-opens). All transitions happen under mu in
// allow/record; opens is an atomic so Metrics can read it without the lock.
type breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       int
	consecutive int
	openedAt    time.Time
	probing     bool

	opens atomic.Int64
}

// allow decides whether a request may proceed. probe is true when this
// request is the half-open probe (its outcome decides the breaker's fate);
// a non-nil err is the shed to return, wrapping ErrBreakerOpen.
func (b *breaker) allow() (probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return false, nil
	case breakerOpen:
		wait := b.cfg.Cooldown - time.Since(b.openedAt)
		if wait > 0 {
			return false, &BreakerOpenError{RetryAfter: wait}
		}
		// Cooldown elapsed: this request becomes the half-open probe.
		b.state = breakerHalfOpen
		b.probing = true
		return true, nil
	default: // breakerHalfOpen
		if b.probing {
			// One probe at a time; everyone else keeps shedding until it
			// reports back.
			return false, &BreakerOpenError{RetryAfter: b.cfg.Cooldown}
		}
		b.probing = true
		return true, nil
	}
}

// record feeds a finished request's outcome back. probe is the value allow
// returned for it.
func (b *breaker) record(probe bool, o Outcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	switch o {
	case Completed, Failed:
		b.consecutive = 0
		if b.state == breakerHalfOpen && probe {
			b.state = breakerClosed
		}
	case Diverged, Panicked:
		b.consecutive++
		if b.state == breakerHalfOpen || (b.state == breakerClosed && b.consecutive >= b.cfg.Threshold) {
			b.state = breakerOpen
			b.openedAt = time.Now()
			b.opens.Add(1)
		}
	case Cancelled:
		// No evidence. A half-open probe that was cancelled (or never
		// ran) releases the probe slot (above) so the next request probes
		// instead.
	}
}

// stateName reports the state for metrics and readiness. An open breaker
// whose cooldown has elapsed reports half-open — the next request will
// probe — so readiness stops flapping on an idle family that merely has
// nobody retrying yet.
func (b *breaker) stateName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if time.Since(b.openedAt) >= b.cfg.Cooldown {
			return "half-open"
		}
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
