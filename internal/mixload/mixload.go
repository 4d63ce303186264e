// Package mixload drives a mixed multi-family workload against a set of
// pbmg services: each client pre-draws a small rotation of problems per
// family (so request setup stays off the measured path), then issues
// requests round-robin across the families from fresh states, recording
// per-family latencies. It is the shared client loop behind mgbench's
// serve experiment and — in HTTP mode — the mgserved front end's benchmark
// (mgbench -exp http), so the workload shape cannot drift between the
// in-process and HTTP benchmarks.
//
// HTTP mode (Options.URL set) issues the same workload over the serve
// package's wire protocol instead of in-process calls: request bodies are
// pre-marshaled per rotation problem, responses with a shed status (429
// queue full, 503 drain/deadline) are counted in Result.Shed rather than
// failing the run, and the client fan-out scales to thousands of
// connections.
package mixload

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pbmg"
	"pbmg/serve"
)

// Options configures Run.
type Options struct {
	// Services are the served families, in report order (in-process mode).
	Services []*pbmg.Service
	// ReqN is the request grid side per family (parallel to Services, or
	// to Keys in HTTP mode).
	ReqN []int
	// URL switches to HTTP mode: requests are POSTed to URL+"/v1/solve"
	// instead of calling Services in-process.
	URL string
	// Keys identifies the served families in HTTP mode (parallel to ReqN).
	Keys []pbmg.ServeKey
	// Client optionally overrides the HTTP client; when nil, Run builds
	// one with idle connections sized to Clients.
	Client *http.Client
	// Clients is the number of concurrent client goroutines (HTTP mode:
	// concurrent connections).
	Clients int
	// Requests is the total request count, split across clients; ≤ 0 runs
	// every client until Deadline instead.
	Requests int
	// Deadline stops duration-mode clients (when Requests ≤ 0). It also
	// bounds the ADMISSION wait of every duration-mode request — a client
	// stuck in an admission queue when the deadline passes is shed and
	// exits instead of overshooting by a full wait+solve.
	Deadline time.Time
	// Acc is the per-request accuracy target.
	Acc float64
	// Dist is the request data distribution.
	Dist pbmg.Distribution
	// Seed derives each client's per-family problem rotation.
	Seed int64
	// Retries is the per-request retry budget for shed HTTP answers (429
	// queue full, 503 breaker/deadline/drain): each retry honors the
	// server's Retry-After hint when present and falls back to jittered
	// exponential backoff otherwise. 0 disables retries (every shed counts
	// immediately); ignored in in-process mode.
	Retries int
}

// rotation is the number of pre-drawn problems per (client, family).
const rotation = 2

// Result is one measured workload.
type Result struct {
	// PerFamily holds each family's latencies, sorted ascending.
	PerFamily [][]time.Duration
	// All holds every latency, sorted ascending.
	All []time.Duration
	// Shed counts requests turned away by load-shedding (admission
	// deadline in-process; 429/503 over HTTP). Shed requests record no
	// latency and do not fail the run.
	Shed int64
	// Elapsed is the wall time of the whole run.
	Elapsed time.Duration
	// Overshoot is how far past Deadline the slowest client finished (0 in
	// request-count mode or when every client beat the deadline). With
	// admission deadline-bounded it is at most one solve duration — the
	// request already admitted when the deadline hit — never a queue wait
	// on top.
	Overshoot time.Duration
	// Retries429 and Retries503 count HTTP-mode retry attempts by the shed
	// class that triggered them (429 queue full vs 503 breaker, deadline, or
	// drain), so a report shows which back-pressure mechanism the workload
	// was leaning on. Both stay 0 with Options.Retries == 0.
	Retries429 int64
	Retries503 int64
}

// families returns the family count of either mode.
func (o *Options) families() int {
	if o.URL != "" {
		return len(o.Keys)
	}
	return len(o.Services)
}

// Run drives the workload and returns the collected latencies. Any client
// error (a failed draw, solve, or transport error — but not a shed) fails
// the run.
func Run(o Options) (*Result, error) {
	nf := o.families()
	if nf == 0 || len(o.ReqN) != nf {
		return nil, fmt.Errorf("mixload: %d families with %d request sizes", nf, len(o.ReqN))
	}
	counts := make([]int, o.Clients)
	for c := range counts {
		if o.Requests > 0 {
			counts[c] = o.Requests / o.Clients
			if c < o.Requests%o.Clients {
				counts[c]++
			}
		} else {
			counts[c] = -1
		}
	}

	var issue issuer
	if o.URL != "" {
		hc := o.Client
		if hc == nil {
			// Idle connections sized to the fan-out, so thousands of
			// clients reuse sockets instead of churning through dials.
			hc = &http.Client{Transport: &http.Transport{
				MaxIdleConns:        2 * o.Clients,
				MaxIdleConnsPerHost: 2 * o.Clients,
			}}
		}
		issue = &httpIssuer{o: o, cl: &serve.Client{BaseURL: o.URL, HTTP: hc}}
	} else {
		issue = &localIssuer{o: o}
	}

	lat := make([][][]time.Duration, o.Clients) // [client][family][]
	errs := make([]error, o.Clients)
	var shed atomic.Int64
	var overshootNS atomic.Int64
	duration := o.Requests <= 0
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat[c] = make([][]time.Duration, nf)
			reqs, err := issue.prepare(c)
			if err != nil {
				errs[c] = err
				return
			}
			ctx := context.Background()
			if duration {
				var cancel context.CancelFunc
				ctx, cancel = context.WithDeadline(ctx, o.Deadline)
				defer cancel()
				defer func() {
					// Record how far past the deadline this client ran; the
					// slowest client across the run is the reported overshoot.
					if over := time.Since(o.Deadline); over > 0 {
						for {
							cur := overshootNS.Load()
							if int64(over) <= cur || overshootNS.CompareAndSwap(cur, int64(over)) {
								return
							}
						}
					}
				}()
			}
			for i := 0; counts[c] < 0 || i < counts[c]; i++ {
				if duration && time.Now().After(o.Deadline) {
					return
				}
				fi := (c + i) % nf
				t0 := time.Now()
				err := issue.solve(ctx, reqs, fi, i%rotation)
				switch {
				case err == nil:
					lat[c][fi] = append(lat[c][fi], time.Since(t0))
				case isShed(err):
					shed.Add(1)
					if duration && ctx.Err() != nil {
						return // shed by the run deadline: clean exit
					}
				default:
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{
		PerFamily: make([][]time.Duration, nf),
		Elapsed:   elapsed,
		Shed:      shed.Load(),
		Overshoot: time.Duration(overshootNS.Load()),
	}
	if hi, ok := issue.(*httpIssuer); ok {
		res.Retries429 = hi.retries429.Load()
		res.Retries503 = hi.retries503.Load()
	}
	for c := range lat {
		for fi, ls := range lat[c] {
			res.PerFamily[fi] = append(res.PerFamily[fi], ls...)
			res.All = append(res.All, ls...)
		}
	}
	if len(res.All) == 0 {
		return nil, fmt.Errorf("mixload: no requests completed (%d shed)", res.Shed)
	}
	for fi := range res.PerFamily {
		sortDurations(res.PerFamily[fi])
	}
	sortDurations(res.All)
	return res, nil
}

// isShed classifies load-shedding outcomes: an in-process admission shed,
// an expired admission context, or a retryable HTTP status.
func isShed(err error) bool {
	if errors.Is(err, pbmg.ErrShed) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return true
	}
	var se *serve.StatusError
	return errors.As(err, &se) && se.Shed()
}

// issuer is one mode's request path: prepare pre-draws a client's problem
// rotation, solve issues one request.
type issuer interface {
	prepare(client int) (any, error)
	solve(ctx context.Context, reqs any, family, slot int) error
}

// localIssuer calls the services in-process.
type localIssuer struct{ o Options }

func (li *localIssuer) prepare(c int) (any, error) {
	o := li.o
	probs := make([][]*pbmg.Problem, len(o.Services))
	for fi, svc := range o.Services {
		probs[fi] = make([]*pbmg.Problem, rotation)
		for i := range probs[fi] {
			p, err := svc.Solver().NewFamilyProblem(o.ReqN[fi], o.Dist, o.Seed+int64(c*100+fi*rotation+i))
			if err != nil {
				return nil, err
			}
			probs[fi][i] = p
		}
	}
	return probs, nil
}

func (li *localIssuer) solve(ctx context.Context, reqs any, fi, slot int) error {
	p := reqs.([][]*pbmg.Problem)[fi][slot]
	x := p.NewState()
	return li.o.Services[fi].SolveContext(ctx, x, p.B, li.o.Acc)
}

// httpIssuer posts the workload to a serve.Server; bodies are
// pre-marshaled so encoding stays off the measured path.
type httpIssuer struct {
	o  Options
	cl *serve.Client

	retries429 atomic.Int64
	retries503 atomic.Int64
}

// httpClientState is one client's prepared state: its request rotation and
// a private backoff-jitter source (only this client's goroutine touches
// it, so no locking).
type httpClientState struct {
	bodies [][][]byte
	rng    *rand.Rand
}

func (hi *httpIssuer) prepare(c int) (any, error) {
	o := hi.o
	bodies := make([][][]byte, len(o.Keys))
	for fi, key := range o.Keys {
		bodies[fi] = make([][]byte, rotation)
		for i := range bodies[fi] {
			p, err := pbmg.NewFamilyProblem(o.ReqN[fi], o.Dist, o.Seed+int64(c*100+fi*rotation+i), key.Family, key.Epsilon)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(serve.SolveRequest{
				Family:   key.Family.String(),
				Eps:      key.Epsilon,
				N:        o.ReqN[fi],
				Accuracy: o.Acc,
				B:        p.B.Data(),
				X:        p.NewState().Data(),
			})
			if err != nil {
				return nil, err
			}
			bodies[fi][i] = body
		}
	}
	return &httpClientState{bodies: bodies, rng: rand.New(rand.NewSource(o.Seed + int64(c)))}, nil
}

// Backoff for retried sheds: exponential from retryBaseDelay, capped at
// retryMaxDelay, jittered ±25% so synchronized clients spread out instead
// of re-stampeding the queue they were just shed from.
const (
	retryBaseDelay = 50 * time.Millisecond
	retryMaxDelay  = 2 * time.Second
)

func (hi *httpIssuer) solve(ctx context.Context, reqs any, fi, slot int) error {
	st := reqs.(*httpClientState)
	for attempt := 0; ; attempt++ {
		_, err := hi.cl.SolveBytes(ctx, st.bodies[fi][slot])
		if err == nil || attempt >= hi.o.Retries {
			return err
		}
		var se *serve.StatusError
		if !errors.As(err, &se) || !se.Shed() {
			return err
		}
		if se.Code == http.StatusTooManyRequests {
			hi.retries429.Add(1)
		} else {
			hi.retries503.Add(1)
		}
		if serr := sleepBackoff(ctx, st.rng, attempt, se.RetryAfter); serr != nil {
			// The run deadline cut the backoff short: surface the original
			// shed so the caller's shed accounting (not the error path)
			// handles it.
			return err
		}
	}
}

// sleepBackoff waits before a retry: the server's Retry-After hint when it
// sent one, jittered exponential backoff otherwise. Returns ctx.Err() when
// the context expires first.
func sleepBackoff(ctx context.Context, rng *rand.Rand, attempt int, retryAfterSec int) error {
	var d time.Duration
	if retryAfterSec > 0 {
		// The server named a delay: never retry before it, jitter only
		// upward (+0–25%) to de-synchronize the herd it shed together.
		d = time.Duration(retryAfterSec) * time.Second
		d += time.Duration(0.25 * float64(d) * rng.Float64())
	} else {
		d = retryBaseDelay << attempt
		if d > retryMaxDelay || d <= 0 {
			d = retryMaxDelay
		}
		d = time.Duration(float64(d) * (0.75 + 0.5*rng.Float64()))
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// Percentile returns the q-quantile of sorted latencies by the
// nearest-rank (ceiling) definition: the smallest sample ≥ the q fraction
// of the distribution, so p99 on small samples reports an actually
// observed high-end latency instead of truncating down toward the median
// (0 when empty; q ≤ 0 returns the minimum, q ≥ 1 the maximum).
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
