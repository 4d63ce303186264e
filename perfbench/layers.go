package main

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"time"

	"pbmg/internal/arch"
	"pbmg/internal/direct"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/sched"
	"pbmg/internal/stencil"
	"pbmg/serve"
)

// counters are cumulative layer counters read before and after the
// measured loops.
type counters struct {
	escalations, failed, shed, serveShed, steals int64
}

func (a counters) minus(b counters) counters {
	return counters{a.escalations - b.escalations, a.failed - b.failed, a.shed - b.shed, a.serveShed - b.serveShed, a.steals - b.steals}
}

// counters reads the catalog's counters: from the services in-process,
// from GET /metrics over HTTP (the server's solvers are its own).
func (c *catalog) counters(ctx context.Context) counters {
	var n counters
	if c.srv == nil {
		n.escalations = c.escalations()
		for _, s := range c.services {
			sm := s.Metrics()
			n.failed += sm.Failed
			n.shed += sm.Shed
		}
		n.steals = c.reg.PoolSteals()
		return n
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/metrics", nil)
	if err != nil {
		return n
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return n
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if json.NewDecoder(resp.Body).Decode(&m) != nil {
		return n
	}
	n.failed, n.shed = m.Aggregate.Failed, m.Aggregate.Shed
	for _, f := range m.Families {
		n.escalations += f.Escalations
		n.serveShed += f.ShedQueueFull + f.ShedDeadline
	}
	return n
}

// measureLayers fills the per-layer metrics of a traced run into m. all
// holds every measured sample, open the open-loop ones, d the counter
// deltas over the measured loops.
func measureLayers(w *workload, c *catalog, cells []cell, ins []*input, all, open []sample, d counters, m map[string]float64) {
	for fi, fs := range w.families {
		f := fs.name()
		m["core.tune_s."+f] = c.tuneS[fi]
		m["core.digest."+f] = digestValue(c.digests[fi])
		m["pbmg.solve_ms."+f] = ms(percentile(collect(all, fi, func(s sample) time.Duration { return s.solve }), 0.5))
	}
	m["pbmg.escalations"] = float64(d.escalations)
	m["pbmg.failed"] = float64(d.failed)
	m["pbmg.shed"] = float64(d.shed)
	m["load.send_lag_p99_ms"] = ms(percentile(collect(open, -1, func(s sample) time.Duration { return s.lag }), 0.99))
	if w.http {
		serveLayer(w, ins, all, d, m)
	} else if n := len(collect(all, -1, func(s sample) time.Duration { return 0 })); n > 0 {
		m["sched.steals_per_solve"] = float64(d.steals) / float64(n)
	}

	traces := mgLayer(w, c, cells, m)
	pool := c.solvers[0].Workspace().Pool
	for fi, fs := range w.families {
		op := c.solvers[fi].Workspace().Operator()
		stencilLayer(op.At(fs.n), pool, fs, m)
		m["stencil.kernel_share."+fs.name()] = kernelShare(op, pool, fs, traces[fi])
		directLayer(op, fs, traces[fi].tr, m)
	}
	poolLayer(c.solvers[0].Workspace().Operator().At(w.families[0].n), w.families[0].n, m)
}

// serveLayer fills the wire-format metrics from the HTTP samples and from
// timing the codec on the workload's own bodies.
func serveLayer(w *workload, ins []*input, all []sample, d counters, m map[string]float64) {
	var wire []time.Duration
	var solve, rtt, decode time.Duration
	var reqB, respB, n int
	for _, s := range all {
		if !s.answered() {
			continue
		}
		wire = append(wire, s.rtt-s.solve)
		solve += s.solve
		rtt += s.rtt
		decode += s.decode
		reqB += s.reqBytes
		respB += s.respBytes
		n++
	}
	if n > 0 {
		m["serve.wire_p50_ms"] = ms(percentile(wire, 0.5))
		m["serve.solve_share"] = float64(solve) / float64(rtt)
		m["serve.req_bytes"] = float64(reqB) / float64(n)
		m["serve.resp_bytes"] = float64(respB) / float64(n)
		m["load.client_decode_ms"] = ms(decode) / float64(n)
	}
	m["serve.shed"] = float64(d.serveShed)
	for fi, fs := range w.families {
		var dec, enc []float64
		for _, in := range ins {
			if in.fam != fi {
				continue
			}
			for _, body := range in.body {
				dec = append(dec, perCall(func() {
					var r serve.SolveRequest
					_ = json.Unmarshal(body, &r) // bodies were marshaled from the same type
				}))
			}
			resp := serve.SolveResponse{X: in.p.Optimal().Data(), Family: fs.name(), N: fs.n, Precision: "f64", SolveNs: 1}
			enc = append(enc, perCall(func() { _ = json.NewEncoder(io.Discard).Encode(resp) }))
		}
		m["serve.decode_ms."+fs.name()] = median(dec) / 1e6
		m["serve.encode_ms."+fs.name()] = median(enc) / 1e6
	}
}

// famTrace is one family's operation counts and solve time over a round.
type famTrace struct {
	tr     mg.OpTrace
	dur    time.Duration
	solves int
}

// mgLayer solves one round through Solver.SolveTraced, counting every
// operation, and prices the counts with the cost model the tables were
// tuned under.
func mgLayer(w *workload, c *catalog, cells []cell, m map[string]float64) []*famTrace {
	out := make([]*famTrace, len(w.families))
	for i := range out {
		out[i] = &famTrace{}
	}
	model := arch.Harpertown()
	var model64, prec = make([]float64, len(w.families)), map[string]int{}
	for _, cl := range cells {
		ft := out[cl.in.fam]
		fs := w.families[cl.in.fam]
		s := c.solvers[cl.in.fam]
		var tr mg.OpTrace
		x := cl.in.p.NewState()
		t0 := time.Now()
		if err := s.SolveTraced(x, cl.in.p.B, cl.acc, &tr); err != nil {
			continue
		}
		ft.dur += time.Since(t0)
		ft.solves++
		ft.tr.Merge(&tr)
		model64[cl.in.fam] += arch.ForDim(model, fs.fam.Dim()).Cost(&tr, 0)
		if p, err := s.PlanPrecision(fs.n, cl.acc); err == nil {
			prec[p]++
		}
	}
	for fi, fs := range w.families {
		ft := out[fi]
		if ft.solves == 0 {
			continue
		}
		n := float64(ft.solves)
		f := fs.name()
		m["mg.relax_per_solve."+f] = float64(ft.tr.Total(mg.EvRelax)+ft.tr.Total(mg.EvIterSolve)) / n
		m["mg.direct_per_solve."+f] = float64(ft.tr.Total(mg.EvDirect)) / n
		m["mg.model_ratio."+f] = float64(ft.dur.Nanoseconds()) / model64[fi]
	}
	for _, p := range []string{"f64", "f32", "mixed"} {
		m["mg.plan_share."+p] = float64(prec[p]) / float64(len(cells))
	}
	return out
}

func interiorPoints(dim, n int) float64 {
	p := float64(n - 2)
	if dim == 3 {
		return p * p * p
	}
	return p * p
}

// perCall returns the nanoseconds one call of f takes: the fastest of three
// batches, each at least 10ms long.
func perCall(f func()) float64 {
	f()
	best := 0.0
	for b := 0; b < 3; b++ {
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < 10*time.Millisecond {
			f()
			calls++
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(calls)
		if b == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// kernels returns the four timed stencil kernels on fresh random grids of
// side n at precision T: the fused downstroke (smooth, residual, restrict),
// the fused upstroke (interpolate, correct, smooth), one red-black SOR
// sweep and the residual norm.
func kernels[T grid.Float](op *stencil.Operator, pool *sched.Pool, n int) map[string]func() {
	dim := op.Dim()
	rng := rand.New(rand.NewSource(int64(n)))
	fill := func(g *grid.G[T]) *grid.G[T] {
		for i := range g.Data() {
			g.Data()[i] = T(rng.Float64()*2 - 1)
		}
		return g
	}
	x, b, r := fill(grid.NewOf[T](dim, n)), fill(grid.NewOf[T](dim, n)), grid.NewOf[T](dim, n)
	coarse, cx := grid.NewOf[T](dim, grid.Coarsen(n)), fill(grid.NewOf[T](dim, grid.Coarsen(n)))
	h, omega := T(1/float64(n-1)), T(op.OmegaSmooth())
	return map[string]func(){
		"down": func() { stencil.OpSmoothResidualRestrict(op, pool, coarse, x, b, r, h, omega) },
		"up": func() {
			stencil.OpInterpolateCorrectSmooth(op, pool, x, b, cx, h, omega)
			stencil.OpFinishSmooth(op, pool, x, b, h, omega)
		},
		"sor":   func() { stencil.OpSORSweeps(op, pool, x, b, h, omega, 1) },
		"rnorm": func() { _ = stencil.OpResidualNorm(op, pool, x, b, h) },
	}
}

// stencilLayer times each kernel at the family's finest size in both
// precisions and reports ns per interior point next to the kernel's
// computed traffic.
func stencilLayer(op *stencil.Operator, pool *sched.Pool, fs famSpec, m map[string]float64) {
	pts := interiorPoints(fs.fam.Dim(), fs.n)
	k64, k32 := kernels[float64](op, pool, fs.n), kernels[float32](op, pool, fs.n)
	for _, k := range kernelNames {
		base := "stencil." + k + "." + fs.name() + "."
		m[base+"f64_ns_pt"] = perCall(k64[k]) / pts
		m[base+"f32_ns_pt"] = perCall(k32[k]) / pts
		w := computedWork(k, fs)
		m[base+"computed_B_pt"] = w.words * 8
		m[base+"computed_flop_per_B"] = w.flops / (w.words * 8)
	}
}

// kernelShare estimates the share of a family's traced solve time spent in
// the fused cycle kernels: each recursion's downstroke and upstroke (one
// relaxation each, so half the level's relaxations) and each shortcut SOR
// sweep, timed at its level's size in float64, times how often the trace
// ran it, over the measured solve time. The estimate phase's restrictions
// and interpolations and the direct solves are left out.
func kernelShare(op *stencil.Operator, pool *sched.Pool, fs famSpec, ft *famTrace) float64 {
	if ft.dur <= 0 {
		return 0
	}
	var ns float64
	for l := 2; l <= ft.tr.MaxLevel(); l++ {
		cycles, sweeps := float64(ft.tr.Count(mg.EvRelax, l))/2, float64(ft.tr.Count(mg.EvIterSolve, l))
		if cycles == 0 && sweeps == 0 {
			continue
		}
		n := grid.SizeOfLevel(l)
		k := kernels[float64](op.At(n), pool, n)
		if cycles > 0 {
			ns += cycles * (perCall(k["down"]) + perCall(k["up"]))
		}
		if sweeps > 0 {
			ns += sweeps * perCall(k["sor"])
		}
	}
	return ns / float64(ft.dur.Nanoseconds())
}

// work is a kernel's computed cost per fine interior point: floating-point
// operations and grid words streamed, counting each array the kernel
// touches once per pass (compulsory traffic, no cache misses).
type work struct{ flops, words float64 }

func computedWork(kernel string, fs famSpec) work {
	dim := fs.fam.Dim()
	// One SOR update: stencil sum, scale and ω blend. Variable coefficients
	// add the four face averages and their products.
	sweep, resid := 8.0, 7.0
	coarseShare, restrictFlops, interpFlops := 0.25, 3.0, 5.0
	if dim == 3 {
		sweep, resid = 10, 9
		coarseShare, restrictFlops, interpFlops = 0.125, 5, 7
	}
	coef := 0.0
	if fs.name() == "varcoef" {
		sweep += 12
		resid += 12
		coef = 1 // the coefficient grid, read once per pass
	}
	switch kernel {
	case "down": // read x, b; write x; emit and re-read r; write the coarse grid
		return work{sweep + resid + restrictFlops, 5 + coarseShare + coef}
	case "up": // read the coarse grid; two half-sweep passes over x and b
		return work{interpFlops + 1 + sweep, 6 + coarseShare + 2*coef}
	case "sor": // read x, b; write x
		return work{sweep, 3 + coef}
	default: // rnorm: read x, b
		return work{resid + 2, 2 + coef}
	}
}

// directLayer times one band-Cholesky solve at each coarse size the
// family's plans call, weighted by how often they call it, and adds each
// size's factorization to direct.factor_ms.
func directLayer(op *stencil.Operator, fs famSpec, tr mg.OpTrace, m map[string]float64) {
	var us, calls float64
	for l := 1; l <= tr.MaxLevel(); l++ {
		cnt := float64(tr.Count(mg.EvDirect, l))
		if cnt == 0 {
			continue
		}
		n := grid.SizeOfLevel(l)
		opN := op.At(n)
		t0 := time.Now()
		s := direct.NewInteriorSolver(opN, n)
		m["direct.factor_ms"] += ms(time.Since(t0))
		x, b := grid.NewDim(fs.fam.Dim(), n), grid.NewDim(fs.fam.Dim(), n)
		for i := range b.Data() {
			b.Data()[i] = float64(i%7) - 3
		}
		us += cnt * perCall(func() { s.Solve(x, b, 1/float64(n-1)) }) / 1e3
		calls += cnt
	}
	if calls > 0 {
		m["direct.solve_us."+fs.name()] = us / calls
	}
}

// poolLayer times each kernel on a 2-worker pool against no pool at the
// workload's finest grid of its first family.
func poolLayer(op *stencil.Operator, n int, m map[string]float64) {
	p := sched.NewPool(2)
	defer p.Close()
	par, ser := kernels[float64](op, p, n), kernels[float64](op, nil, n)
	for _, k := range kernelNames {
		m["sched.pool_speedup."+k] = perCall(ser[k]) / perCall(par[k])
	}
}
