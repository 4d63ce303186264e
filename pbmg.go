// Package pbmg is an autotuned multigrid solver for the 2D Poisson
// equation, a Go reproduction of "Autotuning Multigrid with PetaBricks"
// (Chan, Ansel, Wong, Amarasinghe, Edelman — SC'09).
//
// The package tunes, per machine and per requested accuracy, a hybrid
// algorithm that mixes direct band-Cholesky solves, red-black SOR, and
// recursive multigrid cycles whose shape is discovered by a bottom-up
// dynamic program over (recursion level, accuracy) cells. Typical use:
//
//	solver, err := pbmg.Tune(pbmg.Options{MaxSize: 257})
//	...
//	p := pbmg.NewProblem(257, pbmg.Unbiased, 42)
//	x := p.NewState()
//	err = solver.Solve(x, p.B, 1e7)
//
// Tuned configurations serialize to JSON (Solver.Save / Load) so a machine
// is tuned once and the result reused, exactly like PetaBricks
// configuration files.
//
// A Solver is safe for concurrent use: the tuned tables are immutable, the
// worker pool supports concurrent callers, and all per-solve scratch state
// is checked out from an internal arena. One tuned Solver can therefore
// serve many simultaneous solves — see SolveBatch for fanning a fixed set
// of problems, and Service for bounding in-flight solves in a server.
package pbmg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"pbmg/internal/arch"
	"pbmg/internal/core"
	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/problem"
	"pbmg/internal/refsol"
	"pbmg/internal/sched"
	"pbmg/internal/stencil"
)

// Grid is a square N×N (2D) or cubic N×N×N (3D) grid of float64 values in
// one flat slice. See NewGrid and NewGrid3; Grid.Dim reports which kind a
// grid is, and dimension-specific accessors reject the other kind.
type Grid = grid.Grid

// NewGrid returns a zero-filled 2D n×n grid.
func NewGrid(n int) *Grid { return grid.New(n) }

// NewGrid3 returns a zero-filled 3D n×n×n grid, for use with
// FamilyPoisson3D solvers.
func NewGrid3(n int) *Grid { return grid.New3(n) }

// Distribution selects a training/benchmark data distribution from §4 of
// the paper.
type Distribution = grid.Distribution

// Training distributions: unbiased uniform over [−2³², 2³²], the same
// shifted by +2³¹, and random point sources.
const (
	Unbiased     = grid.Unbiased
	Biased       = grid.Biased
	PointSources = grid.PointSources
)

// Problem is one operator problem instance.
type Problem = problem.Problem

// Family selects an operator family. The solver tunes each family
// independently: the same dynamic program, run under a family's kernels,
// discovers a different optimal cycle shape (most visibly for strong
// anisotropy, where smoothing loses power and direct solves win deeper).
type Family = stencil.Family

// Operator families: the paper's constant-coefficient Poisson operator −∇²,
// the anisotropic operator −(ε·∂²/∂x² + ∂²/∂y²), the variable-coefficient
// operator −∇·(c∇u) with the built-in smooth positive coefficient field of
// contrast parameter σ, and the 3D Poisson operator (7-point stencil on an
// N×N×N cube — the paper's headline scaling case). Families carry their
// spatial dimension (Family.Dim); 3D solvers work on grids from NewGrid3.
const (
	FamilyPoisson     = stencil.FamilyPoisson
	FamilyAnisotropic = stencil.FamilyAnisotropic
	FamilyVarCoef     = stencil.FamilyVarCoef
	FamilyPoisson3D   = stencil.FamilyPoisson3D
)

// ParseFamily parses a family name ("poisson", "aniso", "varcoef",
// "poisson3d").
func ParseFamily(s string) (Family, error) { return stencil.ParseFamily(s) }

// FamilyHasParam reports whether the family carries a tunable parameter
// (anisotropy ratio ε or coefficient contrast σ); the 2D and 3D Laplacians
// are parameterless.
func FamilyHasParam(f Family) bool { return core.FamilyHasParam(f) }

// CheckFamilyFlags validates CLI-style -family/-epsilon overrides against a
// loaded solver: tuned tables are family-specific, so a mismatch would
// silently solve the wrong operator. Empty family and zero epsilon mean
// "use the configuration's values" and always pass; epsilon is only checked
// for parameterized families. The error names the configuration path and
// how to re-tune. Registry.Lookup resolves eps the same way for served
// requests.
func (s *Solver) CheckFamilyFlags(config, family string, epsilon float64) error {
	if family != "" {
		f, err := ParseFamily(family)
		if err != nil {
			return err
		}
		if f != s.Family() {
			return fmt.Errorf("configuration %s is tuned for family %s, not %s; re-tune with mgtune -family %s",
				config, s.Family(), f, f)
		}
	}
	if epsilon != 0 && FamilyHasParam(s.Family()) && epsilon != s.Epsilon() {
		return fmt.Errorf("configuration %s is tuned for eps %g, not %g; re-tune with mgtune -family %s -epsilon %g",
			config, s.Epsilon(), epsilon, s.Family(), epsilon)
	}
	return nil
}

// NewProblem draws a random constant-coefficient Poisson problem of side n
// (must be 2^k+1) from the given distribution.
func NewProblem(n int, dist Distribution, seed int64) *Problem {
	return problem.Random(n, dist, rand.New(rand.NewSource(seed)))
}

// NewFamilyProblem draws a random problem of side n for the given operator
// family. eps is the anisotropy ratio ε (FamilyAnisotropic) or the
// coefficient contrast σ (FamilyVarCoef); zero selects the family default.
// Solve it with a Solver tuned for the same family and parameter.
func NewFamilyProblem(n int, dist Distribution, seed int64, f Family, eps float64) (*Problem, error) {
	op, err := stencil.NewOperator(f, core.ResolveEps(f, eps), n)
	if err != nil {
		return nil, err
	}
	return problem.RandomOp(n, dist, rand.New(rand.NewSource(seed)), op.At(n)), nil
}

// Reference computes the problem's near-exact solution and attaches it, so
// Problem.AccuracyOf can grade solver outputs.
func Reference(p *Problem) *Grid {
	refsol.Attach(p, nil)
	return p.Optimal()
}

// Options configures Tune.
type Options struct {
	// MaxSize is the finest grid side the solver will handle; must be
	// 2^k + 1 with k ≥ 2.
	MaxSize int
	// Family selects the operator family to tune for (default FamilyPoisson).
	Family Family
	// Epsilon is the family parameter: anisotropy ratio ε for
	// FamilyAnisotropic, coefficient contrast σ for FamilyVarCoef. Zero
	// selects the family default; ignored for FamilyPoisson.
	Epsilon float64
	// Accuracies are the discrete accuracy targets (default: the paper's
	// 10, 10³, 10⁵, 10⁷, 10⁹).
	Accuracies []float64
	// Distribution is the training distribution (default Unbiased).
	Distribution Distribution
	// Machine selects a simulated architecture cost model by name
	// ("intel-harpertown", "amd-barcelona", "sun-niagara"); empty tunes for
	// the host machine by wall clock.
	Machine string
	// Workers sets the worker-pool size for parallel kernels (0: serial).
	Workers int
	// Seed fixes the training data.
	Seed int64
	// Logf, when non-nil, receives tuning progress lines.
	Logf func(format string, args ...any)
	// NoFuse disables the fused single-pass cycle kernels on the built
	// solver's workspace and runs the original separate
	// smooth/residual/restrict/norm passes. The two paths perform the same
	// sweeps bit for bit and agree on restrictions and norms to
	// floating-point association (≤1e-12 of the data scale; iterates may
	// differ in low-order bits), so this is a benchmarking escape hatch
	// (mgbench -nofuse measures the fusion win), not a correctness knob.
	NoFuse bool
}

// Solver is a tuned multigrid solver. Create with Tune or Load; release
// with Close.
//
// A Solver is safe for concurrent use: any number of goroutines may call
// Solve, SolveV, SolveAdaptive, SolveBatch, CycleShape, and Describe
// simultaneously on one Solver, sharing its tuned tables, worker pool, and
// direct-factor cache. Close must not be called while solves are in flight.
type Solver struct {
	tuned *core.Tuned
	ws    *mg.Workspace
	pool  *sched.Pool

	// reducedPrec is true when any tuned plan carries an f32 or mixed
	// precision directive — only then does a solve snapshot its input state,
	// so the pure-f64 fast path pays nothing for the escalation machinery.
	reducedPrec bool
	// escalations counts solves that diverged at reduced precision and were
	// retried (successfully or not) at forced float64.
	escalations atomic.Int64

	// defMu guards defSvc, the lazily-created default service behind
	// DefaultService that SolveBatch routes through so its completion counts
	// are observable. A mutex (not sync.Once) so Registry.Register can
	// replace the service without racing concurrent DefaultService callers.
	defMu  sync.Mutex
	defSvc *Service
}

// ErrCancelled marks a solve aborted between cycles or levels because its
// context was done. The error also wraps the context's own sentinel
// (context.Canceled or context.DeadlineExceeded).
var ErrCancelled = mg.ErrCancelled

// ErrDiverged marks a solve whose iterate went non-finite or whose residual
// blew up instead of contracting. Reduced-precision solves retry once at
// forced float64 before surfacing it (see Solver.Escalations).
var ErrDiverged = mg.ErrDiverged

// Tune trains a solver for the given options by running the paper's
// dynamic-programming autotuner.
func Tune(o Options) (*Solver, error) {
	var pool *sched.Pool
	if o.Workers > 1 {
		pool = sched.NewPool(o.Workers)
	}
	s, err := tuneWithPool(o, pool)
	if err != nil {
		closePool(pool)
		return nil, err
	}
	return s, nil
}

// tuneWithPool runs the autotuner and builds a solver on the given pool
// (nil: serial), which the caller owns — Registry.Tune passes its shared
// pool, Tune a fresh one sized by o.Workers.
func tuneWithPool(o Options, pool *sched.Pool) (*Solver, error) {
	level := grid.Level(o.MaxSize)
	if level < 2 {
		return nil, fmt.Errorf("pbmg: MaxSize must be 2^k+1 with k ≥ 2, got %d", o.MaxSize)
	}
	var coster arch.Coster = arch.WallClock{}
	if o.Machine != "" {
		m, err := arch.ByName(o.Machine)
		if err != nil {
			return nil, err
		}
		coster = m
	}
	tn, err := core.New(core.Config{
		Accuracies:   o.Accuracies,
		MaxLevel:     level,
		Family:       o.Family,
		Eps:          o.Epsilon,
		Distribution: o.Distribution,
		Seed:         o.Seed,
		Coster:       coster,
		Pool:         pool,
		Logf:         o.Logf,
	})
	if err != nil {
		return nil, err
	}
	tuned, err := tn.Tune()
	if err != nil {
		return nil, err
	}
	s, err := newSolver(tuned, pool)
	if err != nil {
		return nil, err
	}
	s.ws.NoFuse = o.NoFuse
	return s, nil
}

// Load reads a tuned configuration written by Save. Workers configures the
// worker pool for this process (0: serial).
func Load(path string, workers int) (*Solver, error) {
	tuned, err := core.Load(path)
	if err != nil {
		return nil, err
	}
	var pool *sched.Pool
	if workers > 1 {
		pool = sched.NewPool(workers)
	}
	s, err := newSolver(tuned, pool)
	if err != nil {
		closePool(pool)
		return nil, err
	}
	return s, nil
}

func newSolver(tuned *core.Tuned, pool *sched.Pool) (*Solver, error) {
	op, err := tuned.OperatorValue()
	if err != nil {
		return nil, err
	}
	ws := mg.NewWorkspace(pool)
	ws.CacheDirectFactor = true // production solves reuse factorizations
	ws.Op = op
	s := &Solver{tuned: tuned, ws: ws, pool: pool}
	for _, row := range tuned.V.Plans {
		for _, p := range row {
			if p.Precision == mg.PrecF32 || p.Precision == mg.PrecMixed {
				s.reducedPrec = true
			}
		}
	}
	return s, nil
}

func closePool(p *sched.Pool) {
	if p != nil {
		p.Close()
	}
}

// Close releases the solver's worker pool.
func (s *Solver) Close() { closePool(s.pool) }

// Save writes the tuned configuration as JSON.
func (s *Solver) Save(path string) error { return s.tuned.Save(path) }

// Machine returns the name of the cost model the solver was tuned for.
func (s *Solver) Machine() string { return s.tuned.Machine }

// PoolSteals returns the worker pool's cumulative successful-steal count
// (0 for a serial solver) — scheduler visibility for benchmark reports.
func (s *Solver) PoolSteals() int64 {
	if s.pool == nil {
		return 0
	}
	return s.pool.Steals()
}

// Family returns the operator family the solver was tuned for.
func (s *Solver) Family() Family { return s.ws.Operator().Family() }

// Dim returns the solver's spatial dimension (2, or 3 for FamilyPoisson3D):
// states passed to Solve must be grids of this dimension.
func (s *Solver) Dim() int { return s.ws.Operator().Dim() }

// Epsilon returns the operator family parameter (ε or σ; 1 for Poisson).
func (s *Solver) Epsilon() float64 { return s.ws.Operator().Eps() }

// NewFamilyProblem draws a random problem matched to the solver's operator
// family and parameter, sharing the solver's operator hierarchy.
func (s *Solver) NewFamilyProblem(n int, dist Distribution, seed int64) (*Problem, error) {
	if err := s.checkSizeN(n); err != nil {
		return nil, err
	}
	op := s.ws.Operator().At(n)
	return problem.RandomOp(n, dist, rand.New(rand.NewSource(seed)), op), nil
}

// MaxSize returns the finest grid side the solver was tuned for.
func (s *Solver) MaxSize() int { return grid.SizeOfLevel(s.tuned.MaxLevel) }

// Accuracies returns the discrete accuracy targets of the tuned tables.
func (s *Solver) Accuracies() []float64 {
	return append([]float64(nil), s.tuned.V.Acc...)
}

// accIndex returns the index of the smallest tuned target ≥ accuracy.
func (s *Solver) accIndex(accuracy float64) (int, error) {
	for i, a := range s.tuned.V.Acc {
		if a >= accuracy {
			return i, nil
		}
	}
	return 0, fmt.Errorf("pbmg: accuracy %g exceeds tuned maximum %g",
		accuracy, s.tuned.V.Acc[len(s.tuned.V.Acc)-1])
}

// checkSize verifies x is within the tuned range.
func (s *Solver) checkSize(x *Grid) error { return s.checkSizeN(x.N()) }

func (s *Solver) checkSizeN(n int) error {
	level := grid.Level(n)
	if level < 1 {
		return fmt.Errorf("pbmg: grid side %d is not 2^k+1", n)
	}
	if level > s.tuned.MaxLevel {
		return fmt.Errorf("pbmg: grid side %d exceeds tuned maximum %d", n, s.MaxSize())
	}
	return nil
}

// SolveV solves T·x = b in place with the tuned MULTIGRID-V algorithm for
// the smallest tuned target ≥ accuracy. x supplies the Dirichlet boundary
// and initial guess.
func (s *Solver) SolveV(x, b *Grid, accuracy float64) error {
	return s.solve(x, b, accuracy, false, nil)
}

// Solve solves T·x = b in place with the tuned FULL-MULTIGRID algorithm,
// the paper's best-performing family.
func (s *Solver) Solve(x, b *Grid, accuracy float64) error {
	return s.solve(x, b, accuracy, true, nil)
}

// SolveContext is Solve with cooperative cancellation: the solve polls ctx
// between V-cycles and between levels of deep cycles, and once ctx is done
// it aborts within roughly one cycle's latency with an error wrapping both
// ErrCancelled and the context's own sentinel. All pooled scratch is
// returned on the abort path; the grid x is left mid-iteration and must not
// be reused as a partial answer.
func (s *Solver) SolveContext(ctx context.Context, x, b *Grid, accuracy float64) error {
	return s.solveCtx(ctx, x, b, accuracy, true, nil)
}

// SolveVContext is SolveV with cooperative cancellation (see SolveContext).
func (s *Solver) SolveVContext(ctx context.Context, x, b *Grid, accuracy float64) error {
	return s.solveCtx(ctx, x, b, accuracy, false, nil)
}

// Escalations returns the number of solves that diverged at a tuned reduced
// precision and were retried at forced float64 — a nonzero value means the
// tuned f32/mixed tables are being pushed past their dynamic range by the
// live traffic, worth re-tuning for.
func (s *Solver) Escalations() int64 { return s.escalations.Load() }

func (s *Solver) solve(x, b *Grid, accuracy float64, full bool, rec mg.Recorder) error {
	return s.solveCtx(nil, x, b, accuracy, full, rec)
}

// solveCtx runs one tuned solve with the full control plane: cooperative
// cancellation from ctx (nil: none), divergence detection, and one
// precision-escalation retry when a reduced-precision plan diverges.
func (s *Solver) solveCtx(ctx context.Context, x, b *Grid, accuracy float64, full bool, rec mg.Recorder) error {
	if err := s.checkSize(x); err != nil {
		return err
	}
	idx, err := s.accIndex(accuracy)
	if err != nil {
		return err
	}
	if full && s.tuned.F == nil {
		return fmt.Errorf("pbmg: solver has no tuned full-multigrid table")
	}
	// One executor per solve keeps the recorder and context private to this
	// call; the workspace and tables behind it are shared and
	// concurrency-safe.
	ex := mg.Executor{WS: s.ws, V: s.tuned.V, F: s.tuned.F, Rec: rec}
	if ctx != nil && ctx.Done() != nil {
		ex.Ctx = ctx
	}
	// Divergence of a reduced-precision plan gets one retry at forced
	// float64, restarted from the caller's original state — the diverged
	// attempt has already scribbled on x. Pure-f64 tables skip the snapshot
	// (and can't escalate: a divergence there is the input's fault).
	var x0 *Grid
	if s.reducedPrec {
		x0 = x.Clone()
	}
	run := func() error {
		return ex.Run(func() {
			if full {
				ex.SolveFull(x, b, idx)
			} else {
				ex.SolveV(x, b, idx)
			}
		})
	}
	err = run()
	if err == nil && grid.HasNonFinite(x) {
		// The in-cycle guards cover the f32/mixed/adaptive shapes; the plain
		// f64 V-cycle and direct shapes have none, so vet every answer here —
		// a serving layer must never hand back a NaN grid as a success.
		err = fmt.Errorf("%w: solve produced a non-finite iterate", mg.ErrDiverged)
	}
	if err != nil && x0 != nil && errors.Is(err, mg.ErrDiverged) {
		s.escalations.Add(1)
		x.CopyFrom(x0)
		ex.ForceF64 = true
		if err = run(); err != nil {
			return err
		}
		// The escalated answer passes the same vet before declaring victory
		// over the original divergence.
		if grid.HasNonFinite(x) {
			return fmt.Errorf("%w: float64 escalation still produced a non-finite iterate", mg.ErrDiverged)
		}
		return nil
	}
	return err
}

// CycleShape renders the tuned cycle the solver would execute for a problem
// of side n at the given accuracy, in the ASCII notation of the paper's
// Figure 5 ('o' relaxation, '\' restrict, '/' interpolate, 'D' direct
// solve, '~k~' k SOR sweeps).
func (s *Solver) CycleShape(n int, accuracy float64, full bool) (string, error) {
	if lvl := grid.Level(n); lvl < 1 || lvl > s.tuned.MaxLevel {
		return "", fmt.Errorf("pbmg: size %d outside tuned range", n)
	}
	idx, err := s.accIndex(accuracy)
	if err != nil {
		return "", err
	}
	// Execute the plan on a scratch problem, recording the shape. Cycle
	// structure is data-independent, so any instance yields the shape.
	p, err := s.NewFamilyProblem(n, s.tuned.DistributionValue(), 1)
	if err != nil {
		return "", err
	}
	var log mg.ShapeLog
	x := p.NewState()
	if err := s.solve(x, p.B, s.tuned.V.Acc[idx], full, &log); err != nil {
		return "", err
	}
	return mg.RenderShape(&log), nil
}

// Describe prints the tuned call tree (the paper's Figure 4 view) for a
// problem of side n at the given accuracy.
func (s *Solver) Describe(n int, accuracy float64, full bool) (string, error) {
	level := grid.Level(n)
	if level < 1 || level > s.tuned.MaxLevel {
		return "", fmt.Errorf("pbmg: size %d outside tuned range", n)
	}
	idx, err := s.accIndex(accuracy)
	if err != nil {
		return "", err
	}
	if full {
		if s.tuned.F == nil {
			return "", fmt.Errorf("pbmg: solver has no tuned full-multigrid table")
		}
		return mg.DescribeFull(s.tuned.F, s.tuned.V, level, idx), nil
	}
	return mg.DescribeV(s.tuned.V, level, idx), nil
}

// PlanPrecision reports the storage precision ("f64", "f32", or "mixed") of
// the tuned plan the solver executes at the top level for a problem of side
// n at the given accuracy — the knob operators watch to see which precision
// a family/accuracy cell is serving. Coarser cells inside the cycle may run
// at their own tuned precisions; the top-level directive is the one that
// governs the fine-grid traversals dominating solve time.
func (s *Solver) PlanPrecision(n int, accuracy float64) (string, error) {
	if err := s.checkSizeN(n); err != nil {
		return "", err
	}
	idx, err := s.accIndex(accuracy)
	if err != nil {
		return "", err
	}
	return s.tuned.V.Plan(grid.Level(n), idx).Precision.String(), nil
}

// PlanPrecisions reports the distinct storage precisions appearing anywhere
// in the solver's tuned V-table, in fixed f64 → f32 → mixed order — the
// summary /metrics exposes so an operator can tell at a glance whether a
// family's tables exploit reduced precision at all.
func (s *Solver) PlanPrecisions() []string {
	var seen [3]bool
	for _, row := range s.tuned.V.Plans {
		for _, p := range row {
			switch p.Precision {
			case mg.PrecF32:
				seen[1] = true
			case mg.PrecMixed:
				seen[2] = true
			default:
				seen[0] = true
			}
		}
	}
	var out []string
	for i, label := range []string{"f64", "f32", "mixed"} {
		if seen[i] {
			out = append(out, label)
		}
	}
	return out
}

// SolveTraced solves T·x = b like Solve while recording every executed
// operation into rec — the hook benchmark harnesses use to account work
// (sweeps, direct solves) alongside wall time.
func (s *Solver) SolveTraced(x, b *Grid, accuracy float64, rec mg.Recorder) error {
	return s.solve(x, b, accuracy, true, rec)
}

// SolveAdaptive solves T·x = b with runtime feedback instead of trained
// iteration counts: tuned RECURSE steps are iterated until the measured
// residual has shrunk by the given factor, escalating to higher-accuracy
// sub-algorithms when convergence stagnates — the dynamic tuning the paper
// sketches as future work (§6). It returns the number of iterations run and
// the achieved residual reduction.
func (s *Solver) SolveAdaptive(x, b *Grid, residualReduction float64) (iters int, reduction float64, err error) {
	if err := s.checkSize(x); err != nil {
		return 0, 0, err
	}
	if residualReduction < 1 {
		return 0, 0, fmt.Errorf("pbmg: residual reduction %g must be ≥ 1", residualReduction)
	}
	ex := &mg.Executor{WS: s.ws, V: s.tuned.V} // per-call executor: concurrency-safe
	a := mg.AdaptiveSolver{Ex: ex}
	var res mg.AdaptiveResult
	// The adaptive loop carries a divergence guard (a blown-up residual
	// aborts instead of iterating to MaxIters on garbage); Run converts that
	// abort into ErrDiverged here.
	if err := ex.Run(func() { res = a.Solve(x, b, residualReduction, 0) }); err != nil {
		return 0, 0, err
	}
	return res.Iters, res.Reduction, nil
}

// Tuned exposes the underlying tuned bundle for advanced use (experiment
// harnesses, cross-architecture evaluation).
func (s *Solver) Tuned() *core.Tuned { return s.tuned }

// Workspace exposes the solver's workspace for advanced use alongside the
// internal executors.
func (s *Solver) Workspace() *mg.Workspace { return s.ws }
