// Unit-stride color-split SOR sweeps. The interleaved red-black loops in
// stencil.go step j += 2, so each half-sweep touches every cache line of the
// grid while using half of it and presents the compiler with strided loads
// it cannot vectorize. For multi-sweep SOR solves at large sizes this file
// instead packs x and b into the color-split layout (grid.Split: each
// color's points contiguous, see internal/grid/split.go), runs every
// half-sweep as a unit-stride stream over half-width rows, and unpacks the
// iterate at the solve boundary. The update expressions are evaluated in the
// same order on the same values as the strided kernels, and within a color
// all updates are independent, so pack → sweeps → unpack is bit-identical to
// the same number of strided SORSweepRB calls.
//
// Serial sweeps additionally interleave the two half-sweeps as a row (plane)
// wavefront — red(1); red(i), black(i−1); …; black(n−2) — a temporal
// blocking that keeps each row resident in cache between its red visit and
// its black visit, turning the sweep's two full-grid passes into one. The
// interleave is exact: a black row is relaxed only after the red rows it
// reads (i−1, i, i+1 in 2D; the corresponding planes in 3D) are final.
// Parallel sweeps keep the two barrier-separated half-sweeps, matching the
// strided kernels' chunk-independence contract.
//
// The pack/unpack round trip costs roughly 1.5 sweeps of extra memory
// traffic, so the split path only pays for multi-sweep solves on grids past
// cache scale — SplitWorthwhile gates it, and the arch cost model prices
// EvIterSolve with the same gate so tuned tables see the path the runtime
// actually takes.
//
// Few tuned plans reach the gate. The only tuned cell known to run this
// path is aniso ε=0.01 at N=257, accuracy 10 and 1e3: the level-8 plan runs
// 54 and 242 f32 sweeps through it (harpertown model, seed 1), and there
// serial split sweeps beat the strided loop by about 1.1–1.2×. The 12-sweep
// f64 sorx12 row of BENCH_kernels.json understates that case, so judge this
// path on long f32 sweep runs, not on that row.
package stencil

import (
	"sync"

	"pbmg/internal/faultinject"
	"pbmg/internal/grid"
	"pbmg/internal/sched"
)

// splitScratch recycles Split buffers by shape. A fresh Split per solve
// costs two full-grid allocations whose zeroing alone is ~2 sweeps of
// traffic; recycling makes the split path's overhead just the pack/unpack
// copies. Stale entries in a recycled Split are harmless: Pack overwrites
// every slot the sweeps and Unpack read.
var splitScratch sync.Map // [3]int{dim, n, bits} -> *sync.Pool of *grid.SplitG[T]

// floatBits reports the storage width of T (32 or 64), the precision tag in
// scratch-pool keys.
func floatBits[T grid.Float]() int {
	var z T
	if _, is32 := any(z).(float32); is32 {
		return 32
	}
	return 64
}

func getSplit[T grid.Float](dim, n int) *grid.SplitG[T] {
	key := [3]int{dim, n, floatBits[T]()}
	p, ok := splitScratch.Load(key)
	if !ok {
		p, _ = splitScratch.LoadOrStore(key, &sync.Pool{New: func() any {
			return grid.NewSplitOf[T](dim, n)
		}})
	}
	return p.(*sync.Pool).Get().(*grid.SplitG[T])
}

func putSplit[T grid.Float](s *grid.SplitG[T]) {
	key := [3]int{s.Dim(), s.N(), floatBits[T]()}
	if p, ok := splitScratch.Load(key); ok {
		p.(*sync.Pool).Put(s)
	}
}

const (
	// splitMinSweeps is the minimum sweep count for the split layout: the
	// pack/unpack traffic (~1.5 sweeps' worth) amortizes to <20% overhead at
	// 8 sweeps, below the layout's measured per-sweep win.
	splitMinSweeps = 8
	// splitMinN2/splitMinN3 are the smallest grid sides where the split
	// layout beats the strided sweeps (smaller grids live in cache, where
	// the strided loads are cheap and pack/unpack is pure overhead).
	splitMinN2 = 257
	splitMinN3 = 65
	// splitMaxN2 bounds the 2D window from above: past L3 scale a strided
	// 2D half-sweep is two long sequential streams the prefetcher handles
	// perfectly, while the split wavefront juggles several shorter ones and
	// still pays pack/unpack — measured, strided wins again from N=1025 up
	// (N=513 is parity). 3D has no upper bound: its strided half-sweeps
	// stride through sub-cache-line pencil segments at any size, so the
	// unit-stride win keeps growing with N.
	splitMaxN2 = 512
)

// SplitWorthwhile reports whether a sweeps-long SOR solve on a
// dim-dimensional grid of side n should use the color-split layout. The
// arch cost model mirrors this gate when pricing iterative solves.
func SplitWorthwhile(dim, n, sweeps int) bool {
	if sweeps < splitMinSweeps {
		return false
	}
	if dim == 3 {
		return n >= splitMinN3
	}
	return n >= splitMinN2 && n <= splitMaxN2
}

// SORSweeps runs sweeps red-black SOR sweeps in place on x, choosing the
// color-split unit-stride path when SplitWorthwhile says it wins and the
// strided SORSweepRB loop otherwise. The iterate is bit-identical either
// way.
func (op *Operator) SORSweeps(pool *sched.Pool, x, b *grid.Grid, h, omega float64, sweeps int) {
	OpSORSweeps(op, pool, x, b, h, omega, sweeps)
}

// OpSORSweeps is the precision-generic edition of Operator.SORSweeps.
func OpSORSweeps[T grid.Float](op *Operator, pool *sched.Pool, x, b *grid.G[T], h, omega T, sweeps int) {
	if faultinject.Enabled {
		faultinject.Point("stencil.sweep") // slow-kernel injection: one hit per sweeps-call
	}
	if !SplitWorthwhile(x.Dim(), x.N(), sweeps) {
		for s := 0; s < sweeps; s++ {
			OpSORSweepRB(op, pool, x, b, h, omega)
		}
		return
	}
	sorSweepsSplit(op, pool, x, b, h, omega, sweeps)
}

// sorSweepsSplit is the color-split path: pack x and b, sweep unit-stride,
// unpack x. The sweeps never write boundary entries, so the unpack restores
// x's boundary bit-identically from the pack.
func sorSweepsSplit[T grid.Float](op *Operator, pool *sched.Pool, x, b *grid.G[T], h, omega T, sweeps int) {
	n, dim := x.N(), x.Dim()
	sx := getSplit[T](dim, n)
	sb := getSplit[T](dim, n)
	defer putSplit(sx)
	defer putSplit(sb)
	sx.Pack(x)
	sb.Pack(b)
	h2 := h * h
	switch op.family {
	case FamilyPoisson:
		splitSweepsPoisson(pool, sx, sb, h2, omega, sweeps)
	case FamilyPoisson3D:
		splitSweeps3(pool, sx, sb, h2, omega, sweeps)
	case FamilyAnisotropic:
		splitSweepsConst(pool, sx, sb, h2, omega, T(op.eps), 1, sweeps)
	default:
		op.checkSize(n)
		splitSweepsVar(pool, sx, sb, h2, omega, opSplitCoef[T](op), sweeps)
	}
	sx.Unpack(x)
}

// splitCoefField packs the variable-coefficient field into the split layout
// once per operator.
func (op *Operator) splitCoefField() *grid.Split {
	op.splitCoefOnce.Do(func() {
		s := grid.NewSplit(2, op.coef.N())
		s.Pack(op.coef)
		op.splitCoef = s
	})
	return op.splitCoef
}

// splitCoefField32 is splitCoefField at float32, packed from the memoized
// float32 coefficient grid.
func (op *Operator) splitCoefField32() *grid.Split32 {
	op.splitCoef32Once.Do(func() {
		c := op.Coef32()
		s := grid.NewSplitOf[float32](2, c.N())
		s.Pack(c)
		op.splitCoef32 = s
	})
	return op.splitCoef32
}

// opSplitCoef resolves the operator's split-packed coefficient field at the
// requested precision.
func opSplitCoef[T grid.Float](op *Operator) *grid.SplitG[T] {
	if floatBits[T]() == 32 {
		return any(op.splitCoefField32()).(*grid.SplitG[T])
	}
	return any(op.splitCoefField()).(*grid.SplitG[T])
}

// sweepSplit2 drives sweeps full sweeps from per-row red and black update
// closures. Serial execution interleaves the halves as a row wavefront;
// parallel execution runs two barrier-separated half-sweeps.
func sweepSplit2(pool *sched.Pool, n, sweeps int, red, black func(i int)) {
	if pool == nil {
		for s := 0; s < sweeps; s++ {
			red(1)
			for i := 2; i < n-1; i++ {
				red(i)
				black(i - 1)
			}
			black(n - 2)
		}
		return
	}
	for s := 0; s < sweeps; s++ {
		pool.ParallelForPoints(1, n-1, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				red(i)
			}
		})
		pool.ParallelForPoints(1, n-1, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				black(i)
			}
		})
	}
}

// sweepSplit3 is sweepSplit2 over planes.
func sweepSplit3(pool *sched.Pool, n, sweeps int, red, black func(i int)) {
	if pool == nil {
		for s := 0; s < sweeps; s++ {
			red(1)
			for i := 2; i < n-1; i++ {
				red(i)
				black(i - 1)
			}
			black(n - 2)
		}
		return
	}
	for s := 0; s < sweeps; s++ {
		pool.ParallelForPoints(1, n-1, n*n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				red(i)
			}
		})
		pool.ParallelForPoints(1, n-1, n*n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				black(i)
			}
		})
	}
}

// splitSweepsPoisson runs unit-stride red-black sweeps for the Laplacian.
// With s the column parity of row i's first red point, red half-index jr
// maps to column j = 2·jr+s, its in-row black neighbours live at jr−1+s and
// jr+s, and its vertical neighbours (black, in rows of opposite parity) at
// the same half-index jr — so every load in the inner loop is unit-stride.
func splitSweepsPoisson[T grid.Float](pool *sched.Pool, x, b *grid.SplitG[T], h2, omega T, sweeps int) {
	n, w := x.N(), x.W()
	red := func(i int) {
		xr := x.Red(i)
		rowB := x.Black(i)
		upB := x.Black(i - 1)
		downB := x.Black(i + 1)
		bR := b.Red(i)
		// Specializing on the row's red-column parity keeps every index an
		// affine offset of the loop variable, so the compiler drops the
		// bounds checks from the streams.
		if i&1 == 0 {
			for jr := 1; jr < w-1; jr++ {
				gs := (upB[jr] + downB[jr] + rowB[jr-1] + rowB[jr] + h2*bR[jr]) * 0.25
				xr[jr] += omega * (gs - xr[jr])
			}
		} else {
			for jr := 0; jr < w-1; jr++ {
				gs := (upB[jr] + downB[jr] + rowB[jr] + rowB[jr+1] + h2*bR[jr]) * 0.25
				xr[jr] += omega * (gs - xr[jr])
			}
		}
	}
	black := func(i int) {
		xb := x.Black(i)
		rowR := x.Red(i)
		upR := x.Red(i - 1)
		downR := x.Red(i + 1)
		bB := b.Black(i)
		if i&1 == 0 {
			for jb := 0; jb < w-1; jb++ {
				gs := (upR[jb] + downR[jb] + rowR[jb] + rowR[jb+1] + h2*bB[jb]) * 0.25
				xb[jb] += omega * (gs - xb[jb])
			}
		} else {
			for jb := 1; jb < w-1; jb++ {
				gs := (upR[jb] + downR[jb] + rowR[jb-1] + rowR[jb] + h2*bB[jb]) * 0.25
				xb[jb] += omega * (gs - xb[jb])
			}
		}
	}
	sweepSplit2(pool, n, sweeps, red, black)
}

// splitSweepsConst runs unit-stride sweeps for a constant-coefficient
// stencil (horizontal weight cx, vertical cy).
func splitSweepsConst[T grid.Float](pool *sched.Pool, x, b *grid.SplitG[T], h2, omega, cx, cy T, sweeps int) {
	n, w := x.N(), x.W()
	invC := 1 / (2 * (cx + cy))
	red := func(i int) {
		xr := x.Red(i)
		rowB := x.Black(i)
		upB := x.Black(i - 1)
		downB := x.Black(i + 1)
		bR := b.Red(i)
		if i&1 == 0 {
			for jr := 1; jr < w-1; jr++ {
				gs := (cy*(upB[jr]+downB[jr]) + cx*(rowB[jr-1]+rowB[jr]) + h2*bR[jr]) * invC
				xr[jr] += omega * (gs - xr[jr])
			}
		} else {
			for jr := 0; jr < w-1; jr++ {
				gs := (cy*(upB[jr]+downB[jr]) + cx*(rowB[jr]+rowB[jr+1]) + h2*bR[jr]) * invC
				xr[jr] += omega * (gs - xr[jr])
			}
		}
	}
	black := func(i int) {
		xb := x.Black(i)
		rowR := x.Red(i)
		upR := x.Red(i - 1)
		downR := x.Red(i + 1)
		bB := b.Black(i)
		if i&1 == 0 {
			for jb := 0; jb < w-1; jb++ {
				gs := (cy*(upR[jb]+downR[jb]) + cx*(rowR[jb]+rowR[jb+1]) + h2*bB[jb]) * invC
				xb[jb] += omega * (gs - xb[jb])
			}
		} else {
			for jb := 1; jb < w-1; jb++ {
				gs := (cy*(upR[jb]+downR[jb]) + cx*(rowR[jb-1]+rowR[jb]) + h2*bB[jb]) * invC
				xb[jb] += omega * (gs - xb[jb])
			}
		}
	}
	sweepSplit2(pool, n, sweeps, red, black)
}

// splitSweepsVar runs unit-stride sweeps for a variable-coefficient stencil;
// c holds the nodal coefficient field in the same split layout, so the face
// averages read it with the identical half-index arithmetic as x.
func splitSweepsVar[T grid.Float](pool *sched.Pool, x, b *grid.SplitG[T], h2, omega T, c *grid.SplitG[T], sweeps int) {
	n, w := x.N(), x.W()
	red := func(i int) {
		xr := x.Red(i)
		rowB := x.Black(i)
		upB := x.Black(i - 1)
		downB := x.Black(i + 1)
		bR := b.Red(i)
		cR := c.Red(i)
		cB := c.Black(i)
		cuB := c.Black(i - 1)
		cdB := c.Black(i + 1)
		if i&1 == 0 {
			for jr := 1; jr < w-1; jr++ {
				cc := cR[jr]
				cn := 0.5 * (cc + cuB[jr])
				cs := 0.5 * (cc + cdB[jr])
				cw := 0.5 * (cc + cB[jr-1])
				ce := 0.5 * (cc + cB[jr])
				gs := (cn*upB[jr] + cs*downB[jr] + cw*rowB[jr-1] + ce*rowB[jr] + h2*bR[jr]) / (cn + cs + cw + ce)
				xr[jr] += omega * (gs - xr[jr])
			}
		} else {
			for jr := 0; jr < w-1; jr++ {
				cc := cR[jr]
				cn := 0.5 * (cc + cuB[jr])
				cs := 0.5 * (cc + cdB[jr])
				cw := 0.5 * (cc + cB[jr])
				ce := 0.5 * (cc + cB[jr+1])
				gs := (cn*upB[jr] + cs*downB[jr] + cw*rowB[jr] + ce*rowB[jr+1] + h2*bR[jr]) / (cn + cs + cw + ce)
				xr[jr] += omega * (gs - xr[jr])
			}
		}
	}
	black := func(i int) {
		xb := x.Black(i)
		rowR := x.Red(i)
		upR := x.Red(i - 1)
		downR := x.Red(i + 1)
		bB := b.Black(i)
		cB := c.Black(i)
		cR := c.Red(i)
		cuR := c.Red(i - 1)
		cdR := c.Red(i + 1)
		if i&1 == 0 {
			for jb := 0; jb < w-1; jb++ {
				cc := cB[jb]
				cn := 0.5 * (cc + cuR[jb])
				cs := 0.5 * (cc + cdR[jb])
				cw := 0.5 * (cc + cR[jb])
				ce := 0.5 * (cc + cR[jb+1])
				gs := (cn*upR[jb] + cs*downR[jb] + cw*rowR[jb] + ce*rowR[jb+1] + h2*bB[jb]) / (cn + cs + cw + ce)
				xb[jb] += omega * (gs - xb[jb])
			}
		} else {
			for jb := 1; jb < w-1; jb++ {
				cc := cB[jb]
				cn := 0.5 * (cc + cuR[jb])
				cs := 0.5 * (cc + cdR[jb])
				cw := 0.5 * (cc + cR[jb-1])
				ce := 0.5 * (cc + cR[jb])
				gs := (cn*upR[jb] + cs*downR[jb] + cw*rowR[jb-1] + ce*rowR[jb] + h2*bB[jb]) / (cn + cs + cw + ce)
				xb[jb] += omega * (gs - xb[jb])
			}
		}
	}
	sweepSplit2(pool, n, sweeps, red, black)
}

// splitSweeps3 runs unit-stride sweeps for the 3D 7-point Laplacian. Each
// (i,j) pencil splits by k-parity s = (i+j)&1; the four cross-pencil
// neighbours of a point are the opposite color at the same half-index.
func splitSweeps3[T grid.Float](pool *sched.Pool, x, b *grid.SplitG[T], h2, omega T, sweeps int) {
	n, w := x.N(), x.W()
	red := func(i int) {
		for j := 1; j < n-1; j++ {
			xr := x.Red3(i, j)
			rowB := x.Black3(i, j)
			upB := x.Black3(i-1, j)
			downB := x.Black3(i+1, j)
			northB := x.Black3(i, j-1)
			southB := x.Black3(i, j+1)
			bR := b.Red3(i, j)
			if (i+j)&1 == 0 {
				for kr := 1; kr < w-1; kr++ {
					gs := (upB[kr] + downB[kr] + northB[kr] + southB[kr] + rowB[kr-1] + rowB[kr] + h2*bR[kr]) * (1.0 / 6.0)
					xr[kr] += omega * (gs - xr[kr])
				}
			} else {
				for kr := 0; kr < w-1; kr++ {
					gs := (upB[kr] + downB[kr] + northB[kr] + southB[kr] + rowB[kr] + rowB[kr+1] + h2*bR[kr]) * (1.0 / 6.0)
					xr[kr] += omega * (gs - xr[kr])
				}
			}
		}
	}
	black := func(i int) {
		for j := 1; j < n-1; j++ {
			xb := x.Black3(i, j)
			rowR := x.Red3(i, j)
			upR := x.Red3(i-1, j)
			downR := x.Red3(i+1, j)
			northR := x.Red3(i, j-1)
			southR := x.Red3(i, j+1)
			bB := b.Black3(i, j)
			if (i+j)&1 == 0 {
				for kb := 0; kb < w-1; kb++ {
					gs := (upR[kb] + downR[kb] + northR[kb] + southR[kb] + rowR[kb] + rowR[kb+1] + h2*bB[kb]) * (1.0 / 6.0)
					xb[kb] += omega * (gs - xb[kb])
				}
			} else {
				for kb := 1; kb < w-1; kb++ {
					gs := (upR[kb] + downR[kb] + northR[kb] + southR[kb] + rowR[kb-1] + rowR[kb] + h2*bB[kb]) * (1.0 / 6.0)
					xb[kb] += omega * (gs - xb[kb])
				}
			}
		}
	}
	sweepSplit3(pool, n, sweeps, red, black)
}
