package numeric

import (
	"fmt"
	"math"
)

// invPhi is 1/phi where phi is the golden ratio.
var invPhi = (math.Sqrt(5) - 1) / 2

// GoldenSection minimizes a unimodal function f on [lo, hi] and returns the
// minimizer. tol is an absolute tolerance on the argument. The routine is
// exact (to tol) for convex f, which covers every use in this codebase:
// Subproblem 1's objective in the round deadline T, and the per-device
// upload-time split in the Scheme 1 baseline.
func GoldenSection(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if lo > hi {
		return 0, fmt.Errorf("numeric: GoldenSection interval [%g,%g] reversed", lo, hi)
	}
	if hi-lo <= tol {
		return 0.5 * (lo + hi), nil
	}
	x, _ := goldenSection(f, lo, hi, f(lo), f(hi), tol)
	return x, nil
}

// goldenSection is GoldenSection on an interval whose endpoint values
// flo = f(lo), fhi = f(hi) are already known; it returns the minimizer and
// its value without evaluating any point twice.
func goldenSection(f func(float64) float64, lo, hi, flo, fhi, tol float64) (float64, float64) {
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for i := 0; i < 300 && b-a > tol; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	// Guard against boundary minima: golden section converges to an interior
	// point; compare against the original endpoints explicitly.
	best := 0.5 * (a + b)
	fBest := f(best)
	if flo < fBest {
		best, fBest = lo, flo
	}
	if fhi < fBest {
		best, fBest = hi, fhi
	}
	return best, fBest
}

// GridRefineMin minimizes a possibly multimodal 1-D function on [lo, hi] by
// scanning a uniform grid of gridN points to locate the best basin, then
// refining with golden section inside the bracketing grid cell. It is exact
// for unimodal functions and robust for functions with a few basins (the
// per-device time-split costs in the deadline optimizer are bimodal when a
// bandwidth floor kicks in). The grid values at the cell ends carry into the
// refinement, so no point is evaluated twice. A non-nil lb, a lower bound
// on f, lets the scan skip grid points it proves cannot be the best (see
// scanGrid); the answer is the same as with a nil one.
func GridRefineMin(f, lb func(float64) float64, lo, hi float64, gridN int, tol float64) (float64, error) {
	if lo > hi {
		return 0, fmt.Errorf("numeric: GridRefineMin interval [%g,%g] reversed", lo, hi)
	}
	g := scanGrid(f, lb, lo, hi, gridN)
	var x, fx float64
	switch {
	case g.hi-g.lo <= tol && 0.5*(g.lo+g.hi) == g.x:
		x, fx = g.x, g.fx // an interior cell's midpoint is its grid point
	case g.hi-g.lo <= tol:
		x = 0.5 * (g.lo + g.hi)
		fx = f(x)
	default:
		x, fx = goldenSection(f, g.lo, g.hi, g.flo, g.fhi, tol)
	}
	if fx <= g.fx {
		return x, nil
	}
	return g.x, nil
}

// GridBrentMin is GridRefineMin refining with Brent's parabolic
// interpolation (Brent 1973, ch. 5), golden steps where a parabola is
// unusable: superlinear on a smooth basin, poor at kinks and +Inf walls.
// It returns the best point evaluated and evaluates no point twice. lb is
// GridRefineMin's optional lower bound.
func GridBrentMin(f, lb func(float64) float64, lo, hi float64, gridN int, tol float64) (float64, error) {
	if lo > hi {
		return 0, fmt.Errorf("numeric: GridBrentMin interval [%g,%g] reversed", lo, hi)
	}
	g := scanGrid(f, lb, lo, hi, gridN)
	a, b, x, fx := g.lo, g.hi, g.x, g.fx
	w, fw, v, fv := a, g.flo, b, g.fhi // on a boundary cell the first step is golden
	if fv < fw {
		w, fw, v, fv = v, fv, w, fw
	}
	d, e := 0.0, b-a // the last step and the one before it
	for i := 0; i < 100; i++ {
		tol1 := 0.25*tol + 1e-15*math.Abs(x)
		if max(x-a, b-x) <= 2*tol1 {
			break
		}
		// Take the vertex when it lies inside [a, b] and the step is under
		// half the step before last.
		r, q := (x-w)*(fx-fv), (x-v)*(fx-fw)
		p := (x-v)*q - (x-w)*r
		if q = 2 * (q - r); q > 0 {
			p = -p
		}
		if q = math.Abs(q); math.Abs(e) > tol1 && math.Abs(p) < math.Abs(0.5*q*e) && p > q*(a-x) && p < q*(b-x) {
			e, d = d, p/q
			if u := x + d; u-a < 2*tol1 || b-u < 2*tol1 {
				d = math.Copysign(tol1, 0.5*(a+b)-x)
			}
		} else {
			if e = b - x; x >= 0.5*(a+b) {
				e = a - x
			}
			d = (1 - invPhi) * e
		}
		u := x + d
		if math.Abs(d) < tol1 {
			u = x + math.Copysign(tol1, d)
		}
		fu := f(u)
		// The worse of u and x becomes the end on its side of the better.
		if (u < x) == (fu <= fx) {
			b = max(x, u)
		} else {
			a = min(x, u)
		}
		switch {
		case fu <= fx:
			v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
		case fu <= fw || w == x:
			v, fv, w, fw = w, fw, u, fu
		case fu <= fv || v == x || v == w:
			v, fv = u, fu
		}
	}
	return x, nil
}

// gridCell is the best point (x, fx) of a grid scan and the grid cell
// [lo, hi] around it, with end values flo and fhi.
type gridCell struct{ x, fx, lo, hi, flo, fhi float64 }

// scanGrid evaluates f on a uniform grid of gridN >= 3 points over
// [lo, hi] and returns the cell bracketing the best one: the first grid
// point of least value, as a strict-less-than scan finds it.
//
// A non-nil lb is a lower bound on f (lb(x) <= f(x) wherever f is
// evaluated). The scan skips a point whose bound is at or above the best
// value so far, since then f there cannot beat that value, and evaluates a
// skipped point after the scan only if it turns out to be an end of the
// best cell. The cell, its end values and the best point are the ones the
// unbounded scan returns; only the evaluations of f are fewer, and the
// cell ends come last.
func scanGrid(f, lb func(float64) float64, lo, hi float64, gridN int) gridCell {
	if gridN < 3 {
		gridN = 3
	}
	at := func(k int) float64 { return lo + (hi-lo)*float64(k)/float64(gridN-1) }
	bestX, bestF := lo, f(lo)
	bestK := 0
	fCellLo, fCellHi, prev := bestF, bestF, bestF
	var skipLo, skipHi, skipPrev bool // that value was skipped, not evaluated
	for k := 1; k < gridN; k++ {
		x := at(k)
		skip := lb != nil && lb(x) >= bestF
		var v float64
		if !skip {
			v = f(x)
		}
		if !skip && v < bestF {
			bestX, bestF, bestK = x, v, k
			fCellLo, skipLo = prev, skipPrev
		} else if k == bestK+1 {
			fCellHi, skipHi = v, skip
		}
		prev, skipPrev = v, skip
	}
	if bestK == gridN-1 {
		fCellHi, skipHi = bestF, false
	}
	if skipLo {
		fCellLo = f(at(bestK - 1))
	}
	if skipHi {
		fCellHi = f(at(bestK + 1))
	}
	return gridCell{bestX, bestF, at(max(bestK-1, 0)), at(min(bestK+1, gridN-1)), fCellLo, fCellHi}
}

// MinimizeConvex1D minimizes a differentiable convex function given its
// derivative on [lo, hi] by bisecting the derivative; it falls back to
// golden section when the derivative does not change sign (minimum at an
// endpoint).
func MinimizeConvex1D(df func(float64) float64, lo, hi, tol float64) float64 {
	dlo, dhi := df(lo), df(hi)
	switch {
	case dlo >= 0:
		return lo // derivative nonnegative throughout: minimum at lo
	case dhi <= 0:
		return hi // derivative nonpositive throughout: minimum at hi
	}
	x, err := Bisect(df, lo, hi, tol)
	if err != nil {
		return 0.5 * (lo + hi)
	}
	return x
}
