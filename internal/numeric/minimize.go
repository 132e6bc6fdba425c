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
// refinement, so no point is evaluated twice.
func GridRefineMin(f func(float64) float64, lo, hi float64, gridN int, tol float64) (float64, error) {
	if lo > hi {
		return 0, fmt.Errorf("numeric: GridRefineMin interval [%g,%g] reversed", lo, hi)
	}
	if gridN < 3 {
		gridN = 3
	}
	bestX, bestF := lo, f(lo)
	bestK := 0
	fCellLo, fCellHi, prev := bestF, bestF, bestF
	for k := 1; k < gridN; k++ {
		x := lo + (hi-lo)*float64(k)/float64(gridN-1)
		v := f(x)
		if v < bestF {
			bestX, bestF, bestK = x, v, k
			fCellLo = prev
		} else if k == bestK+1 {
			fCellHi = v
		}
		prev = v
	}
	if bestK == gridN-1 {
		fCellHi = bestF
	}
	cellLo := lo + (hi-lo)*float64(maxInt(bestK-1, 0))/float64(gridN-1)
	cellHi := lo + (hi-lo)*float64(minInt(bestK+1, gridN-1))/float64(gridN-1)
	var x, fx float64
	switch {
	case cellHi-cellLo <= tol && 0.5*(cellLo+cellHi) == bestX:
		x, fx = bestX, bestF // an interior cell's midpoint is its grid point
	case cellHi-cellLo <= tol:
		x = 0.5 * (cellLo + cellHi)
		fx = f(x)
	default:
		x, fx = goldenSection(f, cellLo, cellHi, fCellLo, fCellHi, tol)
	}
	if fx <= bestF {
		return x, nil
	}
	return bestX, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
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
