package numeric

import (
	"fmt"
	"math"
)

// invPhi is 1/phi where phi is the golden ratio.
var invPhi = (math.Sqrt(5) - 1) / 2

// GoldenSection minimizes a unimodal function f on [lo, hi] and returns the
// minimizer. tol is an absolute tolerance on the argument. The routine is
// exact (to tol) for convex f, which covers both uses in this codebase:
// Subproblem 1's objective in the round deadline T (SolveSubproblem1) and
// the TDMA baseline's objective in its common compute deadline
// (internal/tdma).
func GoldenSection(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if lo > hi {
		return 0, fmt.Errorf("numeric: GoldenSection interval [%g,%g] reversed", lo, hi)
	}
	if hi-lo <= tol {
		return 0.5 * (lo + hi), nil
	}
	flo, fhi := f(lo), f(hi)
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
		best = hi
	}
	return best, nil
}

// MinimizeConvex returns a minimizer on [lo, hi], to tol > 0, of a convex
// function given its slope, a nondecreasing function, searching from x0
// clamped into [lo, hi]. A walk steps downhill from x0 until the slope
// changes sign: first by tol, then by the secant's estimate of the
// distance left to the slope's root from the walk's last two points,
// doubled after every step that stops short of it, so that a far root is
// reached in a few steps and a near one is not overshot by much; Brent's
// method (BrentBracketed) then closes the bracket the walk leaves. An end
// of [lo, hi] the walk reaches without a sign change is the minimum. The
// answer is always a point whose slope was evaluated, except that an
// interval within tol returns the clamped start unevaluated; a start
// within tol of the minimum is returned as it is, so a point that needs no
// move gets none; and the first point found with a slope of exactly 0 is
// returned, so on a flat bottom the answer is the first point of it the
// walk reaches from x0. The search reads only where slope changes sign,
// so slope may be any nondecreasing function with the derivative's sign,
// such as the derivative times a positive factor, and the function
// minimized any that falls, then rises, convex or not. The error reports
// a reversed interval or a tol that is not positive.
func MinimizeConvex(slope func(float64) float64, x0, lo, hi, tol float64) (float64, error) {
	if lo > hi || !(tol > 0) {
		return 0, fmt.Errorf("numeric: MinimizeConvex on [%g,%g] to tol %g", lo, hi, tol)
	}
	x := Clamp(x0, lo, hi)
	if hi-lo <= tol {
		return x, nil
	}
	sx := slope(x)
	if sx == 0 {
		return x, nil
	}
	end, dir := hi, 1.0 // the walk goes downhill, toward end
	if sx > 0 {
		end, dir = lo, -1
	}
	if x == end {
		return x, nil
	}
	cur, scur, step, over := x, sx, tol, 1.0
	for {
		next := cur + dir*step
		if (next-end)*dir >= 0 {
			next = end
		}
		snext := slope(next)
		switch {
		case snext == 0:
			return next, nil
		case (snext > 0) != (scur > 0):
			if math.Abs(next-cur) <= tol && cur == x {
				return x, nil
			}
			root, _ := BrentBracketed(slope, cur, next, scur, snext, tol) // a bracket, so no error
			return root, nil
		case next == end:
			return end, nil
		}
		last := math.Abs(next - cur)
		r := last * snext / (scur - snext) // the secant's distance left
		if !(r > 0) {
			r = last // the slope did not shrink toward 0 (rounding)
		}
		step = over * max(r, tol/2)
		over *= 2
		cur, scur = next, snext
	}
}
