package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned when a root-finding routine is handed an interval
// whose endpoints do not bracket a sign change.
var ErrNoBracket = errors.New("numeric: interval does not bracket a root")

// ErrMaxIterations is returned when an iterative routine exhausts its
// iteration budget before meeting its tolerance.
var ErrMaxIterations = errors.New("numeric: maximum iterations exceeded")

// BisectDecreasing finds the root of a (weakly) monotone decreasing function
// f with f(lo) >= 0 >= f(hi) — the shape of every dual "price" search in
// this codebase (the bandwidth price mu, the deadline multiplier gamma).
// It tolerates flat segments: it returns the midpoint of the final
// interval.
func BisectDecreasing(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if flo < 0 && fhi < 0 {
		return lo, fmt.Errorf("numeric: BisectDecreasing f(lo)=%g < 0: %w", flo, ErrNoBracket)
	}
	if flo > 0 && fhi > 0 {
		return hi, fmt.Errorf("numeric: BisectDecreasing f(hi)=%g > 0: %w", fhi, ErrNoBracket)
	}
	for i := 0; i < 200 && hi-lo > tol; i++ {
		mid := lo + 0.5*(hi-lo)
		if mid <= lo || mid >= hi {
			break
		}
		if f(mid) >= 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + 0.5*(hi-lo), nil
}

// IllinoisDecreasing narrows a bracket of a weakly decreasing f, given its
// known end values flo = f(lo) > 0 >= fhi = f(hi), until hi-lo <= tol, and
// returns the final bracket: f > 0 at its lo end and f <= 0 at its hi end,
// so a jump in f stays bracketed. It stops early at an exact zero, which
// becomes the hi end.
//
// Steps are regula falsi with the Illinois modification (Dowell & Jarratt,
// 1971): an end kept twice in a row has its weight halved, which gives
// superlinear convergence on smooth f. A point within tol/2 of an end is
// moved tol/2 further in, to land past the root and close the bracket
// rather than creep up on it from that end's side. Whenever three steps
// together fail to halve the bracket, the next step is a bisection, so
// jumps and flat segments cost at most four times what bisection would. f
// is only evaluated strictly inside the bracket.
func IllinoisDecreasing(f func(float64) float64, lo, hi, flo, fhi, tol float64) (float64, float64, error) {
	if !(flo > 0) || !(fhi <= 0) || !(lo < hi) {
		return lo, hi, fmt.Errorf("numeric: IllinoisDecreasing on [%g,%g] f=(%g,%g): %w", lo, hi, flo, fhi, ErrNoBracket)
	}
	wlo, whi := flo, -fhi // interpolation weights, both >= 0
	kept := 0             // +1: lo end was replaced last step, -1: hi end
	bisect := false
	w0, w1, w2 := math.Inf(1), math.Inf(1), hi-lo // widths before the last three steps
	for i := 0; i < 300 && hi-lo > tol && fhi != 0; i++ {
		width := hi - lo
		x := lo + 0.5*width
		if !bisect {
			x = lo + wlo/(wlo+whi)*width
			if hi-x < tol/2 {
				x -= tol / 2
			} else if x-lo < tol/2 {
				x += tol / 2
			}
		}
		if !(x > lo && x < hi) {
			x = lo + 0.5*width
			if !(x > lo && x < hi) {
				break // interval exhausted at double precision
			}
		}
		if fx := f(x); fx > 0 {
			lo, wlo = x, fx
			if kept == 1 {
				whi /= 2
			}
			kept = 1
		} else {
			hi, fhi, whi = x, fx, -fx
			if kept == -1 {
				wlo /= 2
			}
			kept = -1
		}
		bisect = hi-lo > 0.5*w0
		w0, w1, w2 = w1, w2, hi-lo
	}
	return lo, hi, nil
}

// BracketUp grows hi geometrically from start until pred(hi) holds or the
// expansion budget is exhausted. It is used to find upper bisection bounds
// for dual prices whose scale is not known a priori.
func BracketUp(pred func(float64) bool, start float64, maxDoublings int) (float64, error) {
	if start <= 0 {
		start = 1
	}
	hi := start
	for i := 0; i < maxDoublings; i++ {
		if pred(hi) {
			return hi, nil
		}
		hi *= 2
	}
	if pred(hi) {
		return hi, nil
	}
	return hi, fmt.Errorf("numeric: BracketUp gave up at %g: %w", hi, ErrMaxIterations)
}

// BrentBracketed finds a root of f on a bracketing interval [lo, hi] by
// Brent's method (inverse quadratic interpolation with bisection
// safeguards), given the end values flo = f(lo) and fhi = f(hi), which
// the caller has already computed: it evaluates neither end again.
func BrentBracketed(f func(float64) float64, lo, hi, flo, fhi, tol float64) (float64, error) {
	const eps = 2.220446049250313e-16
	a, b := lo, hi
	fa, fb := flo, fhi
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("numeric: Brent on [%g,%g]: %w", lo, hi, ErrNoBracket)
	}
	c, fc := b, fb
	var d, e float64
	for i := 0; i < 200; i++ {
		if (fb > 0 && fc > 0) || (fb < 0 && fc < 0) {
			c, fc = a, fa
			d = b - a
			e = d
		}
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol1 := 2*eps*math.Abs(b) + 0.5*tol
		xm := 0.5 * (c - b)
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			s := fb / fa
			var p, q float64
			if a == c {
				p = 2 * xm * s
				q = 1 - s
			} else {
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			min1 := 3*xm*q - math.Abs(tol1*q)
			min2 := math.Abs(e * q)
			if 2*p < math.Min(min1, min2) {
				e = d
				d = p / q
			} else {
				d = xm
				e = d
			}
		} else {
			d = xm
			e = d
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else {
			b += math.Copysign(tol1, xm)
		}
		fb = f(b)
	}
	return b, fmt.Errorf("numeric: Brent: %w", ErrMaxIterations)
}
