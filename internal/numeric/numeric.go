// Package numeric provides the scalar numerical routines used throughout the
// reproduction: the Lambert W function, root finding (bisection, Brent,
// Newton, Illinois), one-dimensional minimization (golden section on
// function values, and a search on the slope's sign for convex and other
// falling-then-rising functions), and small statistical helpers.
//
// Everything is implemented from scratch on top of the standard library so
// that the module has no external dependencies. The routines favour
// robustness over raw speed: they are used inside optimizer loops whose
// dominant cost is the per-device waterfilling, not scalar evaluation.
package numeric

import "math"

// Ln2 is the natural logarithm of 2, used pervasively when converting
// between natural-log and base-2 expressions of the Shannon formula.
const Ln2 = math.Ln2

// Clamp returns x restricted to the closed interval [lo, hi].
// It requires lo <= hi and panics otherwise, since a reversed interval
// always indicates a programming error in a caller.
func Clamp(x, lo, hi float64) float64 {
	if lo > hi {
		panic("numeric: Clamp called with lo > hi")
	}
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}

// Log2p1 returns log2(1+x) computed via math.Log1p for accuracy when x is
// tiny (deep-fade SNRs produce x well below 1e-8).
func Log2p1(x float64) float64 {
	return math.Log1p(x) / Ln2
}

// AlmostEqual reports whether a and b are equal within absolute tolerance
// absTol or relative tolerance relTol (whichever is looser).
func AlmostEqual(a, b, absTol, relTol float64) bool {
	diff := math.Abs(a - b)
	if diff <= absTol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= relTol*scale
}
