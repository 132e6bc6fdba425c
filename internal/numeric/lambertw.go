package numeric

import (
	"errors"
	"fmt"
	"math"
)

// branchPoint is -1/e, the left endpoint of the domain of the principal
// branch W0 of the Lambert W function.
var branchPoint = -1.0 / math.E

// ErrLambertWDomain is returned for arguments outside a branch's domain:
// below -1/e for LambertW0, outside [-1/e, 0) for LambertWm1.
var ErrLambertWDomain = errors.New("numeric: Lambert W argument outside the branch's domain")

// LambertW0 evaluates the principal branch of the Lambert W function, the
// solution w >= -1 of w*exp(w) = x, for x >= -1/e.
//
// The implementation uses a branch-point series near x = -1/e, asymptotic
// initial guesses elsewhere, and Halley iteration to full double precision.
// The paper's Appendix B uses W on arguments (mu - j_n)/(e*j_n) which are
// guaranteed >= -1/e for any bandwidth price mu >= 0, so domain violations
// here always indicate a caller bug; they are reported as an error rather
// than silently clipped.
func LambertW0(x float64) (float64, error) {
	switch {
	case math.IsNaN(x):
		return math.NaN(), fmt.Errorf("numeric: LambertW0(NaN): %w", ErrLambertWDomain)
	case x < branchPoint:
		// Allow a sliver of floating-point slack right at the branch point.
		if x > branchPoint-1e-12 {
			return -1, nil
		}
		return math.NaN(), fmt.Errorf("numeric: LambertW0(%g) below -1/e: %w", x, ErrLambertWDomain)
	case x == 0:
		return 0, nil
	case math.IsInf(x, 1):
		return math.Inf(1), nil
	}

	if w, ok := lambertHalley(lambertW0Initial(x), x); ok {
		return w, nil
	}
	// Fall back to bisection if Halley stalled (extremely rare, e.g. at
	// subnormal arguments next to the branch point).
	return lambertW0Bisect(x)
}

// LambertW0Winitzki evaluates W0 for x >= -1/4 in a fixed number of
// steps, with no convergence test: Winitzki's approximation
// W0(x) ~ L*(1 - ln(1+L)/(2+L)), L = ln(1+x), is within 4% of W0 there,
// and two Halley steps (cubic convergence) take it to within 2e-15
// relative, a few ulps short of LambertW0. It suits callers that polish the
// result with a Newton step of their own. Below -1/4 the approximation
// degrades toward the branch point; use LambertW0 there.
func LambertW0Winitzki(x float64) float64 {
	l := math.Log1p(x)
	w := l * (1 - math.Log1p(l)/(2+l))
	for i := 0; i < 2; i++ {
		ew := math.Exp(w)
		f := w*ew - x
		wp1 := w + 1
		w -= f / (ew*wp1 - (w+2)*f/(2*wp1))
	}
	return w
}

// lambertHalley refines a starting point w for w*e^w = x by Halley
// iteration: quadratically convergent with a cubic correction, a handful of
// steps reaches machine precision from the initial guesses used here. It
// reports false if the iteration stalled.
func lambertHalley(w, x float64) (float64, bool) {
	for i := 0; i < 64; i++ {
		ew := math.Exp(w)
		f := w*ew - x
		if f == 0 {
			return w, true
		}
		wp1 := w + 1
		denom := ew*wp1 - (w+2)*f/(2*wp1)
		if denom == 0 || math.IsNaN(denom) {
			break
		}
		dw := f / denom
		w -= dw
		if math.Abs(dw) <= 1e-15*(1+math.Abs(w)) {
			return w, true
		}
	}
	return w, false
}

// LambertWm1 evaluates the lower branch of the Lambert W function, the
// solution w <= -1 of w*exp(w) = x, for -1/e <= x < 0. It starts from the
// branch-point series near -1/e and from the asymptotic expansion
// W ~ L1 - L2 + L2/L1 (L1 = ln(-x), L2 = ln(-L1)) elsewhere, then runs the
// Halley iteration LambertW0 uses.
func LambertWm1(x float64) (float64, error) {
	switch {
	case math.IsNaN(x) || x >= 0:
		return math.NaN(), fmt.Errorf("numeric: LambertWm1(%g) outside [-1/e, 0): %w", x, ErrLambertWDomain)
	case x <= branchPoint:
		if x > branchPoint-1e-12 {
			return -1, nil
		}
		return math.NaN(), fmt.Errorf("numeric: LambertWm1(%g) below -1/e: %w", x, ErrLambertWDomain)
	}
	if x < -0.25 {
		// Branch-point series with p = -sqrt(2(e*x+1)).
		p := -math.Sqrt(2 * (math.E*x + 1))
		w, _ := lambertHalley(-1+p-p*p/3+11*p*p*p/72, x)
		return w, nil
	}
	l1 := math.Log(-x)
	l2 := math.Log(-l1)
	w, _ := lambertHalley(l1-l2+l2/l1, x)
	return w, nil
}

// lambertW0Initial produces a starting point accurate enough for Halley
// iteration to converge in a few steps.
func lambertW0Initial(x float64) float64 {
	if x < -0.25 {
		// Branch-point series in p = sqrt(2(e*x+1)):
		// W(x) ~ -1 + p - p^2/3 + 11 p^3/72.
		p := math.Sqrt(2 * (math.E*x + 1))
		return -1 + p - p*p/3 + 11*p*p*p/72
	}
	if x < 1 {
		// Padé-flavoured rational guess around 0: W(x) ~ x(1+...) .
		return x * (1 - x*(1-1.5*x)/(1+x))
	}
	// Asymptotic expansion for large x: W ~ L1 - L2 + L2/L1.
	l1 := math.Log(x)
	l2 := math.Log(l1)
	if l1 <= 0 {
		return l1
	}
	return l1 - l2 + l2/l1
}

// lambertW0Bisect solves w*e^w = x by bisection; used only as a fallback.
func lambertW0Bisect(x float64) (float64, error) {
	lo, hi := -1.0, 1.0
	for lambertG(hi) < x {
		hi *= 2
		if hi > 1e9 {
			return math.NaN(), fmt.Errorf("numeric: LambertW0 bisection failed to bracket %g", x)
		}
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if lambertG(mid) < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

func lambertG(w float64) float64 { return w * math.Exp(w) }
