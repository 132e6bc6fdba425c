// Package convex implements Minimize, a log-barrier interior-point method
// for small smooth convex programs with inequality and box constraints.
// The reproduction uses it only as an *independent oracle* in tests, to
// validate the closed-form KKT solvers derived from the paper's
// appendices; it is deliberately generic and derivative-light
// (finite-difference Hessians), trading speed for trustworthiness.
package convex

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// ErrNotStrictlyFeasible is returned when the starting point violates (or
// touches) an inequality, which the barrier method cannot recover from.
var ErrNotStrictlyFeasible = errors.New("convex: start point not strictly feasible")

// Constraint is a smooth convex inequality g(x) <= 0.
type Constraint struct {
	// F evaluates g(x).
	F func(x []float64) float64
	// Grad writes the gradient of g into out (len(out) == len(x)).
	Grad func(x, out []float64)
}

// Problem describes min f(x) s.t. g_i(x) <= 0, lo <= x <= hi.
type Problem struct {
	// Objective evaluates f(x).
	Objective func(x []float64) float64
	// Gradient writes grad f into out.
	Gradient func(x, out []float64)
	// Ineqs are the smooth inequality constraints.
	Ineqs []Constraint
	// Lower and Upper are optional elementwise box bounds; a nil slice means
	// unbounded on that side. Use math.Inf entries for per-coordinate holes.
	Lower, Upper []float64
}

// Options tunes Minimize. The zero value is replaced by defaults.
type Options struct {
	// MaxOuter bounds barrier continuation steps.
	MaxOuter int
	// MaxNewton bounds Newton iterations per barrier subproblem.
	MaxNewton int
	// TInit is the initial barrier weight t (objective scaled by t).
	TInit float64
	// TScale is the barrier growth factor per outer iteration.
	TScale float64
	// Tol is the duality-gap style stopping tolerance m/t < Tol.
	Tol float64
}

func (o Options) withDefaults() Options {
	if o.MaxOuter <= 0 {
		o.MaxOuter = 60
	}
	if o.MaxNewton <= 0 {
		o.MaxNewton = 80
	}
	if o.TInit <= 0 {
		o.TInit = 1
	}
	if o.TScale <= 1 {
		o.TScale = 8
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o
}

// Minimize runs the barrier method from the strictly feasible point x0 and
// returns an approximate minimizer. It does not mutate x0.
func Minimize(p Problem, x0 []float64, opts Options) ([]float64, error) {
	opts = opts.withDefaults()
	n := len(x0)
	if n == 0 {
		return nil, errors.New("convex: empty start point")
	}
	x := linalg.CopyOf(x0)
	if err := checkStrict(p, x); err != nil {
		return nil, err
	}

	// Count barrier terms for the gap criterion.
	m := len(p.Ineqs)
	for i := 0; i < n; i++ {
		if lower(p, i) > math.Inf(-1) {
			m++
		}
		if upper(p, i) < math.Inf(1) {
			m++
		}
	}
	if m == 0 {
		m = 1
	}

	t := opts.TInit
	for outer := 0; outer < opts.MaxOuter; outer++ {
		if err := newtonCenter(p, x, t, opts.MaxNewton); err != nil {
			return nil, fmt.Errorf("convex: centering at t=%g: %w", t, err)
		}
		if float64(m)/t < opts.Tol {
			return x, nil
		}
		t *= opts.TScale
	}
	return x, nil
}

func lower(p Problem, i int) float64 {
	if p.Lower == nil {
		return math.Inf(-1)
	}
	return p.Lower[i]
}

func upper(p Problem, i int) float64 {
	if p.Upper == nil {
		return math.Inf(1)
	}
	return p.Upper[i]
}

func checkStrict(p Problem, x []float64) error {
	for i := range x {
		if x[i] <= lower(p, i) || x[i] >= upper(p, i) {
			return fmt.Errorf("convex: x[%d]=%g outside open box (%g,%g): %w",
				i, x[i], lower(p, i), upper(p, i), ErrNotStrictlyFeasible)
		}
	}
	for k, c := range p.Ineqs {
		if v := c.F(x); v >= 0 {
			return fmt.Errorf("convex: inequality %d = %g >= 0 at start: %w", k, v, ErrNotStrictlyFeasible)
		}
	}
	return nil
}

// barrierValue evaluates t*f(x) + phi(x), returning +Inf outside the domain.
func barrierValue(p Problem, x []float64, t float64) float64 {
	v := t * p.Objective(x)
	for i := range x {
		if lo := lower(p, i); lo > math.Inf(-1) {
			d := x[i] - lo
			if d <= 0 {
				return math.Inf(1)
			}
			v -= math.Log(d)
		}
		if hi := upper(p, i); hi < math.Inf(1) {
			d := hi - x[i]
			if d <= 0 {
				return math.Inf(1)
			}
			v -= math.Log(d)
		}
	}
	for _, c := range p.Ineqs {
		g := c.F(x)
		if g >= 0 {
			return math.Inf(1)
		}
		v -= math.Log(-g)
	}
	return v
}

// barrierGrad writes the gradient of the barrier-augmented objective.
func barrierGrad(p Problem, x []float64, t float64, out, scratch []float64) {
	p.Gradient(x, out)
	linalg.Scale(t, out)
	for i := range x {
		if lo := lower(p, i); lo > math.Inf(-1) {
			out[i] -= 1 / (x[i] - lo)
		}
		if hi := upper(p, i); hi < math.Inf(1) {
			out[i] += 1 / (hi - x[i])
		}
	}
	for _, c := range p.Ineqs {
		g := c.F(x)
		c.Grad(x, scratch)
		inv := -1 / g // g < 0 in the domain
		linalg.AXPY(inv, scratch, out)
	}
}

// newtonCenter minimizes the barrier subproblem at weight t in place.
func newtonCenter(p Problem, x []float64, t float64, maxIter int) error {
	n := len(x)
	grad := make([]float64, n)
	scratch := make([]float64, n)
	gPlus := make([]float64, n)
	gMinus := make([]float64, n)
	hess := linalg.NewDense(n, n)

	for iter := 0; iter < maxIter; iter++ {
		barrierGrad(p, x, t, grad, scratch)

		// Finite-difference Hessian of the barrier gradient (central).
		for i := 0; i < n; i++ {
			h := 1e-6 * (1 + math.Abs(x[i]))
			// Keep the probes inside the open domain.
			xi := x[i]
			x[i] = xi + h
			if barrierValue(p, x, t) == math.Inf(1) {
				x[i] = xi
				h = -h // probe inward only
				x[i] = xi + h
			}
			barrierGrad(p, x, t, gPlus, scratch)
			x[i] = xi - h
			if barrierValue(p, x, t) == math.Inf(1) {
				// One-sided difference from the feasible side.
				x[i] = xi
				barrierGrad(p, x, t, gMinus, scratch)
				for j := 0; j < n; j++ {
					hess.Set(i, j, (gPlus[j]-gMinus[j])/h)
				}
				continue
			}
			barrierGrad(p, x, t, gMinus, scratch)
			x[i] = xi
			for j := 0; j < n; j++ {
				hess.Set(i, j, (gPlus[j]-gMinus[j])/(2*h))
			}
		}
		hess.Symmetrize()

		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = -grad[i]
		}
		step, err := linalg.SolveSPD(hess, rhs)
		if err != nil {
			// Fall back to steepest descent when the FD Hessian is broken.
			step = rhs
		}

		// Newton decrement stopping rule.
		lambda2 := -linalg.Dot(grad, step)
		if lambda2 < 0 {
			// Not a descent direction (FD noise): use gradient.
			step = linalg.CopyOf(rhs)
			lambda2 = linalg.Dot(grad, grad)
		}
		if lambda2/2 < 1e-12 {
			return nil
		}

		// Backtracking line search keeping strict feasibility.
		f0 := barrierValue(p, x, t)
		alpha := 1.0
		const c1, shrink = 1e-4, 0.5
		improved := false
		for ls := 0; ls < 60; ls++ {
			trial := linalg.CopyOf(x)
			linalg.AXPY(alpha, step, trial)
			fv := barrierValue(p, trial, t)
			if fv < f0-c1*alpha*lambda2/2 || (fv < f0 && alpha < 1e-6) {
				copy(x, trial)
				improved = true
				break
			}
			alpha *= shrink
		}
		if !improved {
			return nil // stalled at (numerical) optimum
		}
	}
	return nil
}
