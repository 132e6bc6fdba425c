package core

import (
	"fmt"
	"math"

	"repro/internal/fl"
	"repro/internal/numeric"
)

// SolveWeightedJoint minimizes the weighted objective (8) by a 1-D search
// over the round deadline T, solving the fixed-deadline energy problem
// exactly (dual decomposition, solveDeadlineJoint) at each candidate:
//
//	min_T  w1 * E*(T) + w2 * Rg * T,
//
// where E*(T) is the minimum total energy at per-round deadline T. E* is
// non-increasing in T, so the objective is the sum of a decreasing and a
// linear term — unimodal in practice. T is bracketed by doubling from the
// physical floor until the objective turns upward, and a 12-point grid scan
// refined by golden section (numeric.GridRefineMin) finds the optimum.
//
// Rationale: the paper's Algorithm 2 freezes the transmission variables
// whenever Subproblem 1's deadline is tight — the rate floors then equal
// the current rates and, from the full-power start, the bandwidth floors
// exactly fill B, so Subproblem 2 must return its input. The alternation
// therefore only ever tunes frequencies in the tight-weight regime. This
// solver restores the full compute/communicate tradeoff at the cost of one
// deadline solve per search point.
func SolveWeightedJoint(s *fl.System, w fl.Weights, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := opts.check(s, w); err != nil {
		return Result{}, err
	}
	if w.W1 == 0 || w.W2 == 0 {
		// Corners are degenerate for the T-search (no tradeoff); the
		// standard pathways already solve them well.
		return Optimize(s, w, opts)
	}

	mt, err := SolveMinTime(s)
	if err != nil {
		return Result{}, err
	}
	tMin := mt.RoundDeadline * (1 + 1e-9)

	type point struct {
		alloc fl.Allocation
		obj   float64
		ok    bool
	}
	cache := map[float64]point{}
	eval := func(t float64) point {
		if p, hit := cache[t]; hit {
			return p
		}
		var p point
		alloc, _, err := solveDeadlineJoint(s, t, nil)
		if err == nil {
			m := s.Evaluate(alloc)
			p = point{alloc: alloc, obj: w.W1*m.TotalEnergy + w.W2*s.GlobalRounds*t, ok: true}
		} else {
			p.obj = math.Inf(1)
		}
		cache[t] = p
		return p
	}

	// Bracket: expand T geometrically from the physical floor until the
	// objective turns upward (the linear w2 term eventually dominates).
	lo := tMin
	hi := tMin * 2
	prev := eval(lo).obj
	for iter := 0; iter < 60; iter++ {
		cur := eval(hi).obj
		if cur > prev && !math.IsInf(cur, 1) {
			break
		}
		prev = cur
		hi *= 2
	}

	tStar, err := numeric.GridRefineMin(func(t float64) float64 { return eval(t).obj }, lo, hi, 12, 2e-3*hi)
	if err != nil {
		return Result{}, fmt.Errorf("core: weighted joint deadline search: %w", err)
	}
	best := eval(tStar)
	if !best.ok {
		// Fall back to the nearest cached feasible point.
		for t, p := range cache {
			if p.ok && (math.IsInf(best.obj, 1) || p.obj < best.obj) {
				best = p
				tStar = t
			}
		}
		if !best.ok {
			return Result{}, fmt.Errorf("core: no feasible deadline in [%g, %g]: %w", lo, hi, ErrInfeasible)
		}
	}

	res := Result{
		Allocation:    best.alloc,
		RoundDeadline: tStar,
		Metrics:       s.Evaluate(best.alloc),
		Converged:     true,
	}
	res.Objective = w.W1*res.Metrics.TotalEnergy + w.W2*res.Metrics.TotalTime
	res.Iterations = []IterationTrace{{Objective: res.Objective, RoundDeadline: tStar}}
	return res, nil
}
