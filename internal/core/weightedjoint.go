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
// where E*(T) is the minimum total energy at per-round deadline T. The
// fixed-deadline problem is jointly convex in the splits, the bands and T
// (see solveDeadlineJoint), so E*(T), a partial minimum of it, is convex
// and non-increasing, and the objective is convex in T. Its slope has a
// closed form: the deadline solve returns dE*/dT per round, the envelope
// slope -2*kappa*sum f^3 over the devices whose frequency f lies above
// FMin, plus, for a device whose split is held at its end by FMax, the
// rest of its cost's slope there (deadlineSlope). So the objective's slope
// is Rg*(w2 + w1*dE*/dT), nondecreasing in T, and numeric.MinimizeConvex
// finds its root to 1e-6 of the start.
//
// The search starts at the round time of the paper's alternation
// (Optimize without JointWeighted), whose allocation is feasible at that
// deadline, so the first deadline solve is already at least as good as the
// alternation, whose answer is the first candidate. It is bounded below by
// the physical floor (SolveMinTime) and above by alt/(w2*Rg), past which
// w2*Rg*T alone exceeds the alternation's objective alt. The answer is the
// best point evaluated, after about six deadline solves.
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

	alt, err := Optimize(s, w, Options{MaxOuter: opts.MaxOuter, Work: opts.Work})
	if err != nil {
		return Result{}, err
	}
	mt, err := SolveMinTime(s)
	if err != nil {
		return Result{}, err
	}
	rg := s.GlobalRounds
	start := alt.Metrics.RoundTime
	lo := mt.RoundDeadline * (1 + 1e-9)
	hi := max(lo, alt.Objective/(w.W2*rg))

	bestT, bestAlloc, bestObj := start, alt.Allocation, alt.Objective
	slope := func(t float64) float64 {
		alloc, _, dE, err := solveDeadlineJoint(s, t, nil)
		if err != nil {
			return math.Inf(-1) // below the least deadline the solve reaches
		}
		if obj := w.W1*s.Evaluate(alloc).TotalEnergy + w.W2*rg*t; obj < bestObj {
			bestT, bestAlloc, bestObj = t, alloc, obj
		}
		return rg * (w.W2 + w.W1*dE)
	}
	if _, err := numeric.MinimizeConvex(slope, start, lo, hi, 1e-6*start); err != nil {
		return Result{}, fmt.Errorf("core: weighted joint deadline search: %w", err)
	}

	res := Result{
		Allocation:    bestAlloc,
		RoundDeadline: bestT,
		Metrics:       s.Evaluate(bestAlloc),
		Converged:     true,
	}
	res.Objective = w.W1*res.Metrics.TotalEnergy + w.W2*res.Metrics.TotalTime
	res.Iterations = []IterationTrace{{Objective: res.Objective, RoundDeadline: bestT}}
	return res, nil
}
